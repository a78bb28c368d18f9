//! The single query pair validating a whole set of CFDs (Section 4.2.2).
//!
//! Both queries join the data relation with the merged tableaux of
//! [`crate::merge::MergedTableaux`] and use `CASE` expressions to mask
//! attributes whose pattern cell is the don't-care symbol `@`, so that the
//! `GROUP BY` of `QV_Σ` effectively groups each pattern row only by the
//! attributes it constrains (Fig. 8's `Macro` relation).
//!
//! The pair is built once, by [`qc_merged`] and [`qv_merged`]; a
//! [`TableauSource`] says where the `T^X_Σ` / `T^Y_Σ` cells are read from:
//!
//! * [`TableauSource::Split`] — the **paper form**: the data relation joined
//!   with `T^X_Σ` and `T^Y_Σ` on the pattern id, exactly as printed in the
//!   paper — useful for inspecting the generated SQL and for small data;
//! * [`TableauSource::Joined`] — the **execution form**: the data relation
//!   joined with the pre-joined `T^X_Σ ⋈ T^Y_Σ` relation (one row per
//!   pattern id, `X_`/`Y_`-prefixed columns). It is what [`crate::Detector`]
//!   runs by default: the id join is 1:1, so pre-computing it avoids a
//!   quadratic nested loop in the in-memory executor without changing the
//!   result.

use crate::ast::{Expr, SelectItem, SelectQuery, TableRef};
use crate::merge::MergedTableaux;
use crate::single::{x_match, y_mismatch, DATA_ALIAS};

/// Alias of the pre-joined tableau in execution-form queries.
pub const JOINED_ALIAS: &str = "tp";
/// Alias of `T^X_Σ` in paper-form queries.
pub const TX_ALIAS: &str = "txp";
/// Alias of `T^Y_Σ` in paper-form queries.
pub const TY_ALIAS: &str = "typ";

/// Where a merged query reads the `T^X_Σ` / `T^Y_Σ` cells from (catalog
/// names of the materialized tableaux; see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub enum TableauSource<'a> {
    /// [`MergedTableaux::joined_relation`], registered under this name.
    Joined(&'a str),
    /// [`MergedTableaux::x_relation`] and [`MergedTableaux::y_relation`],
    /// registered under these names and joined on `id`.
    Split {
        /// Catalog name of `T^X_Σ`.
        tx: &'a str,
        /// Catalog name of `T^Y_Σ`.
        ty: &'a str,
    },
}

impl TableauSource<'_> {
    /// `(alias, column)` of the `T^X_Σ` cell of attribute `a`.
    fn x(&self, a: &str) -> (&'static str, String) {
        match self {
            TableauSource::Joined(_) => (JOINED_ALIAS, format!("X_{a}")),
            TableauSource::Split { .. } => (TX_ALIAS, a.to_owned()),
        }
    }

    /// `(alias, column)` of the `T^Y_Σ` cell of attribute `a`.
    fn y(&self, a: &str) -> (&'static str, String) {
        match self {
            TableauSource::Joined(_) => (JOINED_ALIAS, format!("Y_{a}")),
            TableauSource::Split { .. } => (TY_ALIAS, a.to_owned()),
        }
    }

    /// `query` reading from the data relation and the tableau tables, and
    /// the conjuncts every merged query starts with: the id join of the two
    /// tableaux (paper form only), then `t[X] ≍ tp[X]` per `X` attribute.
    fn start(
        &self,
        query: SelectQuery,
        data: &str,
        merged: &MergedTableaux,
    ) -> (SelectQuery, Vec<Expr>) {
        let query = query.from(TableRef::aliased(data, DATA_ALIAS));
        let (query, mut conjuncts) = match *self {
            TableauSource::Joined(name) => (
                query.from(TableRef::aliased(name, JOINED_ALIAS)),
                Vec::new(),
            ),
            TableauSource::Split { tx, ty } => (
                query
                    .from(TableRef::aliased(tx, TX_ALIAS))
                    .from(TableRef::aliased(ty, TY_ALIAS)),
                vec![Expr::col(TX_ALIAS, "id").eq(Expr::col(TY_ALIAS, "id"))],
            ),
        };
        conjuncts.extend(merged.x_attrs().iter().map(|a| {
            let (alias, col) = self.x(a);
            x_match(a, alias, &col)
        }));
        (query, conjuncts)
    }
}

/// `CASE <tableau cell> WHEN '@' THEN '@' ELSE t.<attr> END` — the masking
/// expression of the `Macro` relation.
fn mask(data_attr: &str, (tableau_alias, tableau_col): (&str, String)) -> Expr {
    Expr::case(
        Expr::col(tableau_alias, tableau_col),
        vec![(Expr::str("@"), Expr::str("@"))],
        Expr::col(DATA_ALIAS, data_attr),
    )
}

/// `CASE <tableau Y cell> WHEN '@' THEN '@' ELSE '+' END` — an indicator of
/// which Y attributes a pattern row constrains.
///
/// The paper's printed `QV_Σ` groups only by the masked `X` attributes. When
/// two CFDs in `Σ` have the *same* LHS attribute set but different RHS
/// attribute sets, their pattern rows produce identical masked-`X` group keys
/// while masking `Y` differently, and a single pair of (tuple, pattern-row)
/// matches would then be counted as two distinct `Y` projections — a false
/// positive. Adding these indicator columns to the GROUP BY keeps every group
/// homogeneous in its `Y` mask, which restores exactness without changing the
/// query's size bound (one extra column per RHS attribute of the embedded
/// FDs). See DESIGN.md, "Deviations".
fn y_mask_signature((tableau_alias, tableau_col): (&str, String)) -> Expr {
    Expr::case(
        Expr::col(tableau_alias, tableau_col),
        vec![(Expr::str("@"), Expr::str("@"))],
        Expr::str("+"),
    )
}

/// `QC_Σ`: the tuples matching a merged pattern row on `X` and contradicting
/// one of its `Y` constants. With [`TableauSource::Split`] this is the query
/// exactly as printed in the paper.
pub fn qc_merged(
    merged: &MergedTableaux,
    data_name: &str,
    source: TableauSource<'_>,
) -> SelectQuery {
    let select = SelectQuery::new().item(SelectItem::wildcard(DATA_ALIAS));
    let (query, mut conjuncts) = source.start(select, data_name, merged);
    let mismatch = |a: &String| {
        let (alias, col) = source.y(a);
        y_mismatch(a, alias, &col)
    };
    conjuncts.push(Expr::or(merged.y_attrs().iter().map(mismatch).collect()));
    query.filter(Expr::and(conjuncts))
}

/// `QV_Σ`: groups by the masked `X` attributes and counts distinct masked
/// `Y` projections. With [`TableauSource::Split`] this is the query as
/// printed in the paper, modulo flattening the `Macro` sub-query into the
/// grouped query (which commercial engines do as well).
pub fn qv_merged(
    merged: &MergedTableaux,
    data_name: &str,
    source: TableauSource<'_>,
) -> SelectQuery {
    let (mut query, conjuncts) = source.start(SelectQuery::new().distinct(), data_name, merged);
    for a in merged.x_attrs() {
        let m = mask(a, source.x(a));
        query = query
            .item(SelectItem::aliased(m.clone(), a.clone()))
            .group(m);
    }
    for a in merged.y_attrs() {
        query = query.group(y_mask_signature(source.y(a)));
    }
    let distinct_y = merged.y_attrs().iter().map(|a| mask(a, source.y(a)));
    query
        .filter(Expr::and(conjuncts))
        .having_count_distinct_gt(distinct_y.collect(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, Executor, Strategy};
    use cfd_datagen::cust::{cust_instance, phi2, phi3_with_fd, phi5};
    use cfd_relation::Value;

    const JOINED: TableauSource<'static> = TableauSource::Joined("TXY");
    const PAPER: TableauSource<'static> = TableauSource::Split { tx: "TX", ty: "TY" };

    fn merged_phi3_phi5() -> MergedTableaux {
        MergedTableaux::build(&[phi3_with_fd(), phi5()]).unwrap()
    }

    fn catalog_for(merged: &MergedTableaux) -> Catalog {
        let mut c = Catalog::new();
        c.register(cust_instance());
        c.register_as("TXY", merged.joined_relation("TXY"));
        c.register_as("TX", merged.x_relation("TX"));
        c.register_as("TY", merged.y_relation("TY"));
        c
    }

    #[test]
    fn merged_query_text_contains_case_masking() {
        let merged = merged_phi3_phi5();
        let sql = qv_merged(&merged, "cust", JOINED).to_string();
        assert!(sql.contains("CASE tp.X_CC WHEN '@' THEN '@' ELSE t.CC END"));
        assert!(sql.contains("GROUP BY"));
        assert!(sql.contains("count(distinct CASE tp.Y_CT WHEN '@' THEN '@' ELSE t.CT END"));
        let paper = qv_merged(&merged, "cust", PAPER).to_string();
        assert!(paper.contains("txp.id = typ.id"));
        assert!(paper.contains("FROM cust t, TX txp, TY typ"));
    }

    #[test]
    fn query_size_bounded_by_embedded_fds_not_tableau() {
        let merged = merged_phi3_phi5();
        let qc = qc_merged(&merged, "cust", JOINED);
        // 3 X attrs * 3 atoms + 2 Y attrs * 3 atoms.
        assert_eq!(qc.where_clause.unwrap().atom_count(), 3 * 3 + 2 * 3);
    }

    #[test]
    fn fig8_example_qv_flags_the_nyc_tuples() {
        // ϕ5 = [CT] → [AC] is violated by Fig. 1: NYC has two area codes.
        let merged = merged_phi3_phi5();
        let catalog = catalog_for(&merged);
        let exec = Executor::new(&catalog);
        let result = exec.run(&qv_merged(&merged, "cust", JOINED)).unwrap();
        // The NYC group (masked key (@, @, NYC)) is reported.
        let keys: Vec<&Vec<Value>> = result.rows().iter().collect();
        assert!(
            keys.iter()
                .any(|k| k.contains(&Value::from("NYC")) && k.contains(&Value::from("@"))),
            "expected a masked NYC group key, got {keys:?}"
        );
    }

    #[test]
    fn exec_form_and_paper_form_agree() {
        let merged = MergedTableaux::build(&[phi2(), phi3_with_fd(), phi5()]).unwrap();
        let catalog = catalog_for(&merged);
        for strategy in [Strategy::dnf(), Strategy::cnf()] {
            let exec = Executor::new(&catalog).with_strategy(strategy);
            let qc_a = exec.run(&qc_merged(&merged, "cust", JOINED)).unwrap();
            let qc_b = exec.run(&qc_merged(&merged, "cust", PAPER)).unwrap();
            let mut rows_a = qc_a.rows().to_vec();
            let mut rows_b = qc_b.rows().to_vec();
            rows_a.sort();
            rows_a.dedup();
            rows_b.sort();
            rows_b.dedup();
            assert_eq!(rows_a, rows_b, "QC forms disagree under {strategy:?}");

            let qv_a = exec.run(&qv_merged(&merged, "cust", JOINED)).unwrap();
            let qv_b = exec.run(&qv_merged(&merged, "cust", PAPER)).unwrap();
            let mut rows_a = qv_a.rows().to_vec();
            let mut rows_b = qv_b.rows().to_vec();
            rows_a.sort();
            rows_b.sort();
            assert_eq!(rows_a, rows_b, "QV forms disagree under {strategy:?}");
        }
    }

    #[test]
    fn merged_qc_finds_the_phi2_constant_violations() {
        let merged = MergedTableaux::build(&[phi2()]).unwrap();
        let catalog = catalog_for(&merged);
        let exec = Executor::new(&catalog);
        let result = exec.run(&qc_merged(&merged, "cust", JOINED)).unwrap();
        let names = result.column_values("NM").unwrap();
        assert!(names.contains(&Value::from("Mike")));
        assert!(names.contains(&Value::from("Rick")));
        assert_eq!(names.len(), 2);
    }
}
