//! The single query pair validating a whole set of CFDs (Section 4.2.2).
//!
//! Both queries join the data relation with the merged tableaux of
//! [`crate::merge::MergedTableaux`] and use `CASE` expressions to mask
//! attributes whose pattern cell is the don't-care symbol `@`, so that the
//! `GROUP BY` of `QV_Σ` effectively groups each pattern row only by the
//! attributes it constrains (Fig. 8's `Macro` relation).
//!
//! Two formulations are provided:
//!
//! * the **paper form** joins the data relation with `T^X_Σ` and `T^Y_Σ` on
//!   the pattern id, exactly as printed in the paper — useful for inspecting
//!   the generated SQL and for small data;
//! * the **execution form** joins the data relation with the pre-joined
//!   `T^X_Σ ⋈ T^Y_Σ` relation (one row per pattern id, `X_`/`Y_`-prefixed
//!   columns). It is what [`crate::Detector`] runs: the id join is 1:1, so
//!   pre-computing it avoids a quadratic nested loop in the in-memory
//!   executor without changing the result.

use crate::merge::MergedTableaux;
use crate::single::{x_match, y_mismatch, DATA_ALIAS};
use cfd_sql::ast::{Expr, SelectItem, SelectQuery, TableRef};

/// Alias of the pre-joined tableau in execution-form queries.
pub const JOINED_ALIAS: &str = "tp";
/// Alias of `T^X_Σ` in paper-form queries.
pub const TX_ALIAS: &str = "txp";
/// Alias of `T^Y_Σ` in paper-form queries.
pub const TY_ALIAS: &str = "typ";

/// `CASE <tableau cell> WHEN '@' THEN '@' ELSE t.<attr> END` — the masking
/// expression of the `Macro` relation.
fn mask(data_attr: &str, tableau_alias: &str, tableau_col: &str) -> Expr {
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
fn y_mask_signature(tableau_alias: &str, tableau_col: &str) -> Expr {
    Expr::case(
        Expr::col(tableau_alias, tableau_col),
        vec![(Expr::str("@"), Expr::str("@"))],
        Expr::str("+"),
    )
}

/// `QC_Σ` in execution form (data ⋈ pre-joined tableau).
pub fn qc_merged(merged: &MergedTableaux, data_name: &str, joined_name: &str) -> SelectQuery {
    let mut conjuncts: Vec<Expr> = merged
        .x_attrs()
        .iter()
        .map(|a| x_match(a, JOINED_ALIAS, &format!("X_{a}")))
        .collect();
    let mismatches: Vec<Expr> = merged
        .y_attrs()
        .iter()
        .map(|a| y_mismatch(a, JOINED_ALIAS, &format!("Y_{a}")))
        .collect();
    conjuncts.push(Expr::or(mismatches));
    SelectQuery::new()
        .item(SelectItem::wildcard(DATA_ALIAS))
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(joined_name, JOINED_ALIAS))
        .filter(Expr::and(conjuncts))
}

/// `QV_Σ` in execution form: groups by the masked X attributes and counts
/// distinct masked Y projections.
pub fn qv_merged(merged: &MergedTableaux, data_name: &str, joined_name: &str) -> SelectQuery {
    let conjuncts: Vec<Expr> = merged
        .x_attrs()
        .iter()
        .map(|a| x_match(a, JOINED_ALIAS, &format!("X_{a}")))
        .collect();
    let mut query = SelectQuery::new()
        .distinct()
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(joined_name, JOINED_ALIAS));
    for a in merged.x_attrs() {
        let m = mask(a, JOINED_ALIAS, &format!("X_{a}"));
        query = query
            .item(SelectItem::aliased(m.clone(), a.clone()))
            .group(m);
    }
    for a in merged.y_attrs() {
        query = query.group(y_mask_signature(JOINED_ALIAS, &format!("Y_{a}")));
    }
    let distinct_y: Vec<Expr> = merged
        .y_attrs()
        .iter()
        .map(|a| mask(a, JOINED_ALIAS, &format!("Y_{a}")))
        .collect();
    query
        .filter(Expr::and(conjuncts))
        .having_count_distinct_gt(distinct_y, 1)
}

/// `QC_Σ` exactly as printed in the paper: data ⋈ `T^X_Σ` ⋈ `T^Y_Σ` on id.
pub fn qc_merged_paper(
    merged: &MergedTableaux,
    data_name: &str,
    tx_name: &str,
    ty_name: &str,
) -> SelectQuery {
    let mut conjuncts: Vec<Expr> = vec![Expr::col(TX_ALIAS, "id").eq(Expr::col(TY_ALIAS, "id"))];
    conjuncts.extend(merged.x_attrs().iter().map(|a| x_match(a, TX_ALIAS, a)));
    let mismatches: Vec<Expr> = merged
        .y_attrs()
        .iter()
        .map(|a| y_mismatch(a, TY_ALIAS, a))
        .collect();
    conjuncts.push(Expr::or(mismatches));
    SelectQuery::new()
        .item(SelectItem::wildcard(DATA_ALIAS))
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(tx_name, TX_ALIAS))
        .from(TableRef::aliased(ty_name, TY_ALIAS))
        .filter(Expr::and(conjuncts))
}

/// `QV_Σ` exactly as printed in the paper (modulo flattening the `Macro`
/// sub-query into the grouped query, which commercial engines do as well).
pub fn qv_merged_paper(
    merged: &MergedTableaux,
    data_name: &str,
    tx_name: &str,
    ty_name: &str,
) -> SelectQuery {
    let mut conjuncts: Vec<Expr> = vec![Expr::col(TX_ALIAS, "id").eq(Expr::col(TY_ALIAS, "id"))];
    conjuncts.extend(merged.x_attrs().iter().map(|a| x_match(a, TX_ALIAS, a)));
    let mut query = SelectQuery::new()
        .distinct()
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(tx_name, TX_ALIAS))
        .from(TableRef::aliased(ty_name, TY_ALIAS));
    for a in merged.x_attrs() {
        let m = mask(a, TX_ALIAS, a);
        query = query
            .item(SelectItem::aliased(m.clone(), a.clone()))
            .group(m);
    }
    for a in merged.y_attrs() {
        query = query.group(y_mask_signature(TY_ALIAS, a));
    }
    let distinct_y: Vec<Expr> = merged
        .y_attrs()
        .iter()
        .map(|a| mask(a, TY_ALIAS, a))
        .collect();
    query
        .filter(Expr::and(conjuncts))
        .having_count_distinct_gt(distinct_y, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, phi2, phi3_with_fd, phi5};
    use cfd_relation::Value;
    use cfd_sql::{Catalog, Executor, Strategy};

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
        let sql = qv_merged(&merged, "cust", "TXY").to_string();
        assert!(sql.contains("CASE tp.X_CC WHEN '@' THEN '@' ELSE t.CC END"));
        assert!(sql.contains("GROUP BY"));
        assert!(sql.contains("count(distinct CASE tp.Y_CT WHEN '@' THEN '@' ELSE t.CT END"));
        let paper = qv_merged_paper(&merged, "cust", "TX", "TY").to_string();
        assert!(paper.contains("txp.id = typ.id"));
        assert!(paper.contains("FROM cust t, TX txp, TY typ"));
    }

    #[test]
    fn query_size_bounded_by_embedded_fds_not_tableau() {
        let merged = merged_phi3_phi5();
        let qc = qc_merged(&merged, "cust", "TXY");
        // 3 X attrs * 3 atoms + 2 Y attrs * 3 atoms.
        assert_eq!(qc.where_clause.unwrap().atom_count(), 3 * 3 + 2 * 3);
    }

    #[test]
    fn fig8_example_qv_flags_the_nyc_tuples() {
        // ϕ5 = [CT] → [AC] is violated by Fig. 1: NYC has two area codes.
        let merged = merged_phi3_phi5();
        let catalog = catalog_for(&merged);
        let exec = Executor::new(&catalog);
        let result = exec.run(&qv_merged(&merged, "cust", "TXY")).unwrap();
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
            let qc_a = exec.run(&qc_merged(&merged, "cust", "TXY")).unwrap();
            let qc_b = exec
                .run(&qc_merged_paper(&merged, "cust", "TX", "TY"))
                .unwrap();
            let mut rows_a = qc_a.rows().to_vec();
            let mut rows_b = qc_b.rows().to_vec();
            rows_a.sort();
            rows_a.dedup();
            rows_b.sort();
            rows_b.dedup();
            assert_eq!(rows_a, rows_b, "QC forms disagree under {strategy:?}");

            let qv_a = exec.run(&qv_merged(&merged, "cust", "TXY")).unwrap();
            let qv_b = exec
                .run(&qv_merged_paper(&merged, "cust", "TX", "TY"))
                .unwrap();
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
        let result = exec.run(&qc_merged(&merged, "cust", "TXY")).unwrap();
        let names = result.column_values("NM").unwrap();
        assert!(names.contains(&Value::from("Mike")));
        assert!(names.contains(&Value::from("Rick")));
        assert_eq!(names.len(), 2);
    }
}
