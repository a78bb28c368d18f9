//! `QC`/`QV` query generation for a single CFD (Section 4.1, Fig. 5).
//!
//! A CFD's pattern tableau is materialized as an ordinary relation (one
//! column per attribute of the embedded FD, `_` stored as a literal token)
//! and joined with the data relation. The generated queries are therefore
//! bounded by the size of the embedded FD and independent of the tableau's
//! size and contents — the property the paper highlights.

use crate::ast::{Expr, SelectItem, SelectQuery, TableRef};
use cfd_core::Cfd;
use cfd_relation::{Relation, Schema, Tuple};

/// Alias used for the data relation in generated queries.
pub const DATA_ALIAS: &str = "t";
/// Alias used for the pattern tableau in generated queries.
pub const TABLEAU_ALIAS: &str = "tp";

/// Column names used for the CFD's pattern tableau when stored as a relation:
/// LHS attributes keep their names; RHS attributes that also appear on the
/// LHS get an `__R` suffix (the paper's `t[A_L]` / `t[A_R]` distinction).
pub fn tableau_columns(cfd: &Cfd) -> (Vec<String>, Vec<String>) {
    let lhs: Vec<String> = cfd.lhs_names().iter().map(|s| (*s).to_owned()).collect();
    let rhs: Vec<String> = cfd
        .rhs_names()
        .iter()
        .map(|name| {
            if lhs.iter().any(|l| l == name) {
                format!("{name}__R")
            } else {
                (*name).to_owned()
            }
        })
        .collect();
    (lhs, rhs)
}

/// Materializes the CFD's pattern tableau as a relation named `name`,
/// with `_` (and `@`, for merged tableaux) stored as literal string tokens.
pub fn tableau_relation(cfd: &Cfd, name: &str) -> Relation {
    let (lhs_cols, rhs_cols) = tableau_columns(cfd);
    let mut builder = Schema::builder(name);
    for c in lhs_cols.iter().chain(rhs_cols.iter()) {
        builder = builder.text(c.clone());
    }
    let schema = builder.build();
    let mut rel = Relation::with_capacity(schema, cfd.tableau().len());
    for row in cfd.tableau().iter() {
        let values = row
            .lhs()
            .iter()
            .chain(row.rhs().iter())
            .map(|p| p.to_value())
            .collect::<Vec<_>>();
        rel.push(Tuple::new(values))
            // wslint: allow(panic_path, "the row is projected from the tableau onto this same schema")
            .expect("tableau row matches its schema");
    }
    rel
}

/// The X-side match shorthand `t[Xi] ≍ tp[Xi]` against the tableau cell
/// `<alias>.<col>` (shared with the merged queries, whose tableaux go by
/// other aliases): `(t.Xi = tp.Xi OR tp.Xi = '_' OR tp.Xi = '@')`.
pub fn x_match(data_attr: &str, tableau_alias: &str, tableau_col: &str) -> Expr {
    Expr::or(vec![
        Expr::col(DATA_ALIAS, data_attr).eq(Expr::col(tableau_alias, tableau_col)),
        Expr::col(tableau_alias, tableau_col).eq(Expr::str("_")),
        Expr::col(tableau_alias, tableau_col).eq(Expr::str("@")),
    ])
}

/// The Y-side mismatch shorthand `t[Yj] ≭ tp[Yj]`:
/// `(t.Yj <> tp.Yj AND tp.Yj <> '_' AND tp.Yj <> '@')`.
pub fn y_mismatch(data_attr: &str, tableau_alias: &str, tableau_col: &str) -> Expr {
    Expr::and(vec![
        Expr::col(DATA_ALIAS, data_attr).ne(Expr::col(tableau_alias, tableau_col)),
        Expr::col(tableau_alias, tableau_col).ne(Expr::str("_")),
        Expr::col(tableau_alias, tableau_col).ne(Expr::str("@")),
    ])
}

/// The `QC` query of Fig. 5: single-tuple (constant) violations.
///
/// ```sql
/// SELECT t.* FROM R t, Tp tp
/// WHERE t[X1] ≍ tp[X1] AND … AND t[Xn] ≍ tp[Xn]
///   AND (t[Y1] ≭ tp[Y1] OR … OR t[Ym] ≭ tp[Ym])
/// ```
pub fn qc_query(cfd: &Cfd, data_name: &str, tableau_name: &str) -> SelectQuery {
    let (lhs_cols, rhs_cols) = tableau_columns(cfd);
    let mut conjuncts: Vec<Expr> = cfd
        .lhs_names()
        .iter()
        .zip(&lhs_cols)
        .map(|(attr, col)| x_match(attr, TABLEAU_ALIAS, col))
        .collect();
    let mismatches: Vec<Expr> = cfd
        .rhs_names()
        .iter()
        .zip(&rhs_cols)
        .map(|(attr, col)| y_mismatch(attr, TABLEAU_ALIAS, col))
        .collect();
    conjuncts.push(Expr::or(mismatches));
    SelectQuery::new()
        .item(SelectItem::wildcard(DATA_ALIAS))
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(tableau_name, TABLEAU_ALIAS))
        .filter(Expr::and(conjuncts))
}

/// The `QV` query of Fig. 5: multi-tuple violations.
///
/// ```sql
/// SELECT DISTINCT t.X FROM R t, Tp tp
/// WHERE t[X1] ≍ tp[X1] AND … AND t[Xn] ≍ tp[Xn]
/// GROUP BY t.X HAVING COUNT(DISTINCT Y) > 1
/// ```
pub fn qv_query(cfd: &Cfd, data_name: &str, tableau_name: &str) -> SelectQuery {
    let (lhs_cols, _) = tableau_columns(cfd);
    let conjuncts: Vec<Expr> = cfd
        .lhs_names()
        .iter()
        .zip(&lhs_cols)
        .map(|(attr, col)| x_match(attr, TABLEAU_ALIAS, col))
        .collect();
    let mut query = SelectQuery::new()
        .distinct()
        .from(TableRef::aliased(data_name, DATA_ALIAS))
        .from(TableRef::aliased(tableau_name, TABLEAU_ALIAS));
    for attr in cfd.lhs_names() {
        query = query
            .item(SelectItem::expr(Expr::col(DATA_ALIAS, attr)))
            .group(Expr::col(DATA_ALIAS, attr));
    }
    let distinct_y: Vec<Expr> = cfd
        .rhs_names()
        .iter()
        .map(|attr| Expr::col(DATA_ALIAS, *attr))
        .collect();
    query
        .filter(Expr::and(conjuncts))
        .having_count_distinct_gt(distinct_y, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_core::Cfd;
    use cfd_datagen::cust::{cust_schema, phi2};
    use cfd_relation::Value;

    #[test]
    fn tableau_relation_stores_tokens() {
        let rel = tableau_relation(&phi2(), "T2");
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.schema().arity(), 6);
        let ct = rel.schema().resolve("CT").unwrap();
        assert_eq!(rel.row(0).unwrap()[ct], Value::from("MH"));
        let pn = rel.schema().resolve("PN").unwrap();
        assert_eq!(rel.row(0).unwrap()[pn], Value::from("_"));
    }

    #[test]
    fn rhs_columns_are_renamed_on_collision() {
        // [CT] -> [CT, AC]: the RHS CT column must be distinguished.
        let cfd = Cfd::builder(cust_schema(), ["CT"], ["CT", "AC"])
            .pattern(["_"], ["_", "_"])
            .build()
            .unwrap();
        let (lhs, rhs) = tableau_columns(&cfd);
        assert_eq!(lhs, vec!["CT"]);
        assert_eq!(rhs, vec!["CT__R", "AC"]);
        let rel = tableau_relation(&cfd, "T");
        assert_eq!(rel.schema().arity(), 3);
        assert!(rel.schema().resolve("CT__R").is_ok());
    }

    #[test]
    fn qc_query_shape_matches_fig5() {
        let sql = qc_query(&phi2(), "cust", "T2").to_string();
        assert!(sql.starts_with("SELECT t.* FROM cust t, T2 tp WHERE"));
        assert!(sql.contains("t.CC = tp.CC OR tp.CC = '_'"));
        assert!(sql.contains("t.CT <> tp.CT AND tp.CT <> '_'"));
        // Query size is bounded by the embedded FD: 3 X-clauses + 3 Y-clauses.
        let q = qc_query(&phi2(), "cust", "T2");
        assert_eq!(q.where_clause.as_ref().unwrap().atom_count(), 3 * 3 + 3 * 3);
    }

    #[test]
    fn qv_query_shape_matches_fig5() {
        let q = qv_query(&phi2(), "cust", "T2");
        let sql = q.to_string();
        assert!(sql.contains("SELECT DISTINCT t.CC, t.AC, t.PN"));
        assert!(sql.contains("GROUP BY t.CC, t.AC, t.PN"));
        assert!(sql.contains("HAVING count(distinct t.STR, t.CT, t.ZIP) > 1"));
        assert!(q.distinct);
        assert_eq!(q.group_by.len(), 3);
    }

    #[test]
    fn query_size_is_independent_of_tableau_size() {
        let small = Cfd::builder(cust_schema(), ["CC", "AC"], ["CT"])
            .pattern(["01", "215"], ["PHI"])
            .build()
            .unwrap();
        let mut builder = Cfd::builder(cust_schema(), ["CC", "AC"], ["CT"]);
        for i in 0..500 {
            builder = builder.pattern(["01", format!("{i:03}").as_str()], ["PHI"]);
        }
        let large = builder.build().unwrap();
        let q_small = qc_query(&small, "cust", "T");
        let q_large = qc_query(&large, "cust", "T");
        assert_eq!(
            q_small.where_clause.unwrap().atom_count(),
            q_large.where_clause.unwrap().atom_count()
        );
        assert_eq!(tableau_relation(&large, "T").len(), 500);
    }

    #[test]
    fn match_shorthands_render_as_expected() {
        assert_eq!(
            x_match("CC", TABLEAU_ALIAS, "CC").to_string(),
            "t.CC = tp.CC OR tp.CC = '_' OR tp.CC = '@'"
        );
        assert_eq!(
            y_mismatch("CT", TABLEAU_ALIAS, "CT").to_string(),
            "t.CT <> tp.CT AND tp.CT <> '_' AND tp.CT <> '@'"
        );
    }
}
