//! Merging the tableaux of multiple CFDs (Section 4.2.1, Figs. 6–7).
//!
//! To validate a set `Σ` of CFDs with a single query pair, their tableaux are
//! made union-compatible: the tableau of each CFD is split into an `X` part
//! and a `Y` part, each part is extended to the union of the `X` (resp. `Y`)
//! attributes across `Σ` by padding missing attributes with the don't-care
//! symbol `@`, and every pattern row receives a distinct id linking its two
//! halves.

use cfd_core::{Cfd, CfdError, PatternValue, Result};
use cfd_relation::{Relation, Schema, Tuple, Value};

/// The merged `T^X_Σ` / `T^Y_Σ` tableaux of a set of CFDs.
#[derive(Debug, Clone)]
pub struct MergedTableaux {
    /// Union of the LHS attributes of all CFDs, in schema order.
    x_attrs: Vec<String>,
    /// Union of the RHS attributes of all CFDs, in schema order.
    y_attrs: Vec<String>,
    /// One row per pattern tuple: its id and its X-side cells.
    x_rows: Vec<IdRow>,
    /// One row per pattern tuple: its id and its Y-side cells.
    y_rows: Vec<IdRow>,
}

/// One half of a merged pattern row: its id and its cells.
type IdRow = (usize, Vec<PatternValue>);

impl MergedTableaux {
    /// Merges the tableaux of `cfds`. All CFDs must share a schema and must
    /// not already contain `@` cells.
    pub fn build(cfds: &[Cfd]) -> Result<MergedTableaux> {
        let Some(first) = cfds.first() else {
            return Err(CfdError::EmptyTableau);
        };
        let schema = first.schema();
        for cfd in cfds {
            if cfd.schema() != schema {
                return Err(CfdError::MixedSchemas {
                    left: schema.name().to_owned(),
                    right: cfd.schema().name().to_owned(),
                });
            }
            if cfd.has_dont_care() {
                return Err(CfdError::DontCareNotAllowed);
            }
        }

        // Union of X and Y attributes, in first-appearance order across the
        // CFDs' own attribute lists. For a single CFD this reproduces its
        // declared X/Y order exactly, so the merged queries report the same
        // multi-tuple keys (byte for byte) as the per-CFD paths; for sets it
        // is still deterministic in the input order.
        let mut x_ids: Vec<_> = Vec::new();
        for a in cfds.iter().flat_map(|c| c.lhs()) {
            if !x_ids.contains(a) {
                x_ids.push(*a);
            }
        }
        let mut y_ids: Vec<_> = Vec::new();
        for a in cfds.iter().flat_map(|c| c.rhs()) {
            if !y_ids.contains(a) {
                y_ids.push(*a);
            }
        }
        let x_attrs: Vec<String> = x_ids
            .iter()
            .map(|a| schema.attr_name(*a).to_owned())
            .collect();
        let y_attrs: Vec<String> = y_ids
            .iter()
            .map(|a| schema.attr_name(*a).to_owned())
            .collect();

        let mut x_rows = Vec::new();
        let mut y_rows = Vec::new();
        let mut id = 0usize;
        for cfd in cfds {
            for row in cfd.tableau().iter() {
                id += 1;
                let mut x_cells = vec![PatternValue::DontCare; x_ids.len()];
                for (attr, cell) in cfd.lhs().iter().zip(row.lhs()) {
                    // wslint: allow(panic_path, "x_ids is the union of every CFD's LHS, so the position exists")
                    let pos = x_ids.iter().position(|a| a == attr).expect("attr in union");
                    x_cells[pos] = *cell;
                }
                let mut y_cells = vec![PatternValue::DontCare; y_ids.len()];
                for (attr, cell) in cfd.rhs().iter().zip(row.rhs()) {
                    // wslint: allow(panic_path, "y_ids is the union of every CFD's RHS, so the position exists")
                    let pos = y_ids.iter().position(|a| a == attr).expect("attr in union");
                    y_cells[pos] = *cell;
                }
                x_rows.push((id, x_cells));
                y_rows.push((id, y_cells));
            }
        }
        Ok(MergedTableaux {
            x_attrs,
            y_attrs,
            x_rows,
            y_rows,
        })
    }

    /// The union of LHS attribute names.
    pub fn x_attrs(&self) -> &[String] {
        &self.x_attrs
    }

    /// The union of RHS attribute names.
    pub fn y_attrs(&self) -> &[String] {
        &self.y_attrs
    }

    /// Number of merged pattern rows.
    pub fn len(&self) -> usize {
        self.x_rows.len()
    }

    /// Whether the merged tableau has no rows.
    pub fn is_empty(&self) -> bool {
        self.x_rows.is_empty()
    }

    /// Materializes `T^X_Σ` as a relation named `name`, with an `id` column
    /// followed by the X attributes (Fig. 7(a)).
    pub fn x_relation(&self, name: &str) -> Relation {
        self.materialize(name, &[("", &self.x_attrs, &self.x_rows)])
    }

    /// Materializes `T^Y_Σ` as a relation named `name` (Fig. 7(b)). Columns
    /// that also appear in `T^X_Σ` keep their names — the two tableaux are
    /// separate tables, so there is no collision.
    pub fn y_relation(&self, name: &str) -> Relation {
        self.materialize(name, &[("", &self.y_attrs, &self.y_rows)])
    }

    /// Materializes the 1:1 join of `T^X_Σ` and `T^Y_Σ` on `id` as a single
    /// relation with `X_`/`Y_`-prefixed columns. The merged detection queries
    /// are executed against this pre-joined form (the join is trivial — one
    /// row per id — and doing it once avoids a quadratic nested loop in the
    /// in-memory executor).
    pub fn joined_relation(&self, name: &str) -> Relation {
        let halves = [
            ("X_", &self.x_attrs, &self.x_rows),
            ("Y_", &self.y_attrs, &self.y_rows),
        ];
        self.materialize(name, &halves)
    }

    /// One relation named `name`: the `id` column, then per half its
    /// attributes (column names prefixed) with the half's cells of each
    /// pattern row.
    fn materialize(&self, name: &str, halves: &[(&str, &Vec<String>, &Vec<IdRow>)]) -> Relation {
        let mut builder = Schema::builder(name).text("id");
        for (prefix, attrs, _) in halves {
            for a in attrs.iter() {
                builder = builder.text(format!("{prefix}{a}"));
            }
        }
        let mut rel = Relation::with_capacity(builder.build(), self.len());
        for (i, (id, _)) in self.x_rows.iter().enumerate() {
            let mut values = vec![Value::from(id.to_string())];
            for (_, _, rows) in halves {
                values.extend(rows[i].1.iter().map(PatternValue::to_value));
            }
            rel.push(Tuple::new(values))
                // wslint: allow(panic_path, "the row is built attribute-by-attribute to this same schema above")
                .expect("merged row matches schema");
        }
        rel
    }

    /// Reconstructs the merged tableau as a single wide CFD over the data
    /// schema (the Fig. 6 view), useful for the semantic cross-checks: its
    /// satisfaction semantics with `@` as "attribute excluded for this row"
    /// coincides with the conjunction of the input CFDs.
    pub fn as_wide_cfd(&self, schema: &Schema) -> Result<Cfd> {
        let lhs = schema.resolve_all(self.x_attrs.iter().map(String::as_str))?;
        let rhs = schema.resolve_all(self.y_attrs.iter().map(String::as_str))?;
        let mut tableau = cfd_core::PatternTableau::new();
        for ((_, x_cells), (_, y_cells)) in self.x_rows.iter().zip(&self.y_rows) {
            tableau.push(cfd_core::PatternTuple::new(
                x_cells.clone(),
                y_cells.clone(),
            ));
        }
        Cfd::from_parts(schema.clone(), lhs, rhs, tableau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_datagen::cust::{cust_instance, cust_schema, phi2, phi3, phi3_with_fd, phi5};

    #[test]
    fn fig7_merge_of_phi3_and_phi5() {
        // ϕ3 = ([CC, AC] → [CT]) with 3 rows (incl. the FD row), ϕ5 = ([CT] → [AC]).
        let merged = MergedTableaux::build(&[phi3_with_fd(), phi5()]).unwrap();
        assert_eq!(merged.x_attrs(), &["CC", "AC", "CT"]);
        // First-appearance order: ϕ3's RHS (CT) precedes ϕ5's (AC).
        assert_eq!(merged.y_attrs(), &["CT", "AC"]);
        assert_eq!(merged.len(), 4);

        let tx = merged.x_relation("TX");
        assert_eq!(tx.schema().arity(), 4); // id + CC, AC, CT
                                            // The ϕ5 row has '@' on CC and AC in T^X_Σ (Fig. 7a, id 4).
        let cc = tx.schema().resolve("CC").unwrap();
        let ct = tx.schema().resolve("CT").unwrap();
        assert_eq!(tx.row(3).unwrap()[cc], Value::from("@"));
        assert_eq!(tx.row(3).unwrap()[ct], Value::from("_"));

        let ty = merged.y_relation("TY");
        assert_eq!(ty.schema().arity(), 3); // id + AC, CT
                                            // The ϕ3 constant rows have their city constants in T^Y_Σ and '@' on AC.
        let ac = ty.schema().resolve("AC").unwrap();
        let cty = ty.schema().resolve("CT").unwrap();
        assert_eq!(ty.row(0).unwrap()[ac], Value::from("@"));
        assert_eq!(ty.row(0).unwrap()[cty], Value::from("PHI"));
        assert_eq!(ty.row(1).unwrap()[cty], Value::from("GLA"));
    }

    #[test]
    fn joined_relation_prefixes_columns() {
        let merged = MergedTableaux::build(&[phi3(), phi5()]).unwrap();
        let joined = merged.joined_relation("TXY");
        assert_eq!(joined.len(), 3);
        assert!(joined.schema().resolve("X_CC").is_ok());
        assert!(joined.schema().resolve("Y_CT").is_ok());
        assert!(joined.schema().resolve("X_CT").is_ok());
        assert!(joined.schema().resolve("id").is_ok());
    }

    #[test]
    fn ids_link_x_and_y_halves() {
        let merged = MergedTableaux::build(&[phi2(), phi3()]).unwrap();
        let tx = merged.x_relation("TX");
        let ty = merged.y_relation("TY");
        assert_eq!(tx.len(), ty.len());
        let id_x = tx.schema().resolve("id").unwrap();
        let id_y = ty.schema().resolve("id").unwrap();
        for i in 0..tx.len() {
            assert_eq!(tx.row(i).unwrap()[id_x], ty.row(i).unwrap()[id_y]);
        }
    }

    #[test]
    fn wide_cfd_view_is_equivalent_to_the_conjunction() {
        let schema = cust_schema();
        let cfds = [phi2(), phi3_with_fd()];
        let merged = MergedTableaux::build(&cfds).unwrap();
        let wide = merged.as_wide_cfd(&schema).unwrap();

        // On Fig. 1 (violates ϕ2, satisfies ϕ3): the wide CFD must be violated.
        let rel = cust_instance();
        assert_eq!(
            wide.satisfied_by(&rel),
            cfds.iter().all(|c| c.satisfied_by(&rel)),
        );

        // On a clean single tuple it must be satisfied.
        let mut clean = Relation::new(schema);
        clean
            .push(Tuple::new(
                ["01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"]
                    .iter()
                    .map(|s| Value::from(*s))
                    .collect(),
            ))
            .unwrap();
        assert_eq!(
            wide.satisfied_by(&clean),
            cfds.iter().all(|c| c.satisfied_by(&clean)),
        );
    }

    #[test]
    fn build_rejects_empty_and_mixed_schemas() {
        assert!(matches!(
            MergedTableaux::build(&[]),
            Err(CfdError::EmptyTableau)
        ));
        let other_schema = Schema::builder("other").text("CT").text("AC").build();
        let other = Cfd::fd(other_schema, ["CT"], ["AC"]).unwrap();
        assert!(matches!(
            MergedTableaux::build(&[phi3(), other]),
            Err(CfdError::MixedSchemas { .. })
        ));
    }

    #[test]
    fn merged_tableau_size_is_sum_of_inputs() {
        let merged = MergedTableaux::build(&[phi2(), phi3(), phi5()]).unwrap();
        assert_eq!(merged.len(), 3 + 2 + 1);
        assert!(!merged.is_empty());
    }
}
