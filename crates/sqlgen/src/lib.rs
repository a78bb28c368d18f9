//! # cfd-sql — Section 4's SQL detection path, complete
//!
//! The paper detects CFD violations with a pair of SQL queries (`QC`, `QV`)
//! evaluated by a commercial DBMS (DB2 in the original evaluation). This
//! crate is that technique end to end, kept as what it is: a **reproduction
//! artefact and differential oracle**, not a serving strategy (55–460×
//! behind the block scan of `cfd-detect` on every planner workload). Nothing
//! on the serving path depends on it; it depends on `cfd-detect` only for the
//! [`cfd_detect::Violations`] report its findings are folded into.
//!
//! The reproduction has no external database, so the lower half of the crate
//! implements the slice of SQL those queries need:
//!
//! * a typed [`ast`] for `SELECT`/`FROM`/`WHERE`/`GROUP BY`/`HAVING
//!   COUNT(DISTINCT …) > k` queries with `CASE` expressions,
//! * [`normal_form`] conversion of `WHERE` clauses to CNF or DNF — the
//!   evaluation-strategy knob studied in Figures 9(a)/9(b),
//! * an [`eval`]uator for scalar expressions over joined rows, and
//! * an [`exec`]utor that joins the data relation with (small) pattern
//!   tableaux, using hash-index probes for DNF disjuncts and full scans for
//!   CNF — mirroring why the paper found DNF markedly faster;
//!
//! and the upper half generates and runs the paper's queries on it:
//!
//! * [`single`] — `QC`/`QV` for one CFD (Fig. 5),
//! * [`merge`] — tableau merging with `@` and tuple ids into
//!   union-compatible `T^X_Σ` / `T^Y_Σ` ([`MergedTableaux`], Fig. 6/7),
//! * [`merged`] — the one merged query pair with `CASE` masking
//!   (Section 4.2.2) over either form of the merged tableaux,
//! * [`detector`] — the [`Detector`] that runs those queries (per-CFD,
//!   merged, or in the paper's three-table form;
//!   [`Detector::with_strategy`] is the Fig. 9(a)/(b) knob). The panels of
//!   Fig. 9 are pinned as counter shapes in `tests/fig9_shapes.rs`.
//!
//! ```
//! use cfd_datagen::cust::{cust_instance, phi2};
//! use cfd_sql::Detector;
//!
//! let violations = Detector::new().detect(&phi2(), &cust_instance()).unwrap();
//! // t1 and t2 of Fig. 1 violate the (01, 908, _ ‖ _, MH, _) pattern.
//! assert_eq!(violations.constant_violations().len(), 2);
//! ```
//!
//! The engine underneath is usable on its own:
//!
//! ```
//! use cfd_relation::{Relation, Schema, Value};
//! use cfd_sql::ast::{Expr, SelectItem, SelectQuery, TableRef};
//! use cfd_sql::{Catalog, Executor};
//!
//! let schema = Schema::builder("r").text("A").text("B").build();
//! let mut rel = Relation::new(schema);
//! rel.push_values(vec!["1".into(), "x".into()]).unwrap();
//! rel.push_values(vec!["2".into(), "y".into()]).unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.register(rel);
//!
//! let query = SelectQuery::new()
//!     .item(SelectItem::wildcard("t"))
//!     .from(TableRef::aliased("r", "t"))
//!     .filter(Expr::col("t", "A").eq(Expr::lit(Value::from("2"))));
//! let result = Executor::new(&catalog).run(&query).unwrap();
//! assert_eq!(result.rows().len(), 1);
//! ```

pub mod ast;
pub mod catalog;
pub mod compiled;
pub mod detector;
pub mod error;
pub mod eval;
pub mod exec;
pub mod merge;
pub mod merged;
pub mod normal_form;
pub mod single;

pub use ast::{Expr, Having, SelectItem, SelectQuery, TableRef};
pub use catalog::Catalog;
pub use compiled::CompiledExpr;
pub use detector::{DetectStats, Detector};
pub use error::{Result, SqlError};
pub use exec::{ExecStats, Executor, PreparedQuery, ResultSet, Strategy};
pub use merge::MergedTableaux;
pub use normal_form::{to_cnf, to_dnf, NormalForm};
