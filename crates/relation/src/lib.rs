//! Relational substrate for the CFD data-cleaning library.
//!
//! This crate provides the data model every other crate in the workspace builds
//! on: [`Value`]s and their global dictionary ids ([`ValueId`], see
//! [`interner`]), attribute [`Domain`]s, relation [`Schema`]s, in-memory
//! [`Relation`] instances and hash [`Index`]es over them. Equality on every
//! hot path is a `u32` compare; the `Value`-typed accessors resolve through
//! the interner at the API boundary.
//!
//! # Storage layer
//!
//! [`Relation`] is **columnar** (struct-of-arrays): one `Vec<ValueId>` column
//! per attribute plus a live-row count. Scans that only need a CFD's `X ∪ Y`
//! attributes walk just those contiguous columns ([`Relation::column`]),
//! instead of dragging every attribute of every row through cache, and no
//! per-row heap allocation exists anywhere in the store. Three row
//! representations cooperate:
//!
//! * **column slices** (`&[ValueId]`, via [`Relation::column`] /
//!   [`Relation::columns_for`]) — the tight-loop form used by grouping,
//!   indexing and the detectors;
//! * **[`RowRef`]** — a `Copy`, zero-copy view of one row that mirrors the
//!   tuple read API; it immutably borrows the relation, so the borrow
//!   checker guarantees no view survives a mutation (see [`row`] for the
//!   borrow rules);
//! * **[`Tuple`]** — the *owned* boundary type for builders, batch edits and
//!   serialization; [`RowRef::to_tuple`] materializes one on demand.
//!
//! All mutators are deterministic and order-preserving (append, ordered
//! retain/gather, in-place cell edits), which is the determinism contract the
//! detection engines' byte-identical-report guarantee rests on.
//!
//! The paper ("Conditional Functional Dependencies for Data Cleaning",
//! ICDE 2007) assumes a conventional relational store (DB2 in the original
//! evaluation). Because this reproduction is self-contained, the store is the
//! in-memory columnar relation above; the SQL layer that the paper's
//! detection queries run on lives in the `cfd-sql` crate.
//!
//! # Quick example
//!
//! ```
//! use cfd_relation::{Schema, AttrType, Relation, Value};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CC", AttrType::Text)
//!     .attr("AC", AttrType::Text)
//!     .attr("CT", AttrType::Text)
//!     .build();
//! let mut rel = Relation::new(schema);
//! rel.push_values(vec!["01".into(), "908".into(), Value::from("MH")]).unwrap();
//! assert_eq!(rel.len(), 1);
//! ```

pub mod builder;
pub mod csv;
pub mod domain;
pub mod error;
pub mod index;
pub mod interner;
pub mod placeholder;
pub mod relation;
pub mod row;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;
pub mod weights;

pub use builder::RelationBuilder;
pub use domain::{AttrType, Domain};
pub use error::{RelationError, Result};
pub use index::Index;
pub use interner::ValueId;
pub use relation::Relation;
pub use row::{project_attrs, project_cols, project_cols_into, RowRef};
pub use schema::{AttrId, Attribute, Schema, SchemaBuilder};
pub use stats::{ColumnStats, GroupStats, NdvSketch, RelationStats};
pub use tuple::Tuple;
pub use value::{Value, ValueRef};
pub use weights::TupleWeights;
