//! Atomic attribute values.
//!
//! The paper's data model only needs equality over attribute values (pattern
//! matching, FD/CFD semantics, GROUP BY). We additionally provide a total
//! order so values can be sorted and used as B-tree keys, and integers so the
//! tax-records workload (salary brackets, rates) can be expressed naturally.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// An atomic value stored in a relation cell.
///
/// `Null` is included for completeness (the SQL layer needs a placeholder for
/// missing cells) but CFD semantics in this workspace treat `Null` as an
/// ordinary constant that is only equal to itself, which matches how the
/// paper's detection queries behave on non-null data. The interner
/// ([`crate::interner`]) preserves this: `Null` has a dedicated dictionary id
/// equal only to itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// The SQL NULL / missing value.
    Null,
    /// Boolean constant. Booleans give attributes an intrinsically finite
    /// domain, which matters for the consistency analysis of Section 3.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Interned-free UTF-8 string.
    Str(String),
}

impl Value {
    /// Returns `true` iff the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as an integer when it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as a boolean when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value the way the SQL layer prints literals.
    pub fn render_sql(&self) -> Cow<'static, str> {
        match self {
            Value::Null => Cow::Borrowed("NULL"),
            Value::Bool(true) => Cow::Borrowed("TRUE"),
            Value::Bool(false) => Cow::Borrowed("FALSE"),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Str(s) => Cow::Owned(format!("'{}'", s.replace('\'', "''"))),
        }
    }

    /// A small integer tag giving each variant a rank; used for the cross-type
    /// total order below (NULL < Bool < Int < Str).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A borrowed [`Value`]: the same four cases, with a string cell as a
/// `&str` into text someone else owns. This is what a loader hands the
/// interner ([`crate::ValueId::of_ref`], [`crate::ValueId::intern_row`]),
/// so a cell whose value is already interned is looked up without building
/// a `Value` — a string is copied only the first time the process sees it.
///
/// Equality and hashing agree with [`Value`]'s: `ValueRef::from(&v)`
/// equals `ValueRef::from(&w)` exactly when `v == w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueRef<'a> {
    /// [`Value::Null`].
    Null,
    /// [`Value::Bool`].
    Bool(bool),
    /// [`Value::Int`].
    Int(i64),
    /// [`Value::Str`], borrowed.
    Str(&'a str),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Self {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_value() {
        assert_eq!(Value::from("NYC"), Value::Str("NYC".to_owned()));
        assert_ne!(Value::from("NYC"), Value::from("MH"));
        assert_eq!(Value::from(42), Value::Int(42));
        assert_ne!(Value::Int(42), Value::Str("42".into()));
    }

    #[test]
    fn null_equals_only_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::Str(String::new()));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn ordering_across_types_is_total() {
        let mut vals = [
            Value::from("x"),
            Value::Int(7),
            Value::Null,
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[3], Value::from("x"));
    }

    #[test]
    fn render_sql_escapes_quotes() {
        assert_eq!(Value::from("O'Hare").render_sql(), "'O''Hare'");
        assert_eq!(Value::Int(5).render_sql(), "5");
        assert_eq!(Value::Null.render_sql(), "NULL");
        assert_eq!(Value::Bool(true).render_sql(), "TRUE");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Int(3).as_str().is_none());
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::from("EDI").to_string(), "EDI");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
