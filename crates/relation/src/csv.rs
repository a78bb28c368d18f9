//! Minimal CSV-style import/export for relation instances.
//!
//! The evaluation workload is generated in-process, but being able to dump a
//! generated instance (or a violation report) to a text file and load it back
//! is convenient for debugging and for sharing reproducible inputs. The format
//! is deliberately simple: one header line with attribute names, comma
//! separation, double-quote quoting, and typed parsing driven by the schema.
//!
//! Loading is one byte-level pass over the text. A cell is handed to the
//! interner as a [`ValueRef`] borrowing the input — only a cell whose
//! quotes must be unescaped is copied, into a buffer reused across records
//! — and each record is interned as one batch ([`ValueId::intern_row`]), so
//! a load whose values the process already holds allocates nothing per
//! cell or per record.

use crate::domain::AttrType;
use crate::error::{RelationError, Result};
use crate::interner::ValueId;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use std::fmt::Write as _;

/// Serializes the relation as CSV text (header + one line per row).
///
/// The text is measured first and written into one allocation of exactly
/// that size.
pub fn to_csv(rel: &Relation) -> String {
    let names: Vec<&str> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    // Commas plus the line break: `arity` bytes per line (one for arity 0).
    let breaks = names.len().max(1);
    let header = names.iter().map(|n| n.len()).sum::<usize>() + breaks;
    let cells: usize = rel
        .iter()
        .map(|(_, row)| row.values().map(rendered_len).sum::<usize>() + breaks)
        .sum();
    let mut out = String::with_capacity(header + cells);
    write_line(&mut out, names.iter().copied(), |out, name| {
        out.push_str(name)
    });
    for (_, row) in rel.iter() {
        write_line(&mut out, row.values(), render_cell);
    }
    out
}

/// Appends `items` to `out` as one comma-separated line.
fn write_line<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut render: impl FnMut(&mut String, T),
) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(out, item);
    }
    out.push('\n');
}

/// Parses CSV text into an instance of `schema`.
///
/// The header must list exactly the schema's attribute names in order (a
/// leading UTF-8 byte-order mark is skipped); every cell is parsed
/// according to the attribute's primitive type. Records are split
/// quote-aware, so quoted fields may contain delimiters *and* newlines.
/// An empty unquoted cell is NULL; a quoted empty cell (`""`) is the empty
/// string — the distinction [`to_csv`] relies on for round-trip stability.
///
/// Cells stream straight into the relation's columns (interned a record at
/// a time — no intermediate [`crate::Tuple`] per record), and arity/type
/// errors report both the record and the offending column.
pub fn from_csv(schema: &Schema, text: &str) -> Result<Relation> {
    // Spreadsheet exports commonly open with a byte-order mark; it is not
    // part of the first attribute name.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let arity = schema.arity();
    let mut records = Records { text, pos: 0 };
    let mut cells: Vec<Cell> = Vec::with_capacity(arity);
    let mut scratch = String::new();
    if records.next(&mut cells, &mut scratch).is_none() {
        return Err(RelationError::Parse("empty input".into()));
    }
    let header: Vec<&str> = cells.iter().map(|c| c.text(text, &scratch)).collect();
    let expected: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    if header != expected {
        return Err(RelationError::Parse(format!(
            "header {:?} does not match schema attributes {:?}",
            header, expected
        )));
    }

    let types: Vec<AttrType> = schema
        .attributes()
        .iter()
        .map(|a| a.domain.attr_type())
        .collect();
    let mut rel = Relation::new(schema.clone());
    let mut ids: Vec<ValueId> = Vec::with_capacity(arity);
    // The typed cells of one record borrow that record's unescape buffer;
    // the allocation is handed back, emptied, after every record.
    let mut spare: Vec<ValueRef<'static>> = Vec::with_capacity(arity);
    let mut record_no = 1; // 1-based, counting the header
    while let Some(line) = records.next(&mut cells, &mut scratch) {
        record_no += 1;
        // Blank lines are separators in multi-column files — but a
        // single-column relation legitimately serializes a NULL row as an
        // empty record, so those must parse as data.
        if line.trim().is_empty() && arity > 1 {
            continue;
        }
        if cells.len() != arity {
            let detail = if cells.len() < arity {
                format!(
                    "missing column {} (`{}`)",
                    cells.len() + 1,
                    schema.attributes()[cells.len()].name
                )
            } else {
                format!("unexpected extra cell at column {}", arity + 1)
            };
            return Err(RelationError::Parse(format!(
                "record {} has {} cells, expected {}: {}",
                record_no,
                cells.len(),
                arity,
                detail
            )));
        }
        let mut row = recycle(std::mem::take(&mut spare));
        for (col, (cell, &ty)) in cells.iter().zip(&types).enumerate() {
            let value = parse_cell(ty, cell.text(text, &scratch), cell.quoted).map_err(|msg| {
                RelationError::Parse(format!(
                    "record {}, column {} (`{}`): {}",
                    record_no,
                    col + 1,
                    schema.attributes()[col].name,
                    msg
                ))
            })?;
            row.push(value);
        }
        ids.clear();
        ValueId::intern_row(&row, &mut ids);
        rel.push_ids(&ids)?;
        spare = recycle(row);
    }
    Ok(rel)
}

/// Empties `row` and returns its allocation typed for another borrow (an
/// in-place collect: the element layout is the same).
fn recycle<'b>(mut row: Vec<ValueRef<'_>>) -> Vec<ValueRef<'b>> {
    row.clear();
    row.into_iter().map(|_| ValueRef::Null).collect()
}

/// One cell of a record: a byte range of the input — or, when its quotes
/// had to be unescaped, of the record's unescape buffer — and whether any
/// part of it was quoted (NULL vs empty-string disambiguation).
#[derive(Debug, Clone, Copy)]
struct Cell {
    start: usize,
    end: usize,
    unescaped: bool,
    quoted: bool,
}

impl Cell {
    fn text<'a>(&self, input: &'a str, scratch: &'a str) -> &'a str {
        let source = if self.unescaped { scratch } else { input };
        &source[self.start..self.end]
    }
}

/// A cursor over CSV text, one record per [`Records::next`].
///
/// Records end at a newline *outside* quoted fields; a `"` opens quotes
/// anywhere in a cell, and inside quotes `""` is a literal quote and a
/// lone `"` closes them. A `\r` right before a record's line break (or the
/// end of the input) is dropped, so `\r\n` files parse too.
struct Records<'t> {
    text: &'t str,
    pos: usize,
}

impl<'t> Records<'t> {
    /// Reads the next record's cells into `cells` (unescaped text into
    /// `scratch`, both emptied first) and returns the record's raw text up
    /// to its line break, or `None` at the end of the input.
    fn next(&mut self, cells: &mut Vec<Cell>, scratch: &mut String) -> Option<&'t str> {
        let len = self.text.len();
        if self.pos >= len {
            return None;
        }
        cells.clear();
        scratch.clear();
        let start = self.pos;
        let mut at = start;
        loop {
            let (cell, end) = self.cell(at, scratch);
            cells.push(cell);
            if self.text.as_bytes().get(end) == Some(&b',') {
                at = end + 1;
                continue;
            }
            // A line break or the end of the input closes the record.
            self.pos = (end + 1).min(len);
            return Some(&self.text[start..end]);
        }
    }

    /// Reads the cell starting at `at`: returns it and the position of
    /// what ends it — a `,` or newline outside quotes, or the end of the
    /// input. Plain cells and cells that are one quoted run are borrowed;
    /// anything else is unescaped.
    fn cell(&self, at: usize, scratch: &mut String) -> (Cell, usize) {
        let bytes = self.text.as_bytes();
        let borrowed = |start, end, quoted| Cell {
            start,
            end,
            unescaped: false,
            quoted,
        };
        if bytes.get(at) == Some(&b'"') {
            // `"…"` without an inner quote, closed right before the end of
            // the cell (a `\r` there belongs to the line break).
            if let Some(close) = self.text[at + 1..].find('"').map(|i| at + 1 + i) {
                let mut after = close + 1;
                if bytes.get(after) == Some(&b'\r') && self.ends_line(after + 1) {
                    after += 1;
                }
                if matches!(bytes.get(after), None | Some(b',' | b'\n')) {
                    return (borrowed(at + 1, close, true), after);
                }
            }
        } else {
            let stop = bytes[at..]
                .iter()
                .position(|&b| matches!(b, b',' | b'\n' | b'"'))
                .map_or(bytes.len(), |i| at + i);
            if bytes.get(stop) != Some(&b'"') {
                let end = if stop > at && bytes[stop - 1] == b'\r' && self.ends_line(stop) {
                    stop - 1
                } else {
                    stop
                };
                return (borrowed(at, end, false), stop);
            }
        }
        self.unescape(at, scratch)
    }

    /// Whether position `i` is a line break or the end of the input — the
    /// places where a preceding `\r` belongs to the line break.
    fn ends_line(&self, i: usize) -> bool {
        matches!(self.text.as_bytes().get(i), None | Some(b'\n'))
    }

    /// The general form of [`Records::cell`], for a cell holding a `"`:
    /// quotes may open and close anywhere in it; its text is copied into
    /// `scratch`.
    fn unescape(&self, at: usize, scratch: &mut String) -> (Cell, usize) {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let start = scratch.len();
        // `run` is where the text not yet copied begins.
        let (mut i, mut run) = (at, at);
        let mut in_quotes = false;
        let end = loop {
            match bytes.get(i) {
                None => break i,
                Some(b'"') => {
                    scratch.push_str(&text[run..i]);
                    if in_quotes && bytes.get(i + 1) == Some(&b'"') {
                        scratch.push('"');
                        i += 2;
                    } else {
                        in_quotes = !in_quotes;
                        i += 1;
                    }
                    run = i;
                }
                Some(b',' | b'\n') if !in_quotes => break i,
                Some(_) => i += 1,
            }
        };
        scratch.push_str(&text[run..end]);
        // The cell holds a `"`, so `end > at` and its last byte was copied.
        if bytes[end - 1] == b'\r' && self.ends_line(end) {
            scratch.pop();
        }
        let cell = Cell {
            start,
            end: scratch.len(),
            unescaped: true,
            quoted: true,
        };
        (cell, end)
    }
}

/// Whether a string cell must be quoted to read back as itself.
fn needs_quotes(s: &str) -> bool {
    s.contains([',', '"', '\n', '\r'])
}

fn render_cell(out: &mut String, v: &Value) {
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{i}");
        }
        // Distinguishes the empty string from NULL (empty unquoted).
        Value::Str(s) if s.is_empty() => out.push_str("\"\""),
        Value::Str(s) if needs_quotes(s) => {
            out.push('"');
            for (i, part) in s.split('"').enumerate() {
                if i > 0 {
                    out.push_str("\"\"");
                }
                out.push_str(part);
            }
            out.push('"');
        }
        Value::Str(s) => out.push_str(s),
    }
}

/// The number of bytes [`render_cell`] writes for `v`.
fn rendered_len(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(b) => {
            if *b {
                4
            } else {
                5
            }
        }
        Value::Int(i) => {
            let digits = i
                .unsigned_abs()
                .checked_ilog10()
                .map_or(1, |d| d as usize + 1);
            digits + usize::from(*i < 0)
        }
        Value::Str(s) if s.is_empty() => 2,
        Value::Str(s) if needs_quotes(s) => s.len() + s.matches('"').count() + 2,
        Value::Str(s) => s.len(),
    }
}

/// Parses one cell as a value of type `ty`; the error is the message the
/// caller places at its record and column.
fn parse_cell(ty: AttrType, cell: &str, quoted: bool) -> std::result::Result<ValueRef<'_>, String> {
    if cell.is_empty() && !quoted {
        return Ok(ValueRef::Null);
    }
    match ty {
        AttrType::Text => Ok(ValueRef::Str(cell)),
        AttrType::Integer => cell
            .parse::<i64>()
            .map(ValueRef::Int)
            .map_err(|_| format!("`{cell}` is not an integer")),
        AttrType::Boolean => match cell {
            "true" | "TRUE" | "1" => Ok(ValueRef::Bool(true)),
            "false" | "FALSE" | "0" => Ok(ValueRef::Bool(false)),
            _ => Err(format!("`{cell}` is not a boolean")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::tuple::Tuple;

    fn schema() -> Schema {
        Schema::builder("t").text("NAME").integer("SA").build()
    }

    #[test]
    fn round_trip_simple_relation() {
        let mut rel = Relation::new(schema());
        rel.push(Tuple::new(vec![Value::from("ann"), Value::Int(100)]))
            .unwrap();
        rel.push(Tuple::new(vec![Value::from("bob, jr."), Value::Int(200)]))
            .unwrap();
        let text = to_csv(&rel);
        let back = from_csv(&schema(), &text).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn quotes_are_escaped_and_restored() {
        let mut rel = Relation::new(schema());
        rel.push(Tuple::new(vec![Value::from("say \"hi\""), Value::Int(1)]))
            .unwrap();
        let back = from_csv(&schema(), &to_csv(&rel)).unwrap();
        assert_eq!(back.row(0).unwrap()[AttrId(0)], Value::from("say \"hi\""));
    }

    #[test]
    fn empty_cell_parses_as_null() {
        let text = "NAME,SA\nann,\n";
        let rel = from_csv(&schema(), text).unwrap();
        assert_eq!(rel.row(0).unwrap()[AttrId(1)], Value::Null);
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let text = "NAME,SALARY\nann,1\n";
        assert!(from_csv(&schema(), text).is_err());
    }

    #[test]
    fn bad_integer_is_an_error() {
        let text = "NAME,SA\nann,notanumber\n";
        assert!(from_csv(&schema(), text).is_err());
    }

    #[test]
    fn type_errors_report_record_and_column() {
        // Second data record (record 3 counting the header), second column.
        let text = "NAME,SA\nann,1\nbob,notanumber\n";
        let err = from_csv(&schema(), text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("record 3, column 2 (`SA`)"),
            "message must pinpoint record and column, got: {msg}"
        );
        assert!(msg.contains("`notanumber` is not an integer"), "{msg}");
    }

    #[test]
    fn wrong_cell_count_is_an_error() {
        let text = "NAME,SA\nann\n";
        assert!(from_csv(&schema(), text).is_err());
    }

    #[test]
    fn arity_errors_report_record_and_column() {
        // Too few cells: names the first missing column.
        let err = from_csv(&schema(), "NAME,SA\nann,1\nbob\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 3 has 1 cells, expected 2"), "{msg}");
        assert!(msg.contains("missing column 2 (`SA`)"), "{msg}");
        // Too many cells: points at the first surplus column.
        let err = from_csv(&schema(), "NAME,SA\nann,1,EXTRA\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 2 has 3 cells, expected 2"), "{msg}");
        assert!(msg.contains("unexpected extra cell at column 3"), "{msg}");
        // A failed record must not leave partial columns behind (the loader
        // appends a record only after every cell parsed).
        let err = from_csv(&schema(), "NAME,SA\nann,oops\n").unwrap_err();
        assert!(err.to_string().contains("record 2, column 2"));
    }

    #[test]
    fn boolean_parsing() {
        let schema = Schema::builder("t").attr("CH", AttrType::Boolean).build();
        let rel = from_csv(&schema, "CH\ntrue\n0\n").unwrap();
        assert_eq!(rel.row(0).unwrap()[AttrId(0)], Value::Bool(true));
        assert_eq!(rel.row(1).unwrap()[AttrId(0)], Value::Bool(false));
        assert!(from_csv(&schema, "CH\nmaybe\n").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "NAME,SA\nann,1\n\nbob,2\n";
        let rel = from_csv(&schema(), text).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn quoted_field_with_delimiters_and_newlines_round_trips() {
        let mut rel = Relation::new(schema());
        rel.push(Tuple::new(vec![
            Value::from("line one\nline two, with comma"),
            Value::Int(7),
        ]))
        .unwrap();
        rel.push(Tuple::new(vec![
            Value::from("a \"quoted\"\ncomma, too"),
            Value::Int(8),
        ]))
        .unwrap();
        let text = to_csv(&rel);
        // The embedded newlines must not introduce extra records.
        let back = from_csv(&schema(), &text).unwrap();
        assert_eq!(back, rel);
        assert_eq!(
            back.row(0).unwrap()[AttrId(0)],
            Value::from("line one\nline two, with comma")
        );
    }

    #[test]
    fn quoted_newline_is_not_a_record_break() {
        let text = "NAME,SA\n\"ann\nsmith\",3\nbob,4\n";
        let rel = from_csv(&schema(), text).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(0).unwrap()[AttrId(0)], Value::from("ann\nsmith"));
        assert_eq!(rel.row(1).unwrap()[AttrId(0)], Value::from("bob"));
    }

    #[test]
    fn crlf_records_parse() {
        let text = "NAME,SA\r\nann,1\r\nbob,2\r\n";
        let rel = from_csv(&schema(), text).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(1).unwrap()[AttrId(0)], Value::from("bob"));
        // Same file without the final newline: the last record must not
        // keep its '\r' (it would corrupt the cell / fail integer parsing).
        let rel = from_csv(&schema(), "NAME,SA\r\nann,1\r\nbob,2\r").unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(1).unwrap()[AttrId(1)], Value::Int(2));
    }

    #[test]
    fn empty_trailing_column_is_null_and_round_trips() {
        let s = Schema::builder("t").text("A").text("B").text("C").build();
        let text = "A,B,C\nx,y,\n";
        let rel = from_csv(&s, text).unwrap();
        assert_eq!(rel.row(0).unwrap()[AttrId(2)], Value::Null);
        let back = from_csv(&s, &to_csv(&rel)).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn quoted_empty_in_a_typed_column_is_an_error_not_null() {
        // `""` means the empty *string*, never NULL — in an integer column
        // that is a parse error, not a missing value. Use an unquoted empty
        // cell for NULL.
        assert!(from_csv(&schema(), "NAME,SA\nann,\"\"\n").is_err());
        let ok = from_csv(&schema(), "NAME,SA\nann,\n").unwrap();
        assert_eq!(ok.row(0).unwrap()[AttrId(1)], Value::Null);
    }

    #[test]
    fn quoted_empty_is_the_empty_string_not_null() {
        let s = Schema::builder("t").text("A").text("B").build();
        let mut rel = Relation::new(s.clone());
        rel.push(Tuple::new(vec![Value::from(""), Value::Null]))
            .unwrap();
        let text = to_csv(&rel);
        assert_eq!(text, "A,B\n\"\",\n");
        let back = from_csv(&s, &text).unwrap();
        assert_eq!(back.row(0).unwrap()[AttrId(0)], Value::from(""));
        assert_eq!(back.row(0).unwrap()[AttrId(1)], Value::Null);
        assert_eq!(back, rel);
    }

    #[test]
    fn single_column_null_rows_round_trip() {
        // A one-attribute relation serializes a NULL row as an empty record;
        // it must come back as a row, not be skipped as a blank separator.
        let s = Schema::builder("t").text("A").build();
        let mut rel = Relation::new(s.clone());
        rel.push(Tuple::new(vec![Value::from("x")])).unwrap();
        rel.push(Tuple::new(vec![Value::Null])).unwrap();
        rel.push(Tuple::new(vec![Value::from("y")])).unwrap();
        let back = from_csv(&s, &to_csv(&rel)).unwrap();
        assert_eq!(back, rel);
        // Whitespace is data for a single text column, not a blank line.
        let ws = from_csv(&s, "A\n \n").unwrap();
        assert_eq!(ws.row(0).unwrap()[AttrId(0)], Value::from(" "));
        // Multi-column files keep treating blank lines as separators.
        let multi = from_csv(&schema(), "NAME,SA\nann,1\n\nbob,2\n").unwrap();
        assert_eq!(multi.len(), 2);
    }

    #[test]
    fn round_trip_is_stable_through_the_interner() {
        use crate::interner::ValueId;
        // Parsing the same text twice yields tuples with identical interned
        // cells, and a second round trip is byte-identical to the first.
        let text = "NAME,SA\n\"wei, jr.\",1\n\"multi\nline\",2\n,3\n";
        let a = from_csv(&schema(), text).unwrap();
        let b = from_csv(&schema(), text).unwrap();
        for ((_, ta), (_, tb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta.to_ids(), tb.to_ids(), "interned cells must coincide");
        }
        let once = to_csv(&a);
        let again = to_csv(&from_csv(&schema(), &once).unwrap());
        assert_eq!(once, again);
        // NULL keeps its fixed id through the round trip.
        assert_eq!(a.row(2).unwrap().id_at(AttrId(0)), ValueId::NULL);
    }

    #[test]
    fn a_leading_byte_order_mark_is_not_part_of_the_header() {
        let rel = from_csv(&schema(), "\u{feff}NAME,SA\nann,1\n").unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0).unwrap()[AttrId(0)], Value::from("ann"));
        // One mark, at the very start, is skipped; a second one is data.
        assert!(from_csv(&schema(), "\u{feff}\u{feff}NAME,SA\n").is_err());
    }

    #[test]
    fn to_csv_sizes_its_output_exactly() {
        let s = Schema::builder("t")
            .text("A")
            .integer("B")
            .attr("C", AttrType::Boolean)
            .build();
        let mut rel = Relation::new(s);
        for (a, b, c) in [
            (Value::from("plain"), Value::Int(0), Value::Bool(true)),
            (Value::from(""), Value::Int(-7), Value::Bool(false)),
            (
                Value::from("a,\"b\"\r\n"),
                Value::Int(i64::MIN),
                Value::Null,
            ),
            (Value::Null, Value::Int(i64::MAX), Value::Null),
            (Value::from("é \"\""), Value::Int(1_000), Value::Bool(true)),
        ] {
            rel.push(Tuple::new(vec![a, b, c])).unwrap();
        }
        let text = to_csv(&rel);
        assert_eq!(text.capacity(), text.len(), "one exact reservation");
        assert_eq!(from_csv(rel.schema(), &text).unwrap(), rel);
    }
}
