//! Property tests for the columnar storage layer (deterministic randomized,
//! offline — no proptest): a columnar [`Relation`] is driven through random
//! interleavings of `push` / `insert_row` / `remove_row` / `retain_rows` /
//! `set_value` edits while a `Vec<Tuple>` mirror replays the same ops with
//! plain vector operations. After every op the store must agree with the
//! mirror **cell for cell** through every read path: [`RowRef`] views,
//! [`Relation::column`] slices, owned round-trips (`to_tuple`/`to_tuples`),
//! projections, and the id-routed `group_by`/`project`/`active_domain`.
//! The CSV text form round-trips random relations cell id for cell id.

use cfd_datagen::rng::StdRng;
use cfd_relation::{csv, AttrId, AttrType, Relation, Schema, Tuple, Value};

fn schema() -> Schema {
    Schema::builder("r").text("A").text("B").text("C").build()
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..5) {
        0 => Value::Null,
        i => Value::from(["a", "b", "c", "d"][i - 1]),
    }
}

fn random_tuple(rng: &mut StdRng) -> Tuple {
    Tuple::new((0..3).map(|_| random_value(rng)).collect())
}

/// The full read-path comparison: views vs the owned mirror.
fn assert_store_matches_mirror(rel: &Relation, mirror: &[Tuple], what: &str) {
    assert_eq!(rel.len(), mirror.len(), "{what}: row count");
    assert_eq!(rel.to_tuples(), mirror, "{what}: to_tuples round-trip");
    let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
    for (i, (idx, view)) in rel.iter().enumerate() {
        assert_eq!(idx, i, "{what}: iter order");
        let owned = &mirror[i];
        // RowRef agrees cell-for-cell with the owned Tuple, via every
        // accessor the workspace uses.
        assert_eq!(view, *owned, "{what}: row {i} view == tuple");
        assert_eq!(view.to_tuple(), *owned, "{what}: row {i} round-trip");
        for &a in &attrs {
            assert_eq!(view.id_at(a), owned.id_at(a), "{what}: row {i} {a}");
            assert_eq!(
                rel.column(a)[i],
                owned.id_at(a),
                "{what}: row {i} column slice {a}"
            );
            assert_eq!(view[a], owned[a], "{what}: row {i} Index {a}");
        }
        assert_eq!(
            view.project_ids(&attrs),
            owned.project_ids(&attrs),
            "{what}: row {i} projection"
        );
        assert_eq!(
            view.to_values(),
            owned.to_values(),
            "{what}: row {i} values"
        );
    }
}

/// Mirror-based reference for `group_by`.
fn mirror_group_by(
    mirror: &[Tuple],
    ids: &[AttrId],
) -> std::collections::HashMap<Vec<Value>, Vec<usize>> {
    let mut groups: std::collections::HashMap<Vec<Value>, Vec<usize>> = Default::default();
    for (i, t) in mirror.iter().enumerate() {
        groups.entry(t.project(ids)).or_default().push(i);
    }
    groups
}

#[test]
fn random_edit_interleavings_agree_with_a_tuple_mirror() {
    let mut rng = StdRng::seed_from_u64(0xC01_u64);
    for case in 0..24 {
        let mut rel = Relation::new(schema());
        let mut mirror: Vec<Tuple> = Vec::new();
        for step in 0..rng.gen_range(10usize..40) {
            let what = format!("case {case}, step {step}");
            match rng.gen_range(0usize..6) {
                // push
                0 | 1 => {
                    let t = random_tuple(&mut rng);
                    rel.push(t.clone()).unwrap();
                    mirror.push(t);
                }
                // insert at a random position (append position included)
                2 => {
                    let t = random_tuple(&mut rng);
                    let at = rng.gen_range(0..mirror.len() + 1);
                    rel.insert_row(at, t.clone()).unwrap();
                    mirror.insert(at, t);
                }
                // remove a random row
                3 => {
                    if mirror.is_empty() {
                        assert!(rel.remove_row(0).is_none());
                    } else {
                        let at = rng.gen_range(0..mirror.len());
                        let removed = rel.remove_row(at).unwrap();
                        assert_eq!(removed, mirror.remove(at), "{what}: removed row");
                    }
                }
                // retain a random subset (keep order)
                4 => {
                    let keep: Vec<usize> =
                        (0..mirror.len()).filter(|_| rng.gen_bool(0.7)).collect();
                    rel.retain_rows(&keep);
                    mirror = keep.iter().map(|&i| mirror[i].clone()).collect();
                }
                // edit one cell in place
                _ => {
                    if !mirror.is_empty() {
                        let row = rng.gen_range(0..mirror.len());
                        let attr = AttrId(rng.gen_range(0usize..3));
                        let v = random_value(&mut rng);
                        assert!(rel.set_value(row, attr, v.clone()));
                        mirror[row].set(attr, v);
                    }
                }
            }
            assert_store_matches_mirror(&rel, &mirror, &what);
        }

        // Derived queries agree with the mirror as well.
        let ids = [AttrId(0), AttrId(2)];
        let groups = rel.group_by(&ids);
        assert_eq!(
            groups,
            mirror_group_by(&mirror, &ids),
            "case {case} group_by"
        );
        let projected: Vec<Vec<Value>> = mirror.iter().map(|t| t.project(&ids)).collect();
        assert_eq!(rel.project(&ids), projected, "case {case} project");
        let mut domain: Vec<Value> = mirror
            .iter()
            .map(|t| t[AttrId(1)].clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        domain.sort();
        assert_eq!(rel.active_domain(AttrId(1)), domain, "case {case} domain");

        // gather_rows round-trips an arbitrary selection.
        let pick: Vec<usize> = (0..mirror.len()).filter(|_| rng.gen_bool(0.5)).collect();
        let gathered = rel.gather_rows(&pick);
        let expected: Vec<Tuple> = pick.iter().map(|&i| mirror[i].clone()).collect();
        assert_eq!(gathered.to_tuples(), expected, "case {case} gather");
    }
}

/// A random text cell: NULL, or up to four pieces drawn from everything the
/// CSV writer must quote or keep apart — delimiters, quotes, line breaks,
/// `""` versus NULL, whitespace-only text, non-ASCII text and digits.
fn random_text(rng: &mut StdRng) -> Value {
    const PIECES: [&str; 18] = [
        "",
        " ",
        "\t",
        ",",
        "\"",
        "\"\"",
        "\n",
        "\r",
        "\r\n",
        "a",
        "NULL",
        "42",
        "-7",
        "é",
        "日本",
        "x,y",
        "say \"hi\"",
        "  ",
    ];
    if rng.gen_bool(0.15) {
        return Value::Null;
    }
    let pieces = rng.gen_range(0usize..5);
    Value::from(
        (0..pieces)
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect::<String>(),
    )
}

#[test]
fn csv_round_trips_random_relations_cell_id_for_cell_id() {
    let schema = Schema::builder("csv")
        .text("T")
        .integer("I")
        .attr("B", AttrType::Boolean)
        .text("U")
        .build();
    let single = Schema::builder("one").text("T").build();
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut rel = Relation::new(schema.clone());
        let mut one = Relation::new(single.clone());
        for _ in 0..rng.gen_range(0usize..30) {
            let int = match rng.gen_range(0usize..4) {
                0 => Value::Null,
                1 => Value::Int(i64::MIN),
                _ => Value::Int((rng.next_u64() as i64) >> rng.gen_range(0u32..64)),
            };
            let boolean =
                [Value::Null, Value::Bool(true), Value::Bool(false)][rng.gen_range(0..3)].clone();
            let row = vec![random_text(&mut rng), int, boolean, random_text(&mut rng)];
            rel.push_values(row).unwrap();
            one.push_values(vec![random_text(&mut rng)]).unwrap();
        }
        for rel in [&rel, &one] {
            let text = csv::to_csv(rel);
            let back = csv::from_csv(rel.schema(), &text)
                .unwrap_or_else(|e| panic!("case {case}: {e} reading {text:?}"));
            assert_eq!(back.len(), rel.len(), "case {case}: {text:?}");
            for ((_, a), (_, b)) in rel.iter().zip(back.iter()) {
                assert_eq!(a.to_ids(), b.to_ids(), "case {case}: {text:?}");
            }
            assert_eq!(csv::to_csv(&back), text, "case {case}");
        }
    }
}
