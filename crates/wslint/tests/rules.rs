//! Self-tests: the lexer's edge cases and every rule firing on a
//! deliberately-violating fixture snippet (the acceptance criterion for
//! trusting a green lint run). All fixtures live inside string literals, so
//! this file never trips the linter it tests.

use wslint::lexer::{lex, TokenKind};
use wslint::rules::{lint_source, FileFindings, MALFORMED_ALLOW, RULES};

fn idents(src: &str) -> Vec<&str> {
    lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

// ---------------------------------------------------------------------------
// Lexer edge cases
// ---------------------------------------------------------------------------

#[test]
fn raw_strings_with_fences_leak_no_tokens() {
    let src = r####"let x = r#".unwrap() inside "quotes" stays text"#; let y = r##"nested "# fence"##;"####;
    let ids = idents(src);
    assert_eq!(ids, vec!["let", "x", "let", "y"]);
    let kinds: Vec<TokenKind> = lex(src).into_iter().map(|t| t.kind).collect();
    assert_eq!(
        kinds.iter().filter(|k| **k == TokenKind::RawStrLit).count(),
        2
    );
}

#[test]
fn byte_and_raw_byte_strings_are_literals_not_idents() {
    let src = r###"let a = b"bytes.unwrap()"; let c = br#"raw bytes"#; let d = b'x';"###;
    assert_eq!(idents(src), vec!["let", "a", "let", "c", "let", "d"]);
}

#[test]
fn nested_block_comments_close_correctly() {
    let src = "before /* outer /* inner */ still comment */ after";
    assert_eq!(idents(src), vec!["before", "after"]);
    let toks = lex(src);
    let block = toks
        .iter()
        .find(|t| t.kind == TokenKind::BlockComment)
        .expect("one block comment");
    assert!(block.text.contains("inner"));
    assert!(block.text.ends_with("*/"));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'q'; let n = '\\n'; x }";
    let toks = lex(src);
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text)
        .collect();
    let chars: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::CharLit)
        .map(|t| t.text)
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
    assert_eq!(chars, vec!["'q'", "'\\n'"]);
}

#[test]
fn line_comment_markers_inside_strings_do_not_comment() {
    let src = "let url = \"https://example.com\"; let live = after;";
    // `example`/`com` must NOT appear (string), `after` must (still code).
    let ids = idents(src);
    assert!(ids.contains(&"after"));
    assert!(!ids.contains(&"example"));
    assert!(lex(src).iter().all(|t| t.kind != TokenKind::LineComment));
}

#[test]
fn doc_comments_are_comments() {
    let src = "/// example: x.unwrap()\n//! also doc\nfn real() {}";
    let ids = idents(src);
    assert_eq!(ids, vec!["fn", "real"]);
}

// ---------------------------------------------------------------------------
// Rule fixtures: each rule fires on a violating snippet
// ---------------------------------------------------------------------------

fn lint(path: &str, src: &str) -> FileFindings {
    lint_source(path, src, false)
}

fn rules_fired(f: &FileFindings) -> Vec<&str> {
    f.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn poison_unwrap_fires_and_respects_sanctioned_modules() {
    let bad = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }";
    let f = lint("crates/datagen/src/x.rs", bad);
    assert_eq!(rules_fired(&f), vec!["poison_unwrap"]);

    // Same code in a sanctioned poison-recovery module: no poison_unwrap
    // (the unwrap still trips panic_path there — relation is a guarded
    // crate — but that is the other rule's verdict).
    let f = lint("crates/relation/src/interner.rs", bad);
    assert!(!rules_fired(&f).contains(&"poison_unwrap"));

    // read()/write() immediately expected also fire.
    let f = lint(
        "crates/datagen/src/x.rs",
        "fn g(l: &RwLock<u32>) { l.read().expect(\"x\"); l.write().unwrap(); }",
    );
    assert_eq!(rules_fired(&f), vec!["poison_unwrap", "poison_unwrap"]);

    // io::Read::read(&mut buf) takes an argument: never flagged.
    let f = lint(
        "crates/datagen/src/x.rs",
        "fn h(s: &mut TcpStream, b: &mut [u8]) { s.read(b).unwrap(); }",
    );
    assert!(rules_fired(&f).is_empty());
}

#[test]
fn hash_iteration_fires_in_scoped_modules_only() {
    let bad = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in m.iter() { use_it(k, v); } }";
    let f = lint("crates/repair/src/x.rs", bad);
    assert_eq!(rules_fired(&f), vec!["hash_iteration"]);

    // Out of scope (ordering cannot reach canonical bytes): clean.
    let f = lint("crates/discovery/src/x.rs", bad);
    assert!(rules_fired(&f).is_empty());

    // A visible sort within the window canonicalizes the order: clean.
    let sorted = "fn f(m: HashMap<u32, u32>) -> Vec<u32> {\n    let mut v: Vec<u32> = m.into_keys().collect();\n    v.sort_unstable();\n    v\n}";
    let f = lint("crates/detect/src/planner.rs", sorted);
    assert!(rules_fired(&f).is_empty(), "sorted iteration must pass");

    // `for … in &set {` with no sort fires too.
    let f = lint(
        "crates/repair/src/x.rs",
        "fn f(s: HashSet<u32>) { for x in &s { emit(x); } }",
    );
    assert_eq!(rules_fired(&f), vec!["hash_iteration"]);
}

#[test]
fn panic_path_fires_in_request_crates_and_skips_tests() {
    let f = lint(
        "crates/serve/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
    );
    assert_eq!(rules_fired(&f), vec!["panic_path"]);

    for mac in [
        "panic!(\"boom\")",
        "unreachable!()",
        "todo!()",
        "unimplemented!()",
    ] {
        let src = format!("fn f() {{ {mac}; }}");
        let f = lint("crates/sqlgen/src/x.rs", &src);
        assert_eq!(rules_fired(&f), vec!["panic_path"], "macro {mac}");
    }

    // The root facade and `cfd-core` are guarded like the crates they
    // front and feed.
    for path in ["src/x.rs", "crates/core/src/x.rs"] {
        let f = lint(path, "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(rules_fired(&f), vec!["panic_path"], "{path}");
    }

    // Outside the guarded crates: not this rule's business.
    let f = lint(
        "crates/datagen/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
    );
    assert!(rules_fired(&f).is_empty());

    // #[cfg(test)] code inside a guarded crate: exempt.
    let src =
        "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}";
    let f = lint("crates/detect/src/x.rs", src);
    assert!(
        rules_fired(&f).is_empty(),
        "cfg(test) module must be exempt"
    );

    // …but #[cfg(not(test))] is NOT a test gate.
    let src = "#[cfg(not(test))]\nmod prod {\n    fn f() { Some(1).unwrap(); }\n}";
    let f = lint("crates/detect/src/x.rs", src);
    assert_eq!(rules_fired(&f), vec!["panic_path"]);

    // A whole test file (tests/ tree) is exempt wholesale.
    let f = lint_source(
        "crates/serve/tests/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        true,
    );
    assert!(f.violations.is_empty());
}

#[test]
fn thread_spawn_fires_outside_the_pool() {
    let bad = "fn f() { std::thread::spawn(|| work()); }";
    let f = lint("crates/repair/src/x.rs", bad);
    assert_eq!(rules_fired(&f), vec!["thread_spawn"]);

    let builder = "fn f() { thread::Builder::new().spawn(|| work()); }";
    let f = lint("crates/detect/src/x.rs", builder);
    assert_eq!(rules_fired(&f), vec!["thread_spawn"]);

    // The sanctioned pool module: clean.
    let f = lint("crates/serve/src/pool.rs", bad);
    assert!(rules_fired(&f).is_empty());

    // thread::scope is the structured form: clean anywhere.
    let f = lint(
        "crates/repair/src/x.rs",
        "fn f() { std::thread::scope(|s| { s.spawn(|| work()); }); }",
    );
    assert!(rules_fired(&f).is_empty());
}

#[test]
fn parallelism_source_fires_everywhere_but_the_wrapper() {
    let bad =
        "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
    let f = lint("crates/repair/src/x.rs", bad);
    // Fires alongside panic-free scoping rules if any — filter to it.
    assert!(
        rules_fired(&f).contains(&"parallelism_source"),
        "got {:?}",
        rules_fired(&f)
    );

    let f = lint("crates/detect/src/sharded.rs", bad);
    assert!(!rules_fired(&f).contains(&"parallelism_source"));
}

// ---------------------------------------------------------------------------
// Allow-comments
// ---------------------------------------------------------------------------

#[test]
fn a_reasoned_allow_excuses_the_next_code_line() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // wslint: allow(panic_path, \"fixture: justified\")\n    x.unwrap()\n}";
    let f = lint("crates/serve/src/x.rs", src);
    assert!(f.violations.is_empty(), "got {:?}", f.violations);
    assert_eq!(f.excused, 1);
    assert_eq!(f.allows.len(), 1);
    assert_eq!(f.allows[0].rule, "panic_path");
    assert_eq!(f.allows[0].reason, "fixture: justified");
}

#[test]
fn a_trailing_allow_excuses_its_own_line() {
    let src =
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // wslint: allow(panic_path, \"fixture\")";
    let f = lint("crates/serve/src/x.rs", src);
    assert!(f.violations.is_empty());
    assert_eq!(f.excused, 1);
}

#[test]
fn an_allow_for_the_wrong_rule_excuses_nothing() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // wslint: allow(poison_unwrap, \"wrong rule\")\n    x.unwrap()\n}";
    let f = lint("crates/serve/src/x.rs", src);
    assert_eq!(rules_fired(&f), vec!["panic_path"]);
    assert_eq!(f.excused, 0);
}

#[test]
fn reasonless_or_unknown_allows_are_themselves_violations() {
    // No reason at all.
    let f = lint("src/x.rs", "// wslint: allow(panic_path)\nfn f() {}");
    assert_eq!(rules_fired(&f), vec![MALFORMED_ALLOW]);

    // An empty reason.
    let f = lint("src/x.rs", "// wslint: allow(panic_path, \"\")\nfn f() {}");
    assert_eq!(rules_fired(&f), vec![MALFORMED_ALLOW]);

    // An unknown rule name.
    let f = lint(
        "src/x.rs",
        "// wslint: allow(no_such_rule, \"reason\")\nfn f() {}",
    );
    assert_eq!(rules_fired(&f), vec![MALFORMED_ALLOW]);
}

#[test]
fn rule_table_is_complete() {
    let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        vec![
            "poison_unwrap",
            "hash_iteration",
            "panic_path",
            "thread_spawn",
            "parallelism_source"
        ]
    );
    for r in RULES {
        assert!(!r.summary.is_empty());
    }
}
