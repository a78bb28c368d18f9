//! The rule engine: token-pattern rules over the [`crate::lexer`] stream.
//!
//! # Honest scope
//!
//! Every rule here is a **token-level heuristic** — there is no parser, no
//! name resolution and no type information behind it. Each rule documents
//! the approximation it makes (e.g. [`HASH_ITERATION`] tracks identifiers
//! that were *visibly* declared as `HashMap`/`HashSet` in the same file; a
//! hash map smuggled through a type alias or a function return value is not
//! seen). The rules err toward silence on constructs they cannot classify;
//! the escape hatch for the false positives they do produce is an
//! allow-comment **with a written reason**:
//!
//! ```text
//! // wslint: allow(panic_path, "i < rel.len() loop bound makes row() infallible")
//! ```
//!
//! An allow excuses matching findings on its own line (trailing comment) or
//! on the next code line. An allow without a reason, or naming an unknown
//! rule, is itself an (unexcusable) violation — the whole point is that
//! every exemption carries its justification in the diff.

use crate::lexer::{lex, Token, TokenKind};

/// One lint rule's identity and the invariant it guards.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The name used in diagnostics and `wslint: allow(<name>, …)`.
    pub name: &'static str,
    /// One-line statement of the guarded invariant.
    pub summary: &'static str,
}

/// `poison_unwrap` (L1): a `.lock()`/`.read()`/`.write()` result unwrapped
/// on the spot. A panic on another thread would then cascade through every
/// thread that touches the lock — the repo's contract is that append-only
/// or resettable shared state *recovers* from poisoning
/// (`PoisonError::into_inner`, or rebuild-and-`clear_poison`) instead.
/// Sanctioned: the poison-recovering interner/placeholder registries and
/// test code.
pub const POISON_UNWRAP: RuleInfo = RuleInfo {
    name: "poison_unwrap",
    summary: "lock()/read()/write() must not be blindly unwrapped; recover from poisoning",
};

/// `hash_iteration` (L2): iterating a `HashMap`/`HashSet` in modules whose
/// iteration order can reach `canonical_bytes` or placeholder numbering.
/// Byte-deterministic reports and repairs are a documented contract; hash
/// iteration order is not deterministic across processes. Excused when the
/// surrounding lines visibly sort the result (or collect into a `BTree*`),
/// or by an allow-comment arguing order independence.
pub const HASH_ITERATION: RuleInfo = RuleInfo {
    name: "hash_iteration",
    summary: "no order-leaking HashMap/HashSet iteration in report/plan/repair construction",
};

/// `panic_path` (L3): `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in non-test code of the request-serving crates
/// (the root facade, `core`, `serve`, `detect`, `repair`, `relation`,
/// `sqlgen`, `store`). Request paths return typed errors; a panic is at best a contained
/// `Error::WorkerPanicked` and at worst a crashed process.
pub const PANIC_PATH: RuleInfo = RuleInfo {
    name: "panic_path",
    summary:
        "no unwrap/expect/panic!/unreachable!/todo! on serve/detect/repair/relation/sqlgen paths",
};

/// `thread_spawn` (L4): `std::thread::spawn`/`thread::Builder` outside the
/// serving worker pool. Everything else uses `thread::scope`, so worker
/// lifetimes are structured and a panic cannot orphan a detached thread.
pub const THREAD_SPAWN: RuleInfo = RuleInfo {
    name: "thread_spawn",
    summary: "unscoped thread::spawn only in serve::pool; everywhere else thread::scope",
};

/// `parallelism_source` (L5): `available_parallelism` may only be called
/// inside `cfd_detect::available_cores` — the one cached source every
/// shard/thread budget derives from (the raw call re-reads cgroup files at
/// ~14µs a call and made µs-scale serving paths planner-visible in PR 6).
pub const PARALLELISM_SOURCE: RuleInfo = RuleInfo {
    name: "parallelism_source",
    summary: "available_parallelism only inside cfd_detect::available_cores",
};

/// All five rules, in rule-number order.
pub const RULES: [RuleInfo; 5] = [
    POISON_UNWRAP,
    HASH_ITERATION,
    PANIC_PATH,
    THREAD_SPAWN,
    PARALLELISM_SOURCE,
];

/// Pseudo-rule for malformed allow-comments; not excusable.
pub const MALFORMED_ALLOW: &str = "malformed_allow";

/// Files in which [`POISON_UNWRAP`] is sanctioned: the two poison-*recovery*
/// modules (their whole design is surviving another thread's panic).
const POISON_SANCTIONED: [&str; 2] = [
    "crates/relation/src/interner.rs",
    "crates/relation/src/placeholder.rs",
];

/// Modules in scope for [`HASH_ITERATION`]: where iteration order can reach
/// report bytes, plan step order, or repair placeholder numbering.
const HASH_SCOPED: [&str; 3] = [
    "crates/detect/src/report.rs",
    "crates/detect/src/planner.rs",
    "crates/repair/src/",
];

/// Crates in scope for [`PANIC_PATH`] (their `src/` trees; `src/` is the
/// root facade).
const PANIC_SCOPED: [&str; 8] = [
    "src/",
    "crates/core/src/",
    "crates/serve/src/",
    "crates/detect/src/",
    "crates/repair/src/",
    "crates/relation/src/",
    "crates/sqlgen/src/",
    "crates/store/src/",
];

/// The one file allowed to spawn unscoped threads.
const SPAWN_SANCTIONED: &str = "crates/serve/src/pool.rs";

/// The one file allowed to call `available_parallelism`.
const PARALLELISM_SANCTIONED: &str = "crates/detect/src/sharded.rs";

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// The trimmed source line, for the human-readable diagnostic.
    pub excerpt: String,
}

/// One parsed `wslint: allow(rule, reason)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// Everything the engine found in one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Unexcused violations (these fail the build).
    pub violations: Vec<Violation>,
    /// Parsed, well-formed allow-comments (whether or not they excused
    /// anything this run).
    pub allows: Vec<Allow>,
    /// How many raw findings were excused by an allow-comment.
    pub excused: usize,
}

/// Lints one file's source. `path` must be workspace-relative with `/`
/// separators (it drives the per-rule scoping); `test_file` marks sources
/// that are test code wholesale (anything under a `tests/` directory).
pub fn lint_source(path: &str, src: &str, test_file: bool) -> FileFindings {
    let toks = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let code: Vec<Token<'_>> = toks.iter().copied().filter(|t| !t.is_comment()).collect();
    let test_ranges = if test_file {
        vec![(0, code.len())]
    } else {
        test_regions(&code)
    };
    let in_test = |i: usize| test_ranges.iter().any(|&(s, e)| i >= s && i <= e);
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    };

    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |rule: &'static str, line: u32| {
        raw.push(Violation {
            rule,
            file: path.to_string(),
            line,
            excerpt: excerpt(line),
        });
    };

    scan_poison_unwrap(path, &code, &in_test, &mut push);
    scan_hash_iteration(path, &code, &in_test, &mut push);
    scan_panic_path(path, &code, &in_test, &mut push);
    scan_thread_spawn(path, &code, &in_test, &mut push);
    scan_parallelism_source(path, &code, &mut push);

    apply_allows(path, &toks, &code, raw, &excerpt)
}

// ---------------------------------------------------------------------------
// Allow-comments
// ---------------------------------------------------------------------------

/// Parses allow-comments out of the token stream and filters the raw
/// findings through them. An allow excuses findings of its rule on the
/// comment's own line and on the first code line after it.
fn apply_allows(
    path: &str,
    toks: &[Token<'_>],
    code: &[Token<'_>],
    raw: Vec<Violation>,
    excerpt: &dyn Fn(u32) -> String,
) -> FileFindings {
    let mut out = FileFindings::default();
    // (rule, set of excused lines) per well-formed allow.
    let mut excusals: Vec<(String, [u32; 2])> = Vec::new();
    for tok in toks {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("wslint:") else {
            continue;
        };
        let next_code_line = code
            .iter()
            .find(|t| t.line > tok.line)
            .map_or(tok.line, |t| t.line);
        match parse_allow(rest) {
            Some((rule, reason)) if RULES.iter().any(|r| r.name == rule) => {
                excusals.push((rule.to_string(), [tok.line, next_code_line]));
                out.allows.push(Allow {
                    rule: rule.to_string(),
                    file: path.to_string(),
                    line: tok.line,
                    reason: reason.to_string(),
                });
            }
            _ => out.violations.push(Violation {
                rule: MALFORMED_ALLOW,
                file: path.to_string(),
                line: tok.line,
                excerpt: excerpt(tok.line),
            }),
        }
    }
    for v in raw {
        let excused = excusals
            .iter()
            .any(|(rule, lines)| *rule == v.rule && lines.contains(&v.line));
        if excused {
            out.excused += 1;
        } else {
            out.violations.push(v);
        }
    }
    out.violations.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Parses `allow(<rule>, <reason>)` (after the `wslint:` prefix). The
/// reason may be quoted; it must be non-empty. Returns `None` when
/// malformed or reason-less.
fn parse_allow(rest: &str) -> Option<(&str, &str)> {
    let rest = rest.trim();
    let args = rest.strip_prefix("allow(")?.strip_suffix(')')?;
    let (rule, reason) = args.split_once(',')?;
    let rule = rule.trim();
    let reason = reason.trim().trim_matches('"').trim();
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some((rule, reason))
}

// ---------------------------------------------------------------------------
// cfg(test) regions
// ---------------------------------------------------------------------------

/// Token-index ranges (inclusive) covered by `#[cfg(test)]`-gated items and
/// `#[test]` functions. Heuristic: after a test-marking attribute, the
/// region is the next brace-balanced `{…}` block (an item ending in `;`
/// before any `{` has no region).
fn test_regions(code: &[Token<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(is_punct(code, i, "#") && is_punct(code, i + 1, "[")) {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching(code, i + 1, "[", "]") else {
            break;
        };
        if attr_marks_test(&code[i + 2..attr_end]) {
            // Skip any further attributes between this one and the item.
            let mut j = attr_end + 1;
            while is_punct(code, j, "#") && is_punct(code, j + 1, "[") {
                match matching(code, j + 1, "[", "]") {
                    Some(end) => j = end + 1,
                    None => break,
                }
            }
            // Find the item's opening brace (or `;` for a braceless item).
            while j < code.len() && !is_punct(code, j, "{") && !is_punct(code, j, ";") {
                j += 1;
            }
            if is_punct(code, j, "{") {
                let end = matching(code, j, "{", "}").unwrap_or(code.len() - 1);
                regions.push((j, end));
                i = j + 1;
                continue;
            }
        }
        i = attr_end + 1;
    }
    regions
}

/// Whether attribute tokens (between `#[` and `]`) gate on tests:
/// `#[test]` exactly, or a `cfg(…)` mentioning `test` without `not`.
fn attr_marks_test(attr: &[Token<'_>]) -> bool {
    if attr.len() == 1 && attr[0].text == "test" {
        return true;
    }
    let has = |name: &str| {
        attr.iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == name)
    };
    has("cfg") && has("test") && !has("not")
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(code: &[Token<'_>], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open_idx) {
        if t.kind == TokenKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Token-pattern helpers
// ---------------------------------------------------------------------------

fn is_punct(code: &[Token<'_>], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(code: &[Token<'_>], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn ident_in(code: &[Token<'_>], i: usize, names: &[&str]) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && names.contains(&t.text))
}

fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s) || path == *s)
}

// ---------------------------------------------------------------------------
// The five rules
// ---------------------------------------------------------------------------

/// L1: `.lock()`/`.read()`/`.write()` (zero-argument, so `Read::read(buf)`
/// never matches) immediately followed by `.unwrap()`/`.expect(`.
fn scan_poison_unwrap(
    path: &str,
    code: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(&'static str, u32),
) {
    if in_scope(path, &POISON_SANCTIONED) {
        return;
    }
    for i in 0..code.len() {
        if is_punct(code, i, ".")
            && ident_in(code, i + 1, &["lock", "read", "write"])
            && is_punct(code, i + 2, "(")
            && is_punct(code, i + 3, ")")
            && is_punct(code, i + 4, ".")
            && ident_in(code, i + 5, &["unwrap", "expect"])
            && is_punct(code, i + 6, "(")
            && !in_test(i)
        {
            push(POISON_UNWRAP.name, code[i + 5].line);
        }
    }
}

/// L3: `.unwrap()`/`.expect(` calls and panicking macros in the guarded
/// crates' non-test code.
fn scan_panic_path(
    path: &str,
    code: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(&'static str, u32),
) {
    if !in_scope(path, &PANIC_SCOPED) {
        return;
    }
    for i in 0..code.len() {
        if in_test(i) {
            continue;
        }
        let method = i > 0
            && is_punct(code, i - 1, ".")
            && ident_in(code, i, &["unwrap", "expect"])
            && is_punct(code, i + 1, "(");
        let makro = ident_in(code, i, &["panic", "unreachable", "todo", "unimplemented"])
            && is_punct(code, i + 1, "!");
        if method || makro {
            push(PANIC_PATH.name, code[i].line);
        }
    }
}

/// L4: `thread::spawn` / `thread::Builder` outside the serving pool.
fn scan_thread_spawn(
    path: &str,
    code: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(&'static str, u32),
) {
    if path == SPAWN_SANCTIONED {
        return;
    }
    for i in 0..code.len() {
        if is_ident(code, i, "thread")
            && is_punct(code, i + 1, ":")
            && is_punct(code, i + 2, ":")
            && ident_in(code, i + 3, &["spawn", "Builder"])
            && !in_test(i)
        {
            push(THREAD_SPAWN.name, code[i].line);
        }
    }
}

/// L5: any mention of `available_parallelism` outside its one wrapper.
/// Strict — test code included — because every budget must flow through the
/// cached `available_cores`.
fn scan_parallelism_source(
    path: &str,
    code: &[Token<'_>],
    push: &mut dyn FnMut(&'static str, u32),
) {
    if path == PARALLELISM_SANCTIONED {
        return;
    }
    for t in code {
        if t.kind == TokenKind::Ident && t.text == "available_parallelism" {
            push(PARALLELISM_SOURCE.name, t.line);
        }
    }
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// How many following source lines may carry the sort that canonicalizes a
/// hash iteration before the site is flagged.
const SORT_WINDOW: u32 = 10;

/// L2: iteration over identifiers that are *visibly* `HashMap`/`HashSet`
/// typed in this file (type annotation on a `let`/field/param, or a
/// `let`-initializer mentioning `HashMap`/`HashSet` before the `;`).
/// A site is excused when the same or the next [`SORT_WINDOW`] lines
/// visibly sort (or `BTree*`-collect) — order then never leaves the
/// function unsorted — or by allow-comment.
fn scan_hash_iteration(
    path: &str,
    code: &[Token<'_>],
    in_test: &dyn Fn(usize) -> bool,
    push: &mut dyn FnMut(&'static str, u32),
) {
    if !in_scope(path, &HASH_SCOPED) {
        return;
    }
    let hashed = hash_idents(code);
    if hashed.is_empty() {
        return;
    }
    let is_hashed = |i: usize| {
        code.get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && hashed.contains(&t.text))
    };
    let mut flag = |i: usize, line: u32| {
        if !in_test(i) && !sorted_nearby(code, line) {
            push(HASH_ITERATION.name, line);
        }
    };
    for i in 0..code.len() {
        // `h.iter()` / `h.keys()` / … — receiver directly before the call.
        if is_hashed(i)
            && is_punct(code, i + 1, ".")
            && ident_in(code, i + 2, &ITER_METHODS)
            && is_punct(code, i + 3, "(")
        {
            flag(i, code[i].line);
        }
        // `for x in h {` / `for x in &h {` / `for x in &mut h {`.
        if is_ident(code, i, "for") {
            if let Some(j) = (i + 1..(i + 16).min(code.len())).find(|&j| is_ident(code, j, "in")) {
                let mut k = j + 1;
                while is_punct(code, k, "&") || is_ident(code, k, "mut") {
                    k += 1;
                }
                if is_hashed(k) && is_punct(code, k + 1, "{") {
                    flag(k, code[k].line);
                }
            }
        }
    }
}

/// Identifiers declared as hash collections in this file. Two visible
/// forms: `name: [&mut] HashMap<…>` (let/field/param annotations) and
/// `let [mut] name … = … HashMap::… ;` initializers.
fn hash_idents<'a>(code: &[Token<'a>]) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for i in 0..code.len() {
        if !ident_in(code, i, &["HashMap", "HashSet"]) {
            continue;
        }
        // Backward form: name : [& mut 'a] Hash{Map,Set}
        let mut j = i;
        while j > 0
            && (is_punct(code, j - 1, "&")
                || is_ident(code, j - 1, "mut")
                || code
                    .get(j - 1)
                    .is_some_and(|t| t.kind == TokenKind::Lifetime))
        {
            j -= 1;
        }
        if j >= 2 && is_punct(code, j - 1, ":") && !is_punct(code, j - 2, ":") {
            if let Some(t) = code.get(j - 2) {
                if t.kind == TokenKind::Ident && !out.contains(&t.text) {
                    out.push(t.text);
                }
            }
        }
        // Forward form: let [mut] name = … Hash{Map,Set} … ; — scan back to
        // the nearest `let` on the same statement (no `;` in between).
        let mut k = i;
        while k > 0 && !is_punct(code, k - 1, ";") && !is_punct(code, k - 1, "{") {
            k -= 1;
            if is_ident(code, k, "let") {
                let name_idx = if is_ident(code, k + 1, "mut") {
                    k + 2
                } else {
                    k + 1
                };
                if let Some(t) = code.get(name_idx) {
                    if t.kind == TokenKind::Ident && !out.contains(&t.text) {
                        out.push(t.text);
                    }
                }
                break;
            }
        }
    }
    out
}

/// Whether any token on `line ..= line + SORT_WINDOW` sorts a collection or
/// names a `BTree*` type (collecting into one canonicalizes order).
fn sorted_nearby(code: &[Token<'_>], line: u32) -> bool {
    const SORTS: [&str; 7] = [
        "sort",
        "sort_by",
        "sort_unstable",
        "sort_by_key",
        "sort_unstable_by",
        "sort_by_cached_key",
        "sort_unstable_by_key",
    ];
    code.iter()
        .filter(|t| t.line >= line && t.line <= line + SORT_WINDOW)
        .any(|t| {
            t.kind == TokenKind::Ident
                && (SORTS.contains(&t.text) || t.text == "BTreeMap" || t.text == "BTreeSet")
        })
}
