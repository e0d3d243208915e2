//! The rule engine: eleven named rules pattern-matched over the token
//! stream from [`crate::lexer`], scoped by the call-graph reachability
//! computed in [`crate::graph`].
//!
//! | ID | slug                        | hazard                                          |
//! |----|-----------------------------|-------------------------------------------------|
//! | D1 | nondeterministic-iteration  | iterating hash maps/sets in deterministic crates|
//! | D2 | nondeterministic-source     | wall clock, entropy, thread identity            |
//! | D3 | float-reduction             | partial-order float compares treated as total   |
//! | C1 | channel-protocol            | untagged `send`; `recv` outside the pool API    |
//! | C2 | unwind-across-pool          | panic paths in code dispatched onto WorkerPool  |
//! | C3 | order-sensitive-reduction   | unordered reductions in contract-reachable code |
//! | S1 | undocumented-unsafe         | `unsafe` without a `// SAFETY:` comment         |
//! | S2 | library-panic               | `unwrap`/`expect`/`panic!` in library code      |
//! | S3 | truncating-cast             | `as u32` in the query crate's code paths        |
//! | G1 | contract-root               | a `CONTRACT_ROOTS` entry points at nothing      |
//! | M1 | unregistered-metric         | raw latency sample vectors outside the registry |
//!
//! C2 and C3 are the graph-scoped rules: they apply not to named files
//! but to every function transitively reachable from the contract
//! entry points ([`crate::graph::CONTRACT_ROOTS`]) or from a
//! `WorkerPool` worker function — `borg-lint --explain <fn>` prints the
//! chain that put a function in scope. G1 keeps the root table honest:
//! renaming an entry point without updating the table is itself a
//! finding, not a silent scope shrink.
//!
//! Every diagnostic is suppressable at the site with
//! `// lint: <slug>-ok (reason)` (or `// lint: <ID>-ok (reason)`) on
//! the same line or the line above; the reason is mandatory, and a
//! suppression whose site no longer fires is reported as *unused* (its
//! reason has rotted — delete it). The rules are heuristic by design —
//! they run on tokens, not types — and the scoping that keeps them
//! honest lives in [`crate::FileClass`] and [`crate::graph::FileScope`].

use crate::graph::FileScope;
use crate::lexer::{Tok, TokKind};
use crate::{FileClass, Target, Timings};
use std::time::Instant;

/// Stable identifiers for the rule catalogue (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    D1,
    D2,
    D3,
    C1,
    C2,
    C3,
    S1,
    S2,
    S3,
    G1,
    M1,
}

impl RuleId {
    /// All rules, in catalogue order.
    pub const ALL: [RuleId; 11] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::C1,
        RuleId::C2,
        RuleId::C3,
        RuleId::S1,
        RuleId::S2,
        RuleId::S3,
        RuleId::G1,
        RuleId::M1,
    ];

    /// Short ID as printed in diagnostics and allowlists.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::C1 => "C1",
            RuleId::C2 => "C2",
            RuleId::C3 => "C3",
            RuleId::S1 => "S1",
            RuleId::S2 => "S2",
            RuleId::S3 => "S3",
            RuleId::G1 => "G1",
            RuleId::M1 => "M1",
        }
    }

    /// Human slug used in suppression comments: `// lint: <slug>-ok (…)`.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::D1 => "nondeterministic-iteration",
            RuleId::D2 => "nondeterministic-source",
            RuleId::D3 => "float-reduction",
            RuleId::C1 => "channel-protocol",
            RuleId::C2 => "unwind-across-pool",
            RuleId::C3 => "order-sensitive-reduction",
            RuleId::S1 => "undocumented-unsafe",
            RuleId::S2 => "library-panic",
            RuleId::S3 => "truncating-cast",
            RuleId::G1 => "contract-root",
            RuleId::M1 => "unregistered-metric",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "iteration over HashMap/HashSet/FxHashMap/FxHashSet in a deterministic crate; \
                 route through a sorted-iteration helper (fxhash::sorted_*) or annotate"
            }
            RuleId::D2 => {
                "wall-clock/entropy/thread-identity source (SystemTime::now, Instant::now, \
                 thread::current, thread_rng, from_entropy) outside bench/criterion"
            }
            RuleId::D3 => {
                "float partial-order hazard: partial_cmp().unwrap()/expect() comparators \
                 (use total_cmp or handle None)"
            }
            RuleId::C1 => {
                "channel-protocol breach: `.send(…)` in deterministic code without a \
                 batch-position tag tuple `((tag, …))`, or `.recv()` outside the blessed \
                 pool API (crates/sim/src/pool.rs)"
            }
            RuleId::C2 => {
                "panic path dispatched onto the WorkerPool: unwrap/expect/panic! reachable \
                 from a worker fn (and unchecked indexing in the worker body itself) with no \
                 catch_unwind — a worker panic poisons determinism silently"
            }
            RuleId::C3 => {
                "order-sensitive reduction in contract-reachable code: float sum/fold or \
                 reduce/min_by/max_by — use the sequential helpers (sum_seq) or an explicit \
                 fixed-order loop with a lexicographic (score, index) tie-break"
            }
            RuleId::S1 => "`unsafe` without a `// SAFETY:` comment in the preceding three lines",
            RuleId::S2 => "unwrap()/expect()/panic! in deterministic-crate library code",
            RuleId::S3 => {
                "truncating `as u32` cast in borg-query library code; use cast::code32 / \
                 u32::try_from"
            }
            RuleId::G1 => {
                "a graph::CONTRACT_ROOTS entry names a function its file no longer defines; \
                 update the root table so the contract scope cannot silently shrink"
            }
            RuleId::M1 => {
                "a latency/duration/timing declaration typed as a raw Vec/VecDeque sample \
                 buffer; record into a registered telemetry::Histogram so quantiles, \
                 snapshots, and exports see the metric"
            }
        }
    }
}

/// One finding: file, 1-based line, rule, free-text message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl Diagnostic {
    /// Renders in the `file:line: ID slug: message` shape check.sh greps.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.slug(),
            self.message
        )
    }
}

/// A `// lint: <marker>-ok (…)` comment whose site no longer triggers
/// the rule it names — the reason has rotted and the comment must go.
#[derive(Debug, Clone)]
pub struct UnusedSuppression {
    pub file: String,
    pub line: u32,
    /// The marker as written, `-ok` stripped (a slug or a rule ID).
    pub marker: String,
    /// False when the marker names no rule in the catalogue at all.
    pub known: bool,
}

impl UnusedSuppression {
    pub fn render(&self) -> String {
        if self.known {
            format!(
                "{}:{}: unused suppression `{}-ok` (site no longer triggers the rule; delete it)",
                self.file, self.line, self.marker
            )
        } else {
            format!(
                "{}:{}: unknown suppression marker `{}-ok` (no such rule; typo?)",
                self.file, self.line, self.marker
            )
        }
    }
}

/// Hash-container type names whose iteration order is arbitrary.
const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods on those containers that yield (or consume in) arbitrary
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Iterator reductions whose winner depends on visit order when scores
/// tie (or on float associativity): in contract-reachable code,
/// winners must be picked by an explicit fixed-order loop with a
/// lexicographic `(score, index)` tie-break (as `index::Lex` does)
/// instead.
const ORDER_SENSITIVE_REDUCERS: &[&str] =
    &["reduce", "min_by", "max_by", "min_by_key", "max_by_key"];

/// Blessed wall-clock helpers: the only non-bench library files allowed
/// the D2 time/entropy sources. Telemetry's timing plane routes every
/// duration through `telemetry::clock::now_ns`, which keeps wall-clock
/// reads auditable at one site instead of suppressed ad hoc (DESIGN.md
/// §12); the values it yields are confined to the timing plane and
/// excluded from every determinism contract.
const D2_BLESSED_FILES: &[&str] = &["crates/telemetry/src/clock.rs"];

/// The only files allowed to call `.recv()`/`.try_recv()` on a
/// channel: the pool APIs restore result attribution behind these
/// boundaries (C1) — batch order in the sim pool, id-tagged streaming
/// results in the serve pool.
const BLESSED_POOL_FILES: &[&str] = &["crates/sim/src/pool.rs", "crates/serve/src/pool.rs"];

/// Everything the workspace pipeline hands a per-file rule run.
pub(crate) struct FileInput<'a> {
    pub rel: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a [(u32, String)],
    pub in_test: &'a [bool],
    pub fc: &'a FileClass,
    pub scope: &'a FileScope,
}

/// Per-file rule output: findings plus rotted suppressions.
pub(crate) struct FileOutcome {
    pub diags: Vec<Diagnostic>,
    pub unused: Vec<UnusedSuppression>,
}

/// Runs every applicable rule over one prepared file, accumulating
/// per-rule wall time into `timings`.
pub(crate) fn lint_tokens(input: &FileInput, timings: &mut Timings) -> FileOutcome {
    let fc = input.fc;
    let mut ctx = Ctx {
        rel: input.rel,
        toks: input.toks,
        comments: input.comments,
        in_test: input.in_test,
        scope: input.scope,
        out: Vec::new(),
        used: Vec::new(),
    };

    let deterministic_lib = fc.deterministic && fc.target == Target::Lib;
    let mut run = |id: RuleId, on: bool, ctx: &mut Ctx, f: fn(&mut Ctx)| {
        if !on {
            return;
        }
        let t0 = Instant::now();
        f(ctx);
        timings.add(id.id(), t0.elapsed().as_secs_f64() * 1e3);
    };
    run(RuleId::D1, deterministic_lib, &mut ctx, rule_d1);
    run(
        RuleId::D2,
        !matches!(fc.krate.as_str(), "criterion" | "bench")
            && matches!(fc.target, Target::Lib | Target::Bin)
            && !D2_BLESSED_FILES.contains(&input.rel),
        &mut ctx,
        rule_d2,
    );
    run(RuleId::D3, deterministic_lib, &mut ctx, rule_d3);
    run(RuleId::C1, deterministic_lib, &mut ctx, rule_c1);
    run(
        RuleId::C2,
        !input.scope.pool.is_empty() || !input.scope.opaque_pool_workers.is_empty(),
        &mut ctx,
        rule_c2,
    );
    run(
        RuleId::C3,
        deterministic_lib && !input.scope.contract.is_empty(),
        &mut ctx,
        rule_c3,
    );
    run(RuleId::S1, true, &mut ctx, rule_s1);
    run(RuleId::S2, deterministic_lib, &mut ctx, rule_s2);
    run(
        RuleId::S3,
        fc.krate == "query" && fc.target == Target::Lib,
        &mut ctx,
        rule_s3,
    );
    // telemetry is exempt: it *implements* the registry the rule
    // routes everyone else toward.
    run(
        RuleId::M1,
        deterministic_lib && fc.krate != "telemetry",
        &mut ctx,
        rule_m1,
    );

    ctx.out.sort_by_key(|d| (d.line, d.rule));
    let unused = unused_suppressions(&ctx);
    FileOutcome {
        diags: ctx.out,
        unused,
    }
}

/// Shared per-file state threaded through the rule passes.
struct Ctx<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    comments: &'a [(u32, String)],
    in_test: &'a [bool],
    scope: &'a FileScope,
    out: Vec<Diagnostic>,
    /// `(comment_line, rule)` pairs whose suppression absorbed a
    /// finding — everything else carrying a marker is *unused*.
    used: Vec<(u32, RuleId)>,
}

impl Ctx<'_> {
    /// Emits unless a `// lint: <slug|ID>-ok (reason)` comment covers
    /// `line` (same line or the line above, reason required); a
    /// consumed suppression is recorded so rotted ones can be reported.
    fn emit(&mut self, line: u32, rule: RuleId, message: String) {
        if let Some(comment_line) = self.suppression_line(line, rule) {
            self.used.push((comment_line, rule));
            return;
        }
        self.out.push(Diagnostic {
            file: self.rel.to_string(),
            line,
            rule,
            message,
        });
    }

    fn suppression_line(&self, line: u32, rule: RuleId) -> Option<u32> {
        self.comments
            .iter()
            .filter(|(l, _)| *l == line || *l + 1 == line)
            .find(|(_, text)| has_suppression(text, rule))
            .map(|(l, _)| *l)
    }

    /// True when a `// SAFETY:` comment sits on `line` or within the
    /// three lines above it.
    fn has_safety_comment(&self, line: u32) -> bool {
        self.comments
            .iter()
            .filter(|(l, _)| *l <= line && *l + 3 >= line)
            .any(|(_, text)| text.contains("SAFETY:"))
    }
}

/// Parses `lint: <marker>-ok (reason)` out of a comment; the reason
/// must be non-empty. Both the slug and the short ID (any case) work
/// as markers, and one comment may carry several markers.
fn has_suppression(comment: &str, rule: RuleId) -> bool {
    let lower = comment.to_ascii_lowercase();
    let Some(pos) = lower.find("lint:") else {
        return false;
    };
    let body = &lower[pos + "lint:".len()..];
    for marker in [rule.slug().to_string(), rule.id().to_ascii_lowercase()] {
        let needle = format!("{marker}-ok");
        let mut search = body;
        while let Some(at) = search.find(&needle) {
            // Reject partial-word hits: `float-reduction-ok` must not
            // satisfy a lookup for `reduction-ok`.
            let clean_start = at == 0
                || !search[..at]
                    .ends_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_');
            let after = search[at + needle.len()..].trim_start();
            if clean_start {
                if let Some(rest) = after.strip_prefix('(') {
                    if let Some(close) = rest.find(')') {
                        if !rest[..close].trim().is_empty() {
                            return true;
                        }
                    }
                }
            }
            search = &search[at + needle.len()..];
        }
    }
    false
}

/// Every `<marker>-ok` token after a `lint:` prefix, marker text with
/// the `-ok` stripped. Used for unused/unknown-marker reporting.
pub(crate) fn suppression_markers(comment: &str) -> Vec<String> {
    let lower = comment.to_ascii_lowercase();
    let Some(pos) = lower.find("lint:") else {
        return Vec::new();
    };
    let body = &lower[pos + "lint:".len()..];
    let mut out = Vec::new();
    // Split into maximal marker-character words, keep those ending -ok.
    for word in body.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_')) {
        if let Some(marker) = word.strip_suffix("-ok") {
            if !marker.is_empty() {
                out.push(marker.to_string());
            }
        }
    }
    out
}

/// Reports suppression comments no finding consumed. Comments adjacent
/// to test-region tokens are exempt — rules skip test code entirely, so
/// markers there can never be consumed and are documentation at worst.
fn unused_suppressions(ctx: &Ctx) -> Vec<UnusedSuppression> {
    let mut test_lines: Vec<u32> = ctx
        .toks
        .iter()
        .zip(ctx.in_test)
        .filter(|(_, &t)| t)
        .map(|(tok, _)| tok.line)
        .collect();
    test_lines.sort_unstable();
    test_lines.dedup();
    let near_test =
        |l: u32| (l.saturating_sub(1)..=l + 1).any(|cand| test_lines.binary_search(&cand).is_ok());
    let mut out = Vec::new();
    for (line, text) in ctx.comments {
        for marker in suppression_markers(text) {
            if near_test(*line) {
                continue;
            }
            let rule = RuleId::ALL
                .iter()
                .find(|r| r.slug() == marker || r.id().eq_ignore_ascii_case(&marker));
            match rule {
                Some(&r) => {
                    if !ctx.used.contains(&(*line, r)) {
                        out.push(UnusedSuppression {
                            file: ctx.rel.to_string(),
                            line: *line,
                            marker,
                            known: true,
                        });
                    }
                }
                None => out.push(UnusedSuppression {
                    file: ctx.rel.to_string(),
                    line: *line,
                    marker,
                    known: false,
                }),
            }
        }
    }
    out
}

/// Marks tokens covered by `#[test]`-like or `#[cfg(test)]`-gated
/// items (including the attribute itself). `#[cfg(not(test))]` does
/// not count.
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && i + 1 < toks.len()
            && toks[i + 1].text == "[")
        {
            i += 1;
            continue;
        }
        // Collect the attribute's idents up to the matching `]`.
        let attr_start = i;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < toks.len() {
            match (toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                (TokKind::Ident, "test") => has_test = true,
                (TokKind::Ident, "not") => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut d = 0usize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // The item body: first top-level `{`..matching `}`, or a `;`.
        let mut bracket = 0isize; // (, [, < are NOT tracked; braces/parens suffice
        let mut end = j;
        while end < toks.len() {
            if toks[end].kind == TokKind::Punct {
                match toks[end].text.as_str() {
                    "(" | "[" => bracket += 1,
                    ")" | "]" => bracket -= 1,
                    ";" if bracket == 0 => break,
                    "{" if bracket == 0 => {
                        let mut braces = 0usize;
                        while end < toks.len() {
                            if toks[end].kind == TokKind::Punct {
                                match toks[end].text.as_str() {
                                    "{" => braces += 1,
                                    "}" => {
                                        braces -= 1;
                                        if braces == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                            }
                            end += 1;
                        }
                        break;
                    }
                    _ => {}
                }
            }
            end += 1;
        }
        for m in mask
            .iter_mut()
            .take((end + 1).min(toks.len()))
            .skip(attr_start)
        {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Where a hash container name was introduced; decides which receiver
/// shapes count as uses of *that* container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeclKind {
    /// `let`-bound local: bare `name.iter()` / `for _ in &name` match.
    Local,
    /// Struct field (or parameter): only `self.name.iter()` matches,
    /// so a same-named local `Vec` does not false-positive.
    Field,
}

/// D1: iteration over hash maps/sets. Tracks names declared with a
/// hash-container type in this file, then flags order-producing method
/// calls and `for … in` loops over them.
fn rule_d1(ctx: &mut Ctx) {
    let toks = ctx.toks;
    let mut names: Vec<(String, DeclKind)> = Vec::new();
    let add = |name: &str, kind: DeclKind, names: &mut Vec<(String, DeclKind)>| {
        if !names.iter().any(|(n, k)| n == name && *k == kind) {
            names.push((name.to_string(), kind));
        }
    };

    // Pass 1: declarations. Two shapes:
    //   `name: [path::]MapType<…>`          (field, param, or typed let)
    //   `[let [mut]] name = MapType::ctor(` (inferred let)
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !MAP_TYPES.contains(&toks[i].text.as_str()) {
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if next == Some("<") {
            // Walk back over a path prefix (`std :: collections ::`).
            let mut k = i;
            while k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == TokKind::Ident {
                k -= 2;
            }
            if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].kind == TokKind::Ident {
                let name_idx = k - 2;
                let mut kind = DeclKind::Field;
                let lookback = name_idx.saturating_sub(2);
                if toks[lookback..name_idx].iter().any(|t| t.text == "let") {
                    kind = DeclKind::Local;
                }
                let name = toks[name_idx].text.clone();
                add(&name, kind, &mut names);
            }
        } else if next == Some("::")
            && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
            && i >= 2
            && toks[i - 1].text == "="
            && toks[i - 2].kind == TokKind::Ident
        {
            let name_idx = i - 2;
            let lookback = name_idx.saturating_sub(2);
            if toks[lookback..name_idx].iter().any(|t| t.text == "let") {
                let name = toks[name_idx].text.clone();
                add(&name, DeclKind::Local, &mut names);
            }
        }
    }
    if names.is_empty() {
        return;
    }
    let kind_of = |name: &str, field: bool| -> Option<DeclKind> {
        let want = if field {
            DeclKind::Field
        } else {
            DeclKind::Local
        };
        names
            .iter()
            .find(|(n, k)| n == name && *k == want)
            .map(|(_, k)| *k)
    };

    // Pass 2: uses.
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];

        // `recv.name.iter()` / `name.iter()` method-call shape.
        if ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && toks[i - 2].kind == TokKind::Ident
        {
            let recv = &toks[i - 2];
            let via_self = i >= 4 && toks[i - 3].text == "." && toks[i - 4].text == "self";
            let hit = kind_of(&recv.text, via_self).is_some()
                // A bare local is `name.iter()` with nothing (or non-dot)
                // before it.
                && (via_self || i < 4 || toks[i - 3].text != ".");
            if hit {
                let method = t.text.clone();
                let name = recv.text.clone();
                ctx.emit(
                    t.line,
                    RuleId::D1,
                    format!(
                        "`{name}.{method}()` iterates a hash container in arbitrary order; \
                         collect+sort via fxhash::sorted_* (or switch to BTreeMap) or annotate \
                         `// lint: nondeterministic-iteration-ok (reason)`"
                    ),
                );
            }
        }

        // `for pat in [&[mut]] [self.]name {` loop shape.
        if t.text == "for" {
            // Find `in` before the loop body opens.
            let mut j = i + 1;
            let mut depth = 0isize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    "in" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() || toks[j].text != "in" {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && (toks[k].text == "&" || toks[k].text == "mut") {
                k += 1;
            }
            let via_self = toks.get(k).map(|t| t.text.as_str()) == Some("self")
                && toks.get(k + 1).map(|t| t.text.as_str()) == Some(".");
            if via_self {
                k += 2;
            }
            let (Some(name_tok), Some(open)) = (toks.get(k), toks.get(k + 1)) else {
                continue;
            };
            if name_tok.kind == TokKind::Ident
                && open.text == "{"
                && kind_of(&name_tok.text, via_self).is_some()
            {
                let name = name_tok.text.clone();
                ctx.emit(
                    name_tok.line,
                    RuleId::D1,
                    format!(
                        "`for … in {name}` iterates a hash container in arbitrary order; \
                         collect+sort via fxhash::sorted_* (or switch to BTreeMap) or annotate \
                         `// lint: nondeterministic-iteration-ok (reason)`"
                    ),
                );
            }
        }
    }
}

/// D2: ambient nondeterminism sources.
fn rule_d2(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let path_call = |head: &str, tail: &str| {
            toks[i].text == head
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
                && toks.get(i + 2).map(|t| t.text.as_str()) == Some(tail)
        };
        let found: Option<&str> = if path_call("SystemTime", "now") {
            Some("SystemTime::now")
        } else if path_call("Instant", "now") {
            Some("Instant::now")
        } else if path_call("thread", "current") {
            Some("thread::current")
        } else if path_call("RandomState", "new") {
            Some("RandomState::new")
        } else if toks[i].text == "thread_rng" || toks[i].text == "from_entropy" {
            Some(if toks[i].text == "thread_rng" {
                "thread_rng"
            } else {
                "from_entropy"
            })
        } else {
            None
        };
        if let Some(src) = found {
            ctx.emit(
                toks[i].line,
                RuleId::D2,
                format!(
                    "`{src}` injects wall-clock/entropy/thread identity into a reproducible \
                     path; thread config/seeds through explicitly or annotate \
                     `// lint: nondeterministic-source-ok (reason)`"
                ),
            );
        }
    }
}

/// D3: `partial_cmp(…).unwrap()/.expect(…)` — a partial order treated
/// as total. (Re-associable float reductions are C3's job, scoped by
/// contract reachability rather than a file list.)
fn rule_d3(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        if t.text == "partial_cmp" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            // Skip to the matching `)` and look for `.unwrap(`/`.expect(`.
            let mut depth = 0isize;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let unwrapped = toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
                && matches!(
                    toks.get(j + 2).map(|t| t.text.as_str()),
                    Some("unwrap") | Some("expect")
                );
            if unwrapped {
                ctx.emit(
                    t.line,
                    RuleId::D3,
                    "`partial_cmp().unwrap()` treats a partial order as total and panics on \
                     NaN; use `total_cmp` (or handle the None arm explicitly, e.g. \
                     `unwrap_or(Ordering::Equal)` where IEEE tie semantics are load-bearing)"
                        .to_string(),
                );
            }
        }
    }
}

/// C1: channel protocol. Every `.send(…)` in deterministic library
/// code must carry a batch-position tag tuple (`send((tag, payload))`)
/// so the receiving side can restore submission order; `.recv()` and
/// friends belong behind the blessed pool API only.
fn rule_c1(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let method_call = i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(");
        if !method_call {
            continue;
        }
        if t.text == "send" && toks.get(i + 2).map(|t| t.text.as_str()) != Some("(") {
            ctx.emit(
                t.line,
                RuleId::C1,
                "`.send(…)` without a batch-position tag: the pool protocol sends \
                 `((tag, payload))` tuples so the receiver can restore submission order; \
                 tag the message or annotate `// lint: channel-protocol-ok (reason)`"
                    .to_string(),
            );
        }
        if matches!(t.text.as_str(), "recv" | "try_recv" | "recv_timeout")
            && !BLESSED_POOL_FILES.contains(&ctx.rel)
        {
            let what = t.text.clone();
            ctx.emit(
                t.line,
                RuleId::C1,
                format!(
                    "bare `.{what}()` outside the blessed pool APIs \
                     ({}): consume results through the pool API so result attribution \
                     is restored, or annotate `// lint: channel-protocol-ok (reason)`",
                    BLESSED_POOL_FILES.join(", ")
                ),
            );
        }
    }
}

/// Identifier-like tokens that precede `[` without forming an index
/// expression (`for x in [..]`, `match x { .. }` arms, casts).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "in", "return", "break", "as", "else", "match", "loop", "move", "mut", "ref", "static",
    "const", "let", "if", "while",
];

/// C2: panic paths dispatched onto the `WorkerPool`. In any function
/// transitively reachable from a pool worker fn: no `unwrap`/`expect`/
/// `panic!` (the unwind crosses the pool boundary and poisons the
/// batch-order protocol silently). In the worker fn's own body,
/// unchecked indexing is flagged too — it is the direct dispatch
/// surface. A reachable span containing `catch_unwind` is exempt: the
/// unwind is contained.
fn rule_c2(ctx: &mut Ctx) {
    // The pool implementations are the boundary itself: their panic
    // sites are the protocol's own caller-thread re-raises (each
    // already S2 reason-suppressed), not payload code dispatched onto
    // workers.
    if BLESSED_POOL_FILES.contains(&ctx.rel) {
        return;
    }
    let toks = ctx.toks;
    let catch_lines: Vec<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "catch_unwind")
        .map(|t| t.line)
        .collect();
    let guarded = |line: u32| {
        ctx.scope
            .pool
            .iter()
            .filter(|&&(s, e)| s <= line && line <= e)
            .any(|&(s, e)| catch_lines.iter().any(|&cl| s <= cl && cl <= e))
    };
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        let line = t.line;
        if t.kind == TokKind::Ident && ctx.scope.in_pool(line) && !guarded(line) {
            let method_call = |name: &str| {
                t.text == name
                    && i >= 1
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            };
            if method_call("unwrap") || method_call("expect") {
                let what = t.text.clone();
                ctx.emit(
                    line,
                    RuleId::C2,
                    format!(
                        "`.{what}()` in code dispatched onto the WorkerPool \
                         (borg-lint --explain shows the chain): a worker panic unwinds across \
                         the pool and poisons determinism silently; return an error, contain \
                         it with catch_unwind, or annotate \
                         `// lint: unwind-across-pool-ok (reason)`"
                    ),
                );
            }
            if t.text == "panic" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!") {
                ctx.emit(
                    line,
                    RuleId::C2,
                    "`panic!` in code dispatched onto the WorkerPool (borg-lint --explain \
                     shows the chain): the unwind crosses the pool boundary; return an error, \
                     contain it with catch_unwind, or annotate \
                     `// lint: unwind-across-pool-ok (reason)`"
                        .to_string(),
                );
            }
        }
        // Unchecked indexing, worker bodies only (the direct dispatch
        // surface): `recv[`, `f()[`, `xs][`-chains.
        if t.kind == TokKind::Punct
            && t.text == "["
            && ctx.scope.in_pool_direct(line)
            && !guarded(line)
            && i >= 1
        {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_PRECEDERS.contains(&prev.text.as_str()),
                TokKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                _ => false,
            };
            if indexes {
                ctx.emit(
                    line,
                    RuleId::C2,
                    "unchecked indexing in a WorkerPool worker body panics across the pool \
                     on a bad index; use .get() and handle None, or annotate \
                     `// lint: unwind-across-pool-ok (reason)`"
                        .to_string(),
                );
            }
        }
    }
    for &line in &ctx.scope.opaque_pool_workers {
        ctx.emit(
            line,
            RuleId::C2,
            "WorkerPool::new with a worker that is not a named `fn` (closure or unresolved \
             path): the lint cannot police what runs on the pool; dispatch a named function \
             (`name as fn(J) -> R`) or annotate `// lint: unwind-across-pool-ok (reason)`"
                .to_string(),
        );
    }
}

/// C3: order-sensitive reductions in contract-reachable code —
/// re-associable float accumulation (`.sum::<f64>()`, float `fold`)
/// and tie-unstable winners (`reduce`/`min_by`/`max_by`/…). This is
/// the graph-scoped generalization of the old `BIT_IDENTITY_FILES`
/// list: scope is computed from [`crate::graph::CONTRACT_ROOTS`].
fn rule_c3(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        if !ctx.scope.in_contract(t.line) {
            continue;
        }
        if t.text == "sum"
            && toks.get(i.wrapping_sub(1)).map(|t| t.text.as_str()) == Some(".")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("<")
            && matches!(
                toks.get(i + 3).map(|t| t.text.as_str()),
                Some("f64") | Some("f32")
            )
        {
            ctx.emit(
                t.line,
                RuleId::C3,
                "float `.sum()` in contract-reachable code (borg-lint --explain shows the \
                 chain): re-associating this reduction changes results; use the blessed \
                 sequential helper (sum_seq) or annotate \
                 `// lint: order-sensitive-reduction-ok (reason)`"
                    .to_string(),
            );
        }
        if t.text == "fold" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            if let Some(seed) = toks.get(i + 2) {
                let is_float = seed.kind == TokKind::Num
                    && (seed.text.contains('.')
                        || seed.text.ends_with("f32")
                        || seed.text.ends_with("f64"));
                if is_float {
                    ctx.emit(
                        t.line,
                        RuleId::C3,
                        "float `fold` in contract-reachable code (borg-lint --explain shows \
                         the chain): re-associating this reduction changes results; use the \
                         blessed sequential helper (sum_seq) or annotate \
                         `// lint: order-sensitive-reduction-ok (reason)`"
                            .to_string(),
                    );
                }
            }
        }
        if ORDER_SENSITIVE_REDUCERS.contains(&t.text.as_str())
            && toks.get(i.wrapping_sub(1)).map(|t| t.text.as_str()) == Some(".")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            ctx.emit(
                t.line,
                RuleId::C3,
                format!(
                    "`.{}()` in contract-reachable code (borg-lint --explain shows the \
                     chain): an unordered reduction breaks the winner when scores tie; \
                     pick the winner with an explicit fixed-order loop and a lexicographic \
                     (score, index) tie-break or annotate \
                     `// lint: order-sensitive-reduction-ok (reason)`",
                    t.text
                ),
            );
        }
    }
}

/// S1: every `unsafe` needs a `// SAFETY:` comment within three lines.
fn rule_s1(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `unsafe` inside an attr (`#[allow(unsafe_code)]`) is not a
        // block; require the next meaningful token to open something.
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if !matches!(next, Some("{") | Some("fn") | Some("impl") | Some("trait")) {
            continue;
        }
        if !ctx.has_safety_comment(t.line) {
            ctx.emit(
                t.line,
                RuleId::S1,
                "`unsafe` without a `// SAFETY:` comment in the preceding three lines; \
                 document the invariant that makes this sound"
                    .to_string(),
            );
        }
    }
}

/// S2: no unwrap/expect/panic! in deterministic-crate library code.
fn rule_s2(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let method_call = |name: &str| {
            t.text == name
                && i >= 1
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        };
        if method_call("unwrap") || method_call("expect") {
            let what = t.text.clone();
            ctx.emit(
                t.line,
                RuleId::S2,
                format!(
                    "`.{what}()` in library code can panic at runtime; return an error, \
                     restructure so the invariant is type-checked, or annotate \
                     `// lint: library-panic-ok (reason)`"
                ),
            );
        }
        if t.text == "panic" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!") {
            ctx.emit(
                t.line,
                RuleId::S2,
                "`panic!` in library code; return an error or annotate \
                 `// lint: library-panic-ok (reason)`"
                    .to_string(),
            );
        }
    }
}

/// Identifier hints marking a latency/duration metric declaration.
const M1_HINTS: &[&str] = &["latenc", "duration", "timing"];

/// M1: latency metrics hoarded as raw sample vectors. A field, local,
/// or parameter whose name says "latency/duration/timing" but whose
/// type is a `Vec`/`VecDeque` keeps every sample outside the metrics
/// registry: quantiles get recomputed ad hoc, memory grows with the
/// run, and the metric never reaches snapshot/export. Record into a
/// `telemetry::Histogram` (registered through `telemetry::registry`)
/// instead. Names containing "samples" are exempt — an explicit sample
/// buffer (e.g. a CCDF input) is the declared intent, not a metric.
fn rule_m1(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.to_ascii_lowercase();
        if !M1_HINTS.iter().any(|h| name.contains(h)) || name.contains("samples") {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        // Scan a few tokens of the declared type for Vec/VecDeque<…>,
        // passing through array syntax (`[Vec<u64>; 3]`) but stopping
        // where the declaration ends.
        let mut hit: Option<(u32, String)> = None;
        for j in (i + 2)..toks.len().min(i + 8) {
            let t = &toks[j];
            match t.text.as_str() {
                "Vec" | "VecDeque" if toks.get(j + 1).map(|t| t.text.as_str()) == Some("<") => {
                    hit = Some((t.line, t.text.clone()));
                    break;
                }
                "," | ";" | ")" | "{" | "}" | "=" => break,
                _ => {}
            }
        }
        if let Some((line, ty)) = hit {
            let ident = toks[i].text.clone();
            ctx.emit(
                line,
                RuleId::M1,
                format!(
                    "`{ident}: {ty}<…>` hoards raw samples outside the metrics registry; \
                     record into a registered `telemetry::Histogram` so quantiles, \
                     snapshots, and exports see the metric, or annotate \
                     `// lint: unregistered-metric-ok (reason)`"
                ),
            );
        }
    }
}

/// S3: truncating `as u32` in borg-query library code.
fn rule_s3(ctx: &mut Ctx) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] || toks[i].kind != TokKind::Ident || toks[i].text != "as" {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("u32") {
            ctx.emit(
                toks[i].line,
                RuleId::S3,
                "`as u32` silently truncates row counts/dictionary codes past 2^32; use \
                 cast::code32 (checked) or annotate `// lint: truncating-cast-ok (reason)`"
                    .to_string(),
            );
        }
    }
}
