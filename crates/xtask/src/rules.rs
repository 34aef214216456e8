//! The domain rules for the APGRE workspace, evaluated over token trees and
//! the symbol index ([`crate::tokens`] → [`crate::tree`] → [`crate::index`]).
//!
//! | rule | slug | what it enforces |
//! |------|------|------------------|
//! | R1 | `raw-atomic-import` | `std::sync::atomic` / `core::sync::atomic` only inside the sync facade (`apgre_bc::sync`) |
//! | R2 | `ordering-creep` | no `SeqCst` / `AcqRel` outside the facade — the kernels' correctness argument is written for `Relaxed` + fork-join edges |
//! | R3 | `naked-par-accum` | no `slice[i] += …` inside a `par_iter`-family closure (escape: `lint:allow(par_accum)`) |
//! | R4 | `kernel-missing-serial-test` | every `pub fn bc_*` kernel in `crates/bc` / `crates/dynamic` / `crates/approx`, and the sub-graph dispatcher `run_subgraph_kernels`, has a test pinning it against the serial oracle; the maintenance module's `apply_edits` and `rebuild` and the store's snapshot and splice entry points (`CowGraph::view`, `FoldStore::chunks`, `FoldStore::apply_splice`) must likewise be pinned against their fresh oracle (`verify_against_fresh` / `decomp_equivalent`), and `SampleStore::apply_splice` against `verify_against_scratch`; the budget allocator's entry points (`plan_adaptive`, `allocate_budget`) must be pinned against the from-scratch sampled oracle (`verify_against_scratch` / `bc_sampled_from_decomposition`) |
//! | R5 | `serve-socket-unwrap` | no `.unwrap()` / `.expect(…)` in `crates/serve/src` outside `#[cfg(test)]` (escape: `lint:allow(serve_unwrap)`) |
//! | R6 | `guard-across-blocking` | no lock guard in `crates/serve` live across socket I/O or a snapshot publish (escape: `lint:allow(guard_blocking)`) |
//! | R7 | `ordering-protocol` | facade atomic call sites outside the facade conform to the claim-Relaxed / publish-Release / read-Acquire state machine, annotated with the call chain from the kernel entry points |
//! | R8 | `panic-reachability` | no `unwrap` / `expect` / `panic!`-family / unguarded `[]` reachable from serve's spawned threads, `DynamicBc::apply`/`snapshot`/`approx_snapshot`, `MaintainedDecomposition::apply_edits`, the approx refresh path (`SampleStore::refresh`), the allocator path (`plan_adaptive`), or the store publish path (`CowGraph::view`, `FoldStore::chunks`), intraprocedurally plus bounded call expansion (escape: `lint:allow(panic_path)`) |
//! | R9 | `hot-loop-index` | bounds-checked `[]` inside the sub-graph kernel loop nests (`bc_in_subgraph*` / `sweep_root*` in `crates/bc/src/apgre`: the sequential, observed and root-parallel sweeps) is audited explicitly (escape: `lint:allow(hot_index)` on or above the loop header) |
//!
//! R1–R5 are re-expressions of the old line-lexer rules with the textual
//! false-positive/negative classes removed (brace counting in `par_regions`,
//! the single-line `pub fn bc_*` assumption, the everything-after-the-first-
//! `#[cfg(test)]` heuristic). R6–R9 are flow-aware and need the tree and
//! index layers.

use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;

use crate::index::{FileIndex, FnItem, Workspace, NON_CALL_KEYWORDS};
use crate::tokens::{Kind, Tok};
use crate::tree::{flatten, Group, Tree};

/// One lint finding, anchored to a file and 1-based line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule slug.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source text of the offending line.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Files whose raw-atomic use is sanctioned: the facade itself. No other
/// crate holds atomics of its own.
const ATOMIC_ALLOWLIST: &[&str] = &["crates/bc/src/sync/"];

/// `SeqCst` is additionally allowed only inside the facade: the model
/// checker's passthrough atomics are deliberately sequentially consistent.
const ORDERING_ALLOWLIST: &[&str] = &["crates/bc/src/sync/"];

/// Serial-oracle kernels themselves are exempt from rule R4.
const SERIAL_PREFIX: &str = "bc_serial";

/// Compatibility entry point over `(path, source)` pairs with `PathBuf`s.
pub fn lint_files(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| (unix_path(p), s.clone())).collect();
    lint_sources(&owned)
}

/// Runs every rule over the given `(workspace-relative path, contents)`
/// pairs and returns all findings, ordered by path, line, then rule.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let rs: Vec<(String, String)> =
        files.iter().filter(|(p, _)| p.ends_with(".rs")).cloned().collect();
    let ws = Workspace::build(&rs);
    let flat: Vec<Vec<Tok>> = ws.files.iter().map(|f| flatten(&f.trees)).collect();
    let mut out = Vec::new();
    for (f, toks) in ws.files.iter().zip(&flat) {
        r1_raw_atomic(f, toks, &mut out);
        r2_ordering_creep(f, toks, &mut out);
        r3_par_accum(f, &mut out);
        r5_serve_unwrap(f, toks, &mut out);
        r6_guard_blocking(f, &mut out);
        r7_ordering_protocol(f, &ws, &mut out);
        r9_hot_loop_index(f, &mut out);
    }
    r4_kernel_serial_tests(&ws, &flat, &mut out);
    r8_panic_reachability(&ws, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.path, a.line, a.rule) == (&b.path, b.line, b.rule));
    out
}

fn unix_path(p: &std::path::Path) -> String {
    p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn allowed_path(upath: &str, allowlist: &[&str]) -> bool {
    allowlist.iter().any(|a| {
        if a.ends_with('/') {
            upath.contains(a) || upath.starts_with(a.trim_end_matches('/'))
        } else {
            upath.ends_with(a)
        }
    })
}

fn push(out: &mut Vec<Finding>, f: &FileIndex, line: usize, rule: &'static str, message: String) {
    out.push(Finding { path: f.path.clone(), line, rule, message, snippet: f.snippet(line) });
}

// ---------------------------------------------------------------- R1 / R2

/// R1: the sync facade is the only sanctioned door to raw atomics.
fn r1_raw_atomic(f: &FileIndex, toks: &[Tok], out: &mut Vec<Finding>) {
    if allowed_path(&f.path, ATOMIC_ALLOWLIST) {
        return;
    }
    for w in toks.windows(5) {
        if (w[0].is_ident("std") || w[0].is_ident("core"))
            && w[1].is_punct("::")
            && w[2].is_ident("sync")
            && w[3].is_punct("::")
            && w[4].is_ident("atomic")
        {
            push(
                out,
                f,
                w[0].line,
                "raw-atomic-import",
                "raw atomic path outside the sync facade; use `crate::sync` (or \
                 `apgre_bc::sync`) so `cfg(loom)` model checking covers this code"
                    .into(),
            );
        }
    }
}

/// R2: the kernels' memory-ordering argument is written for `Relaxed` plus
/// fork-join edges; `SeqCst`/`AcqRel` creep papers over missing reasoning.
fn r2_ordering_creep(f: &FileIndex, toks: &[Tok], out: &mut Vec<Finding>) {
    if allowed_path(&f.path, ORDERING_ALLOWLIST) {
        return;
    }
    for t in toks {
        if t.kind == Kind::Ident && (t.text == "SeqCst" || t.text == "AcqRel") {
            push(
                out,
                f,
                t.line,
                "ordering-creep",
                format!(
                    "`{}` outside the sync facade; the kernels justify `Relaxed` \
                     (see crates/bc/src/sync/mod.rs) — document a new ordering \
                     argument there instead of escalating",
                    t.text
                ),
            );
        }
    }
}

// --------------------------------------------------------------------- R3

const PAR_ENTRYPOINTS: &[&str] =
    &["into_par_iter", "par_iter_mut", "par_iter", "par_chunks_mut", "par_chunks", "par_bridge"];

/// Collects the argument groups of a `par_iter`-family call chain: the entry
/// point's own arguments plus every chained `.method(…)` argument group —
/// the closure bodies live inside those.
fn par_chain_groups<'a>(trees: &'a [Tree], out: &mut Vec<&'a Group>) {
    let mut i = 0;
    while i < trees.len() {
        let is_entry = trees[i]
            .leaf()
            .is_some_and(|t| t.kind == Kind::Ident && PAR_ENTRYPOINTS.contains(&t.text.as_str()))
            && matches!(&trees.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
        if is_entry {
            let mut j = i + 1;
            while j < trees.len() {
                match &trees[j] {
                    Tree::Group(g) if g.delim == '(' => {
                        out.push(g);
                        j += 1;
                    }
                    Tree::Leaf(l)
                        if l.is_punct(".")
                            || l.is_punct("::")
                            || l.is_punct("?")
                            || l.is_punct("<")
                            || l.is_punct(">")
                            || l.kind == Kind::Ident
                            || l.kind == Kind::Lifetime =>
                    {
                        j += 1
                    }
                    _ => break,
                }
            }
            i = j;
            continue;
        }
        if let Tree::Group(g) = &trees[i] {
            par_chain_groups(&g.trees, out);
        }
        i += 1;
    }
}

/// R3: `slice[i] += …` inside a parallel-iterator closure is an
/// unsynchronized read-modify-write on a shared slice.
fn r3_par_accum(f: &FileIndex, out: &mut Vec<Finding>) {
    let mut groups = Vec::new();
    par_chain_groups(&f.trees, &mut groups);
    let mut flagged = HashSet::new();
    for g in groups {
        find_indexed_accum(&g.trees, f, &mut flagged, out);
    }
}

fn find_indexed_accum(
    trees: &[Tree],
    f: &FileIndex,
    flagged: &mut HashSet<usize>,
    out: &mut Vec<Finding>,
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            if g.delim == '[' {
                if let Some(op) = trees.get(i + 1).and_then(Tree::leaf) {
                    if (op.is_punct("+=") || op.is_punct("-=")) // compound RMW
                        && !f.allowed(op.line, "par_accum")
                        && flagged.insert(op.line)
                    {
                        push(
                            out,
                            f,
                            op.line,
                            "naked-par-accum",
                            "`[..] +=` inside a parallel iterator closure is an \
                             unsynchronized accumulation; use `AtomicF64::fetch_add` \
                             (or mark the line `lint:allow(par_accum)` with a \
                             justification)"
                                .into(),
                        );
                    }
                }
            }
            find_indexed_accum(&g.trees, f, flagged, out);
        }
    }
}

// --------------------------------------------------------------------- R4

/// The oracles pinning the maintenance module's `apply_edits` and `rebuild`.
const MAINTAIN_ORACLES: &[&str] = &["verify_against_fresh", "decomp_equivalent"];

/// Store entry points R4 pins: `(path fragment, impl owner, fn name,
/// oracles a pinning test must call)`.
const STORE_PINS: &[(&str, &str, &str, &[&str])] = &[
    ("crates/store/src", "CowGraph", "view", &["verify_against_fresh"]),
    ("crates/store/src", "FoldStore", "chunks", &["verify_against_fresh"]),
    ("crates/store/src", "FoldStore", "apply_splice", &["verify_against_fresh"]),
    ("crates/approx/src", "SampleStore", "apply_splice", &["verify_against_scratch"]),
];

/// R4: every public `bc_*` kernel must be pinned against the serial oracle,
/// and the incremental maintenance and store entry points must be pinned
/// against their from-scratch oracles.
fn r4_kernel_serial_tests(ws: &Workspace, flat: &[Vec<Tok>], out: &mut Vec<Finding>) {
    let mut kernels: Vec<(usize, usize, String)> = Vec::new();
    let mut maint: Vec<(usize, usize, String, &[&str])> = Vec::new();
    let mut alloc: Vec<(usize, usize, String)> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        // The maintenance module's entry points — the splice and the
        // from-scratch rebuild — promise structural equivalence with fresh
        // `decompose()`; their oracle is the fresh decomposition rather
        // than serial Brandes.
        if f.path.contains("crates/decomp/src/maintain") {
            for fun in &f.fns {
                let entry = fun.name == "apply_edits" || fun.name == "rebuild";
                if fun.is_pub && !fun.in_test && entry {
                    maint.push((fi, fun.line, fun.name.clone(), MAINTAIN_ORACLES));
                }
            }
            continue;
        }
        // The stores' snapshot and splice entry points promise CSR/bitwise
        // equivalence with a store rebuilt from scratch; each is pinned
        // against that store's own oracle.
        for &(_, owner, name, oracles) in STORE_PINS.iter().filter(|pin| f.path.contains(pin.0)) {
            for fun in &f.fns {
                if fun.is_pub
                    && !fun.in_test
                    && fun.name == name
                    && fun.owner.as_deref() == Some(owner)
                {
                    maint.push((fi, fun.line, fun.name.clone(), oracles));
                }
            }
        }
        if f.path.contains("crates/store/src") {
            continue;
        }
        // The incremental engine's `bc_*` entry points promise the same
        // contract as the batch kernels, and the sampled estimator's
        // promise full-sample exactness against the same oracle, so they
        // carry the same obligation.
        if !f.path.contains("crates/bc/src")
            && !f.path.contains("crates/dynamic/src")
            && !f.path.contains("crates/approx/src")
        {
            continue;
        }
        for fun in &f.fns {
            // The sub-graph dispatcher hands every caller outside the batch
            // driver (the incremental engine, the sampled estimator) its
            // kernel results, so it is pinned like a `bc_*` kernel.
            let dispatcher = f.path.contains("crates/bc/src") && fun.name == "run_subgraph_kernels";
            if fun.is_pub
                && !fun.in_test
                && (dispatcher
                    || (fun.name.starts_with("bc_") && !fun.name.starts_with(SERIAL_PREFIX)))
            {
                kernels.push((fi, fun.line, fun.name.clone()));
            }
            // The budget allocator decides what the sampled estimator
            // computes; its entry points promise bitwise agreement between
            // the incremental store and the from-scratch estimator, so they
            // must be pinned against that oracle.
            if fun.is_pub
                && !fun.in_test
                && f.path.contains("crates/approx/src")
                && (fun.name == "plan_adaptive" || fun.name == "allocate_budget")
            {
                alloc.push((fi, fun.line, fun.name.clone()));
            }
        }
    }
    for (fi, line, name) in kernels {
        let covered = ws.files.iter().zip(flat).any(|(f2, toks)| {
            let test_bearing = f2.path.contains("/tests/")
                || !f2.test_ranges.is_empty()
                || f2.fns.iter().any(|x| x.in_test);
            test_bearing
                && toks.iter().any(|t| t.is_ident(&name))
                && toks.iter().any(|t| t.is_ident("matches_serial") || t.is_ident(SERIAL_PREFIX))
        });
        if !covered {
            let f = &ws.files[fi];
            push(
                out,
                f,
                line,
                "kernel-missing-serial-test",
                format!(
                    "public kernel `{name}` has no test comparing it against \
                     the serial oracle (`matches_serial` / `bc_serial`)"
                ),
            );
        }
    }
    for (fi, line, name, oracles) in maint {
        let covered = ws.files.iter().zip(flat).any(|(f2, toks)| {
            let test_bearing = f2.path.contains("/tests/")
                || !f2.test_ranges.is_empty()
                || f2.fns.iter().any(|x| x.in_test);
            test_bearing
                && toks.iter().any(|t| t.is_ident(&name))
                && toks.iter().any(|t| oracles.iter().any(|o| t.is_ident(o)))
        });
        if !covered {
            let f = &ws.files[fi];
            let oracles = oracles.iter().map(|o| format!("`{o}`")).collect::<Vec<_>>().join(" / ");
            push(
                out,
                f,
                line,
                "kernel-missing-serial-test",
                format!(
                    "incremental entry `{name}` has no test pinning it against \
                     its from-scratch oracle ({oracles})"
                ),
            );
        }
    }
    for (fi, line, name) in alloc {
        let covered = ws.files.iter().zip(flat).any(|(f2, toks)| {
            let test_bearing = f2.path.contains("/tests/")
                || !f2.test_ranges.is_empty()
                || f2.fns.iter().any(|x| x.in_test);
            test_bearing
                && toks.iter().any(|t| t.is_ident(&name))
                && toks.iter().any(|t| {
                    t.is_ident("verify_against_scratch")
                        || t.is_ident("bc_sampled_with_stderr_from_decomposition")
                        || t.is_ident("bc_sampled_from_decomposition")
                })
        });
        if !covered {
            let f = &ws.files[fi];
            push(
                out,
                f,
                line,
                "kernel-missing-serial-test",
                format!(
                    "allocator entry `{name}` has no test pinning it against \
                     the from-scratch sampled oracle (`verify_against_scratch` \
                     / `bc_sampled_from_decomposition`)"
                ),
            );
        }
    }
}

// --------------------------------------------------------------------- R5

/// R5: no panicking extraction on the service's I/O paths. Every request is
/// handled on a shared worker thread and every mutation is applied on the
/// single writer thread, so one `.unwrap()` on a socket, parse, or lock
/// result turns a misbehaving peer into a dead worker — or a dead mutation
/// pipeline. `#[cfg(test)]` regions are exempt (tracked structurally, not by
/// file position), and a justified `lint:allow(serve_unwrap)` escapes a line.
fn r5_serve_unwrap(f: &FileIndex, toks: &[Tok], out: &mut Vec<Finding>) {
    if !f.path.contains("crates/serve/src") {
        return;
    }
    for w in toks.windows(3) {
        if w[0].is_punct(".")
            && (w[1].is_ident("unwrap") || w[1].is_ident("expect"))
            && w[2].is_punct("(")
            && !f.in_test_region(w[1].line)
            && !f.allowed(w[1].line, "serve_unwrap")
        {
            push(
                out,
                f,
                w[1].line,
                "serve-socket-unwrap",
                "panicking extraction on a service I/O path; map the failure to \
                 an HTTP status or a clean thread exit (or mark the line \
                 `lint:allow(serve_unwrap)` with a justification)"
                    .into(),
            );
        }
    }
}

// --------------------------------------------------------------------- R6

/// Guard-acquiring methods: argument-less `.lock()` / `.read()` / `.write()`.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Blocking calls a guard must not be live across: socket I/O and the
/// snapshot publish. Channel `recv` is deliberately absent — the worker pool
/// holds `Mutex<Receiver<_>>` across `recv` by design (see server.rs).
const BLOCKING_METHODS: &[&str] = &[
    "accept",
    "read_exact",
    "write_all",
    "write_vectored",
    "flush",
    "read_line",
    "read_until",
    "read_to_end",
    "read_to_string",
    "read_request",
    "connect",
    "connect_timeout",
    "shutdown",
];

/// R6: a `MutexGuard`/`RwLock` guard in `crates/serve` live across socket
/// I/O (or a snapshot publish) serializes every peer behind one connection's
/// socket latency — the guard-live-range analogue of the paper's redundancy
/// argument. Guards are recognized at `let g = …lock()/read()/write()…;`
/// bindings; the live range runs to the end of the enclosing block or a
/// same-level `drop(g)`.
fn r6_guard_blocking(f: &FileIndex, out: &mut Vec<Finding>) {
    if !f.path.contains("crates/serve/src") {
        return;
    }
    let mut flagged = HashSet::new();
    for fun in &f.fns {
        if !fun.in_test {
            r6_scan_block(&fun.body, f, &mut flagged, out);
        }
    }
}

fn r6_scan_block(
    trees: &[Tree],
    f: &FileIndex,
    flagged: &mut HashSet<usize>,
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_ident("let") {
            // `let [mut] name = …;` — does the initializer acquire a guard?
            let mut j = i + 1;
            if trees.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = trees
                .get(j)
                .and_then(Tree::leaf)
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.clone());
            let end = (i..trees.len()).find(|&k| trees[k].is_punct(";")).unwrap_or(trees.len());
            if let Some(name) = name {
                let stmt = flatten(&trees[i..end.min(trees.len())]);
                let acquires = stmt.windows(4).any(|w| {
                    w[0].is_punct(".")
                        && w[1].kind == Kind::Ident
                        && LOCK_METHODS.contains(&w[1].text.as_str())
                        && w[2].is_punct("(")
                        && w[3].is_punct(")")
                });
                if acquires {
                    r6_scan_live(&trees[end..], &name, f, flagged, out);
                }
            }
            // Closures inside the initializer can bind their own guards.
            for t in &trees[i..end.min(trees.len())] {
                if let Tree::Group(g) = t {
                    r6_scan_block(&g.trees, f, flagged, out);
                }
            }
            i = end + 1;
            continue;
        }
        if let Tree::Group(g) = &trees[i] {
            r6_scan_block(&g.trees, f, flagged, out);
        }
        i += 1;
    }
}

/// Scans the guard's live range (a sibling suffix plus everything nested in
/// it) for blocking calls. A same-level `drop(guard)` ends the range; a
/// nested conditional `drop` does not (conservative).
fn r6_scan_live(
    trees: &[Tree],
    guard: &str,
    f: &FileIndex,
    flagged: &mut HashSet<usize>,
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_ident("drop") {
            if let Some(Tree::Group(g)) = trees.get(i + 1) {
                if g.delim == '(' && g.trees.len() == 1 && g.trees[0].is_ident(guard) {
                    return;
                }
            }
        }
        if trees[i].is_punct(".") {
            if let (Some(m), Some(Tree::Group(g))) =
                (trees.get(i + 1).and_then(Tree::leaf), trees.get(i + 2))
            {
                if m.kind == Kind::Ident
                    && g.delim == '('
                    && is_blocking_call(&m.text, g)
                    && !f.allowed(m.line, "guard_blocking")
                    && flagged.insert(m.line)
                {
                    push(
                        out,
                        f,
                        m.line,
                        "guard-across-blocking",
                        format!(
                            "lock guard `{guard}` is live across blocking \
                             `.{}(…)`; drop the guard (or copy what you need \
                             out of it) before socket I/O or a snapshot \
                             publish — `lint:allow(guard_blocking)` escapes \
                             a justified line",
                            m.text
                        ),
                    );
                }
            }
        }
        if let Tree::Group(g) = &trees[i] {
            r6_scan_live(&g.trees, guard, f, flagged, out);
        }
        i += 1;
    }
}

/// Is `.name(args)` a blocking call? Argument-bearing `.read(buf)` /
/// `.write(buf)` are socket ops (the lock-acquiring forms take no
/// arguments); `.store(snapshot)` without an `Ordering` argument is the
/// snapshot publish (atomic stores always pass an ordering).
fn is_blocking_call(name: &str, args: &Group) -> bool {
    if BLOCKING_METHODS.contains(&name) {
        return true;
    }
    if (name == "read" || name == "write") && !args.trees.is_empty() {
        return true;
    }
    name == "store" && !args.trees.is_empty() && !group_has_ordering(args)
}

fn group_has_ordering(g: &Group) -> bool {
    let mut found = false;
    crate::tree::walk(&g.trees, &mut |t| {
        if t.is_ident("Ordering") {
            found = true;
        }
    });
    found
}

// --------------------------------------------------------------------- R7

/// Atomic operations whose call sites the protocol rule inspects, with the
/// orderings the documented state machine permits. CAS successes may claim
/// (`Relaxed`) or publish (`Release`); CAS failures and loads may observe
/// (`Relaxed`) or read-acquire; RMW adds are claim-side only.
const PROTOCOL_METHODS: &[(&str, &[&str], &[&str])] = &[
    ("load", &["Relaxed", "Acquire"], &[]),
    ("store", &["Relaxed", "Release"], &[]),
    ("swap", &["Relaxed"], &[]),
    ("compare_exchange", &["Relaxed", "Release"], &["Relaxed", "Acquire"]),
    ("compare_exchange_weak", &["Relaxed", "Release"], &["Relaxed", "Acquire"]),
    ("fetch_add", &["Relaxed"], &[]),
    ("fetch_sub", &["Relaxed"], &[]),
    ("fetch_or", &["Relaxed"], &[]),
    ("fetch_and", &["Relaxed"], &[]),
    ("fetch_xor", &["Relaxed"], &[]),
    ("fetch_max", &["Relaxed"], &[]),
    ("fetch_min", &["Relaxed"], &[]),
];

/// R7: facade atomic call sites outside the facade must conform to the
/// claim-Relaxed / publish-Release / read-Acquire protocol documented in
/// `crates/bc/src/sync/mod.rs`, and each finding is annotated with a call
/// chain from a `bc_*` kernel entry point when one exists. `SeqCst`/`AcqRel`
/// are R2's findings and not re-reported here.
fn r7_ordering_protocol(f: &FileIndex, ws: &Workspace, out: &mut Vec<Finding>) {
    if allowed_path(&f.path, ATOMIC_ALLOWLIST) {
        return;
    }
    for fun in &f.fns {
        if fun.in_test {
            continue;
        }
        r7_scan(&fun.body, f, ws, fun, out);
    }
}

fn r7_scan(trees: &[Tree], f: &FileIndex, ws: &Workspace, fun: &FnItem, out: &mut Vec<Finding>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            r7_scan(&g.trees, f, ws, fun, out);
            continue;
        }
        if !t.is_punct(".") {
            continue;
        }
        let (Some(m), Some(Tree::Group(g))) =
            (trees.get(i + 1).and_then(Tree::leaf), trees.get(i + 2))
        else {
            continue;
        };
        let Some(&(_, success_ok, failure_ok)) =
            PROTOCOL_METHODS.iter().find(|(n, _, _)| m.is_ident(n))
        else {
            continue;
        };
        if g.delim != '(' {
            continue;
        }
        let ords = ordering_args(g);
        if ords.is_empty() || f.allowed(m.line, "ordering_protocol") {
            // No `Ordering::…` argument: not a facade atomic call (e.g. the
            // snapshot cell's `load`/`store`).
            continue;
        }
        for (k, ord) in ords.iter().enumerate() {
            if ord == "SeqCst" || ord == "AcqRel" {
                continue; // R2's finding
            }
            let allowed_set = if k == 0 || failure_ok.is_empty() { success_ok } else { failure_ok };
            if !allowed_set.contains(&ord.as_str()) {
                let chain = ws
                    .chain_from_root(&f.crate_name, &fun.name, &|_, n| n.starts_with("bc_"))
                    .map(|c| format!("; call chain: {}", c.join(" -> ")))
                    .unwrap_or_else(|| "; not reached from a kernel entry point".into());
                push(
                    out,
                    f,
                    m.line,
                    "ordering-protocol",
                    format!(
                        "`{}(Ordering::{ord})` breaks the claim-Relaxed / \
                         publish-Release / read-Acquire protocol (allowed here: \
                         {}){chain}",
                        m.text,
                        allowed_set.join(", "),
                    ),
                );
            }
        }
    }
}

/// The `Ordering::X` arguments of a call group, in positional order.
fn ordering_args(g: &Group) -> Vec<String> {
    let toks = flatten(&g.trees);
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].is_ident("Ordering") && w[1].is_punct("::") && w[2].kind == Kind::Ident {
            out.push(w[2].text.clone());
        }
    }
    out
}

// --------------------------------------------------------------------- R8

/// Call-expansion depth for panic reachability: the root body plus two hops,
/// enough to cross the engine → sub-graph-scheduler boundary
/// (`DynamicBc::apply` → `commit` → `run_subgraph_kernels`)
/// without degenerating into a whole-program scan.
const R8_DEPTH: usize = 2;

/// Macro invocations that are unconditional panics.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Call names too generic to resolve by bare name — `Vec::new()` in a root
/// body must not pull every `fn new` in the crate into the target set.
const AMBIENT_NAMES: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "iter",
    "next",
    "fmt",
    "from",
    "into",
    "drop",
    "write",
    "read",
    "lock",
    "send",
    "recv",
    "min",
    "max",
    "clear",
    "with_capacity",
];

/// Integration tests and benches are scaffolding, not service/engine code.
fn is_test_scaffolding(f: &FileIndex) -> bool {
    f.path.contains("/tests/") || f.path.contains("/benches/")
}

/// R8: no panicking operation reachable from serve's spawned threads,
/// `DynamicBc::apply`/`snapshot`, or the store's publish entry points. A
/// panic on the writer thread kills the mutation pipeline; one in `apply`
/// poisons every lock the kernels share; one in the publish path leaves
/// readers pinned to the last good snapshot forever.
/// Supersedes the purely textual reading of R5 with reachability.
fn r8_panic_reachability(ws: &Workspace, out: &mut Vec<Finding>) {
    // Roots: serve functions referenced inside a `spawn(…)` argument, plus
    // the dynamic engine's `DynamicBc::apply`.
    let serve_fn_names: HashSet<&str> = ws
        .files
        .iter()
        .filter(|f| f.crate_name == "serve" && !is_test_scaffolding(f))
        .flat_map(|f| f.fns.iter().map(|x| x.name.as_str()))
        .collect();
    let mut roots: Vec<(String, String, String)> = Vec::new(); // (crate, fn, label)
    for f in &ws.files {
        if f.crate_name != "serve" || is_test_scaffolding(f) {
            continue;
        }
        let mut spawned = Vec::new();
        collect_spawn_targets(&f.trees, &serve_fn_names, &mut spawned);
        for name in spawned {
            roots.push(("serve".into(), name.clone(), format!("serve thread `{name}`")));
        }
    }
    for f in &ws.files {
        for fun in &f.fns {
            if fun.name == "apply" && fun.owner.as_deref() == Some("DynamicBc") && !fun.in_test {
                roots.push((f.crate_name.clone(), "apply".into(), "`DynamicBc::apply`".into()));
            }
            // The approx refresh runs on the writer thread between apply
            // and publish; a panic there kills the publisher exactly like
            // one in `snapshot()` would.
            if fun.name == "approx_snapshot"
                && fun.owner.as_deref() == Some("DynamicBc")
                && !fun.in_test
            {
                roots.push((
                    f.crate_name.clone(),
                    "approx_snapshot".into(),
                    "`DynamicBc::approx_snapshot`".into(),
                ));
            }
            if fun.name == "refresh" && fun.owner.as_deref() == Some("SampleStore") && !fun.in_test
            {
                roots.push((
                    f.crate_name.clone(),
                    "refresh".into(),
                    "approx refresh `SampleStore::refresh`".into(),
                ));
            }
            // The budget allocator also runs on the writer thread (inside
            // the adaptive refresh), but `plan_adaptive → allocate_budget`
            // sits one hop beyond what the refresh root's bounded expansion
            // reaches, so the allocator path gets its own root.
            if fun.name == "plan_adaptive" && fun.owner.is_none() && !fun.in_test {
                roots.push((
                    f.crate_name.clone(),
                    "plan_adaptive".into(),
                    "allocator `plan_adaptive`".into(),
                ));
            }
            // The publish path runs on the writer thread too: a panic in
            // `snapshot()` (or the store views it hands out) kills the
            // publisher with readers still holding the previous snapshot.
            if fun.name == "snapshot" && fun.owner.as_deref() == Some("DynamicBc") && !fun.in_test {
                roots.push((
                    f.crate_name.clone(),
                    "snapshot".into(),
                    "`DynamicBc::snapshot`".into(),
                ));
            }
            if !fun.in_test
                && ((fun.name == "view" && fun.owner.as_deref() == Some("CowGraph"))
                    || (fun.name == "chunks" && fun.owner.as_deref() == Some("FoldStore")))
            {
                let owner = fun.owner.as_deref().unwrap_or_default();
                roots.push((
                    f.crate_name.clone(),
                    fun.name.clone(),
                    format!("publish path `{owner}::{}`", fun.name),
                ));
            }
            // The splice path runs on the same writer thread as `apply`; a
            // panic mid-splice strands a half-updated block store.
            if fun.name == "apply_edits"
                && fun.owner.as_deref() == Some("MaintainedDecomposition")
                && !fun.in_test
            {
                roots.push((
                    f.crate_name.clone(),
                    "apply_edits".into(),
                    "`MaintainedDecomposition::apply_edits`".into(),
                ));
            }
        }
    }
    roots.sort();
    roots.dedup();

    // Bounded call expansion: (crate, fn-name, receiver types) → (root
    // label, via-chain). Receiver types are recorded only for a name
    // `resolve_fn` cannot settle alone.
    type Key = (String, String, Vec<String>);
    let mut targets: Vec<(Key, String, Vec<String>)> = Vec::new();
    let mut seen: HashSet<Key> = HashSet::new();
    for (krate, name, label) in &roots {
        let mut frontier = vec![((krate.clone(), name.clone(), vec![]), Vec::<String>::new())];
        for _hop in 0..=R8_DEPTH {
            let mut next = Vec::new();
            for (key, via) in frontier {
                if !seen.insert(key.clone()) {
                    continue;
                }
                let defs = resolve_fn(ws, &key.0, &key.1, &key.2);
                for (f, fun) in &defs {
                    let mut callee_via = via.clone();
                    callee_via.push(fun.name.clone());
                    for callee in &fun.calls {
                        if callee.ends_with('!')
                            || *callee == key.1
                            || AMBIENT_NAMES.contains(&callee.as_str())
                        {
                            continue;
                        }
                        let receivers = if resolve_fn(ws, &key.0, callee, &[]).is_empty() {
                            receiver_types(f, fun, callee)
                        } else {
                            Vec::new()
                        };
                        next.push(((key.0.clone(), callee.clone(), receivers), callee_via.clone()));
                    }
                }
                targets.push((key, label.clone(), via));
            }
            frontier = next;
        }
    }

    for (key, label, via) in targets {
        for (f, fun) in resolve_fn(ws, &key.0, &key.1, &key.2) {
            let reach = if via.is_empty() {
                format!("reachable from {label}")
            } else {
                format!("reachable from {label} via {}", via.join(" -> "))
            };
            r8_scan_body(&fun.body, f, fun, &reach, out);
        }
    }
}

/// Definitions of `name`: same crate first, then the one definition in any
/// crate — the engine calls the BC scheduler cross-crate by bare name — or,
/// when several crates define it, those whose impl owner is one of the
/// call's `receivers` (`FoldStore::rebuild` and
/// `MaintainedDecomposition::rebuild` share a name). Integration-test and
/// bench files never participate.
fn resolve_fn<'a>(
    ws: &'a Workspace,
    krate: &str,
    name: &str,
    receivers: &[String],
) -> Vec<(&'a FileIndex, &'a FnItem)> {
    let local: Vec<_> =
        ws.fns_named(krate, name).into_iter().filter(|(f, _)| !is_test_scaffolding(f)).collect();
    if !local.is_empty() {
        return local;
    }
    let mut all: Vec<_> = ws
        .files
        .iter()
        .filter(|f| !is_test_scaffolding(f))
        .flat_map(|f| f.fns.iter().filter(|x| x.name == name && !x.in_test).map(move |x| (f, x)))
        .collect();
    if all.len() > 1 {
        all.retain(|(_, fun)| fun.owner.as_ref().is_some_and(|o| receivers.contains(o)));
    }
    all
}

/// The declared types of the fields `fun` calls `callee` on, read off the
/// caller's file: `self.maintained.rebuild(…)` next to a
/// `maintained: MaintainedDecomposition` field gives
/// `MaintainedDecomposition`. Receivers that are no plain field add nothing.
fn receiver_types(f: &FileIndex, fun: &FnItem, callee: &str) -> Vec<String> {
    let file = flatten(&f.trees);
    let declared = |field: &str| {
        file.windows(3).find_map(|w| {
            (w[0].is_ident(field) && w[1].is_punct(":") && w[2].kind == Kind::Ident)
                .then(|| w[2].text.clone())
        })
    };
    let mut types: Vec<String> = flatten(&fun.body)
        .windows(4)
        .filter(|w| w[1].is_punct(".") && w[2].is_ident(callee) && w[3].is_punct("("))
        .filter_map(|w| declared(&w[0].text))
        .collect();
    types.sort();
    types.dedup();
    types
}

/// Idents inside any `spawn(…)` argument group that name a known fn.
fn collect_spawn_targets(trees: &[Tree], known: &HashSet<&str>, out: &mut Vec<String>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            collect_spawn_targets(&g.trees, known, out);
            continue;
        }
        if t.is_ident("spawn") {
            if let Some(Tree::Group(g)) = trees.get(i + 1) {
                if g.delim == '(' {
                    crate::tree::walk(&g.trees, &mut |n| {
                        if let Some(tok) = n.leaf() {
                            if tok.kind == Kind::Ident && known.contains(tok.text.as_str()) {
                                out.push(tok.text.clone());
                            }
                        }
                    });
                }
            }
        }
    }
}

fn r8_scan_body(trees: &[Tree], f: &FileIndex, fun: &FnItem, reach: &str, out: &mut Vec<Finding>) {
    // Bases the body shows bounds discipline for: `b.len()`, `b.get(…)`.
    let toks = flatten(&fun.body);
    let mut guarded: HashSet<&str> = HashSet::new();
    for w in toks.windows(3) {
        if w[0].kind == Kind::Ident
            && w[1].is_punct(".")
            && (w[2].is_ident("len") || w[2].is_ident("get") || w[2].is_ident("get_mut"))
        {
            guarded.insert(&w[0].text);
        }
    }
    r8_scan(trees, f, &guarded, reach, out);
}

fn r8_scan(
    trees: &[Tree],
    f: &FileIndex,
    guarded: &HashSet<&str>,
    reach: &str,
    out: &mut Vec<Finding>,
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            // Indexing: `base[…]` where `base` is an expression tail.
            if g.delim == '['
                && i > 0
                && trees[i - 1].leaf().is_some_and(|p| {
                    p.kind == Kind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str())
                })
                && !g.trees.is_empty()
            {
                let base = &trees[i - 1].leaf().expect("checked ident").text;
                if !guarded.contains(base.as_str())
                    && !f.allowed(g.open_line, "panic_path")
                    && !f.in_test_region(g.open_line)
                {
                    push(
                        out,
                        f,
                        g.open_line,
                        "panic-reachability",
                        format!(
                            "unguarded `{base}[…]` {reach}; use `.get(…)` with an \
                             error path, show a bounds guard in this function, or \
                             mark the line `lint:allow(panic_path)` with the \
                             invariant that makes it infallible"
                        ),
                    );
                }
            }
            r8_scan(&g.trees, f, guarded, reach, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };
        // `.unwrap()` / `.expect(…)` — exact method names, so
        // `unwrap_or_else` and friends never match.
        if tok.is_punct(".") {
            if let (Some(m), Some(Tree::Group(g))) =
                (trees.get(i + 1).and_then(Tree::leaf), trees.get(i + 2))
            {
                if g.delim == '('
                    && (m.is_ident("unwrap") || m.is_ident("expect"))
                    && !f.allowed(m.line, "panic_path")
                    && !f.in_test_region(m.line)
                {
                    push(
                        out,
                        f,
                        m.line,
                        "panic-reachability",
                        format!(
                            "`.{}(…)` {reach}; recover (poisoned locks: \
                             `unwrap_or_else(|p| p.into_inner())`), propagate an \
                             error, or mark the line `lint:allow(panic_path)` \
                             with the invariant that makes it infallible",
                            m.text
                        ),
                    );
                }
            }
        }
        if tok.kind == Kind::Ident && PANIC_MACROS.contains(&tok.text.as_str()) {
            if let Some(Tree::Leaf(bang)) = trees.get(i + 1) {
                if bang.is_punct("!")
                    && !f.allowed(tok.line, "panic_path")
                    && !f.in_test_region(tok.line)
                {
                    push(
                        out,
                        f,
                        tok.line,
                        "panic-reachability",
                        format!("`{}!` {reach}; return an error instead", tok.text),
                    );
                }
            }
        }
    }
}

// --------------------------------------------------------------------- R9

/// R9: the sub-graph kernel's sweeps keep bounds-checked `[]` on purpose
/// (audited: indices are compacted sub-graph ids `< sg.n` by construction),
/// but every such loop must say so — new unaudited indexing in a hot loop
/// is flagged and pointed at the audited pattern. The entry point
/// (`bc_in_subgraph`) and every strategy sweep (`sweep_root*`) are selected
/// by name; `tests/fixtures/r9_sweeps_bad.rs` pins that the filter reaches
/// each of them.
fn r9_hot_loop_index(f: &FileIndex, out: &mut Vec<Finding>) {
    if !f.path.contains("crates/bc/src/apgre/") {
        return;
    }
    for fun in &f.fns {
        if fun.in_test
            || !(fun.name.starts_with("bc_in_subgraph") || fun.name.starts_with("sweep_root"))
        {
            continue;
        }
        let mut flagged = HashSet::new();
        r9_walk(&fun.body, f, false, false, &mut flagged, out);
    }
}

/// Single walk with suppression inheritance: `hot` means "inside a loop body
/// or par-chain closure", `suppressed` means "an enclosing loop or chain
/// carries `lint:allow(hot_index)` (on its header line or the line above)".
/// A marked outer loop audits its whole nest — nested loops inherit the
/// suppression, so one marker per loop nest is enough.
fn r9_walk(
    trees: &[Tree],
    f: &FileIndex,
    hot: bool,
    suppressed: bool,
    flagged: &mut HashSet<usize>,
    out: &mut Vec<Finding>,
) {
    let allow_at = |line: usize| {
        f.allowed(line, "hot_index") || f.allowed(line.saturating_sub(1), "hot_index")
    };
    let mut i = 0;
    while i < trees.len() {
        // `for`/`while`/`loop` … `{ body }`: the body (and everything under
        // it) is hot; an allow marker on the keyword line suppresses it all.
        let is_loop_kw =
            trees[i].leaf().is_some_and(|t| matches!(t.text.as_str(), "for" | "while" | "loop"));
        if is_loop_kw {
            let kw_line = trees[i].line();
            let body_at = trees[i + 1..]
                .iter()
                .position(|t| t.group().is_some_and(|g| g.delim == '{'))
                .map(|off| i + 1 + off);
            if let Some(bi) = body_at {
                let supp = suppressed || allow_at(kw_line);
                for header in &trees[i + 1..bi] {
                    if let Tree::Group(g) = header {
                        r9_walk(&g.trees, f, hot, suppressed, flagged, out);
                    }
                }
                if let Tree::Group(g) = &trees[bi] {
                    r9_walk(&g.trees, f, true, supp, flagged, out);
                }
                i = bi + 1;
                continue;
            }
        }
        // Par-chain entry (`par_for_each(…)` etc.): every argument group in
        // the chain is the kernel's inner loop; the allow marker is honored
        // on the entry line.
        let is_entry = trees[i]
            .leaf()
            .is_some_and(|t| t.kind == Kind::Ident && PAR_ENTRYPOINTS.contains(&t.text.as_str()))
            && matches!(&trees.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
        if is_entry {
            let supp = suppressed || allow_at(trees[i].line());
            let mut j = i + 1;
            while j < trees.len() {
                match &trees[j] {
                    Tree::Group(g) if g.delim == '(' => {
                        r9_walk(&g.trees, f, true, supp, flagged, out);
                        j += 1;
                    }
                    Tree::Leaf(l)
                        if l.is_punct(".")
                            || l.is_punct("::")
                            || l.is_punct("?")
                            || l.is_punct("<")
                            || l.is_punct(">")
                            || l.kind == Kind::Ident
                            || l.kind == Kind::Lifetime =>
                    {
                        j += 1
                    }
                    _ => break,
                }
            }
            i = j;
            continue;
        }
        if let Tree::Group(g) = &trees[i] {
            if g.delim == '['
                && hot
                && !suppressed
                && i > 0
                && trees[i - 1].leaf().is_some_and(|p| {
                    p.kind == Kind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str())
                })
                && !g.trees.is_empty()
                && !allow_at(g.open_line)
                && flagged.insert(g.open_line)
            {
                push(
                    out,
                    f,
                    g.open_line,
                    "hot-loop-index",
                    "bounds-checked `[]` in a hot kernel loop; use the audited \
                     slice-window pattern (hoist `&mut ws.buf[..sg.n]` once) or \
                     mark the loop `lint:allow(hot_index)` with the audit note"
                        .into(),
                );
            }
            r9_walk(&g.trees, f, hot, suppressed, flagged, out);
        }
        i += 1;
    }
}
