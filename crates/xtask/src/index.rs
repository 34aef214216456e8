//! The item/symbol index: functions, impl owners, test regions, and
//! intra-crate call edges over the whole workspace.
//!
//! Resolution is deliberately name-based — good enough for intra-crate call
//! edges between the workspace's free functions and inherent methods, which
//! is what the flow-aware rules (R7 ordering conformance per call chain, R8
//! panic reachability) need. It does not model trait dispatch, shadowing, or
//! cross-crate inlining; rules that consume the index are written so those
//! gaps degrade to missed edges, never to false positives.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::tokens::{tokenize, Kind, Tok};
use crate::tree::{parse, Group, Tree};

/// One `fn` item with its body trees and context.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Inherent-impl or trait owner (`impl Foo { fn bar … }` → `Foo`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared with `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Lexically inside a `#[cfg(test)]` region or carrying `#[test]`.
    pub in_test: bool,
    /// Body token trees (empty for bodiless trait methods).
    pub body: Vec<Tree>,
    /// Flattened signature tokens between the name and the body.
    pub sig: Vec<Tok>,
    /// Names this body calls: free/path calls and method calls alike.
    pub calls: Vec<String>,
}

/// One analyzed file.
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// `crates/<name>/…` → `<name>`; empty otherwise.
    pub crate_name: String,
    /// Raw source lines (snippet extraction).
    pub lines: Vec<String>,
    /// `lint:allow(tag)` markers as `(line, tag)`.
    pub allows: Vec<(usize, String)>,
    /// The file's token forest.
    pub trees: Vec<Tree>,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// Line ranges (1-based, inclusive) of `#[cfg(test)]` regions.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileIndex {
    /// True when `line` carries a `lint:allow(tag)` marker.
    pub fn allowed(&self, line: usize, tag: &str) -> bool {
        self.allows.iter().any(|(l, t)| *l == line && t == tag)
    }

    /// True when `line` is inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_ranges.iter().any(|(a, b)| (*a..=*b).contains(&line))
    }

    /// The trimmed source text of a 1-based line.
    pub fn snippet(&self, line: usize) -> String {
        self.lines.get(line.wrapping_sub(1)).map_or(String::new(), |l| l.trim().to_string())
    }
}

/// The workspace: all files plus reverse call edges per crate.
pub struct Workspace {
    /// All indexed files.
    pub files: Vec<FileIndex>,
    /// `(crate, callee-name)` → set of `(crate, caller-name)` pairs.
    callers: HashMap<(String, String), HashSet<(String, String)>>,
}

impl Workspace {
    /// Indexes every `(path, source)` pair and builds the call graph.
    pub fn build(files: &[(String, String)]) -> Workspace {
        let files: Vec<FileIndex> = files.iter().map(|(p, s)| index_file(p, s)).collect();
        let mut defined: HashSet<(String, String)> = HashSet::new();
        for f in &files {
            for fun in &f.fns {
                defined.insert((f.crate_name.clone(), fun.name.clone()));
            }
        }
        let mut callers: HashMap<(String, String), HashSet<(String, String)>> = HashMap::new();
        for f in &files {
            for fun in &f.fns {
                if fun.in_test {
                    continue;
                }
                for callee in &fun.calls {
                    let key = (f.crate_name.clone(), callee.clone());
                    if defined.contains(&key) {
                        callers
                            .entry(key)
                            .or_default()
                            .insert((f.crate_name.clone(), fun.name.clone()));
                    }
                }
            }
        }
        Workspace { files, callers }
    }

    /// All non-test `fn` items named `name` inside crate `krate`.
    pub fn fns_named(&self, krate: &str, name: &str) -> Vec<(&FileIndex, &FnItem)> {
        let mut out = Vec::new();
        for f in &self.files {
            if f.crate_name != krate {
                continue;
            }
            for fun in &f.fns {
                if fun.name == name && !fun.in_test {
                    out.push((f, fun));
                }
            }
        }
        out
    }

    /// A shortest caller chain from a function satisfying `is_root` down to
    /// `(crate, name)`, as `root -> … -> name`. `None` when unreachable.
    pub fn chain_from_root(
        &self,
        krate: &str,
        name: &str,
        is_root: &dyn Fn(&str, &str) -> bool,
    ) -> Option<Vec<String>> {
        let start = (krate.to_string(), name.to_string());
        let mut prev: HashMap<(String, String), (String, String)> = HashMap::new();
        let mut q = VecDeque::from([start.clone()]);
        let mut seen = HashSet::from([start.clone()]);
        while let Some(cur) = q.pop_front() {
            if is_root(&cur.0, &cur.1) {
                // `prev` links each discovered caller back toward `name`, so
                // following them from the root yields root → … → name order.
                let mut chain = vec![cur.1.clone()];
                let mut at = cur;
                while let Some(p) = prev.get(&at) {
                    chain.push(p.1.clone());
                    at = p.clone();
                }
                return Some(chain);
            }
            if let Some(cs) = self.callers.get(&cur) {
                let mut cs: Vec<_> = cs.iter().collect();
                cs.sort(); // deterministic BFS order
                for c in cs {
                    if seen.insert(c.clone()) {
                        prev.insert(c.clone(), cur.clone());
                        q.push_back(c.clone());
                    }
                }
            }
        }
        None
    }
}

/// Indexes one file: tokenize, parse, extract items and test regions.
pub fn index_file(path: &str, src: &str) -> FileIndex {
    let lexed = tokenize(src);
    let trees = parse(&lexed.toks);
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or_default()
        .to_string();
    let mut out = FileIndex {
        path: path.to_string(),
        crate_name,
        lines: src.lines().map(str::to_string).collect(),
        allows: lexed.allows,
        trees,
        fns: Vec::new(),
        test_ranges: Vec::new(),
    };
    let trees = std::mem::take(&mut out.trees);
    extract_items(&trees, &mut Ctx { owner: None, in_test: false }, &mut out);
    out.trees = trees;
    out
}

struct Ctx {
    owner: Option<String>,
    in_test: bool,
}

/// Walks one sibling stream, harvesting `fn` items and recursing into
/// `mod`/`impl`/`trait` bodies with the right context.
fn extract_items(trees: &[Tree], ctx: &mut Ctx, out: &mut FileIndex) {
    let mut i = 0;
    // Attribute state for the *next* item at this level.
    let mut attr_test = false;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) if t.is_punct("#") => {
                // `#[…]` or `#![…]`: flatten and look for test markers.
                let mut j = i + 1;
                if trees.get(j).is_some_and(|t| t.is_punct("!")) {
                    j += 1;
                }
                if let Some(Tree::Group(g)) = trees.get(j) {
                    if g.delim == '[' && attr_is_test(g) {
                        attr_test = true;
                    }
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            Tree::Leaf(t) if t.is_ident("fn") => {
                let item_test = ctx.in_test || attr_test;
                attr_test = false;
                i = harvest_fn(trees, i, ctx, item_test, out);
            }
            Tree::Leaf(t) if t.is_ident("mod") || t.is_ident("impl") || t.is_ident("trait") => {
                let kw_is_mod = t.is_ident("mod");
                let region_test = ctx.in_test || attr_test;
                attr_test = false;
                // Find the body group (or `;` for out-of-line mods / bare
                // trait bounds in expressions).
                let mut j = i + 1;
                let mut body = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == '{' => {
                            body = Some(g);
                            break;
                        }
                        Tree::Leaf(l) if l.is_punct(";") => break,
                        _ => j += 1,
                    }
                }
                if let Some(g) = body {
                    if region_test && !ctx.in_test {
                        out.test_ranges.push((g.open_line, g.close_line));
                    }
                    let owner =
                        if kw_is_mod { ctx.owner.clone() } else { impl_owner(&trees[i + 1..j]) };
                    let mut inner = Ctx { owner, in_test: region_test };
                    extract_items(&g.trees, &mut inner, out);
                }
                i = j + 1;
            }
            Tree::Group(_) => {
                // Expression-level group (incl. closure bodies): items do not
                // nest here in this workspace; skip.
                attr_test = false;
                i += 1;
            }
            _ => {
                if trees[i].is_punct(";") {
                    attr_test = false;
                }
                i += 1;
            }
        }
    }
}

/// True when an attribute group marks a test item or region:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[tokio::test]`-style.
fn attr_is_test(g: &Group) -> bool {
    let toks = crate::tree::flatten(&g.trees);
    let names: Vec<&str> =
        toks.iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text.as_str()).collect();
    match names.first() {
        Some(&"test") => true,
        Some(&"cfg") => names.contains(&"test"),
        Some(_) => names.last() == Some(&"test"),
        None => false,
    }
}

/// Owner of an `impl`/`trait` header: `impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo`, `impl a::b::Foo` all resolve to `Foo` — the last
/// angle-depth-0 path segment before the body (or `where` clause) wins.
fn impl_owner(header: &[Tree]) -> Option<String> {
    let mut angle = 0i32;
    let mut owner: Option<String> = None;
    for t in header {
        if let Some(tok) = t.leaf() {
            match tok.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "where" if angle == 0 => break,
                "for" if angle == 0 => owner = None,
                _ if tok.kind == Kind::Ident && angle == 0 => owner = Some(tok.text.clone()),
                _ => {}
            }
        }
    }
    owner
}

/// Harvests one `fn` starting at `trees[at]` (the `fn` keyword); returns the
/// index just past the item.
fn harvest_fn(trees: &[Tree], at: usize, ctx: &Ctx, in_test: bool, out: &mut FileIndex) -> usize {
    let line = trees[at].line();
    let Some(name_tok) = trees.get(at + 1).and_then(Tree::leaf).filter(|t| t.kind == Kind::Ident)
    else {
        return at + 1;
    };
    // Visibility: look back over this item's prefix for `pub`.
    let is_pub = trees[..at]
        .iter()
        .rev()
        .take_while(|t| {
            t.leaf().is_some_and(|l| {
                matches!(l.text.as_str(), "pub" | "const" | "unsafe" | "async" | "extern")
                    || l.kind == Kind::Str // extern "C"
            }) || t.group().is_some_and(|g| g.delim == '(') // pub(crate)
        })
        .any(|t| t.is_ident("pub"));
    let mut j = at + 2;
    let mut body: &[Tree] = &[];
    while j < trees.len() {
        match &trees[j] {
            Tree::Group(g) if g.delim == '{' => {
                body = &g.trees;
                break;
            }
            Tree::Leaf(l) if l.is_punct(";") => break,
            _ => j += 1,
        }
    }
    let sig_end = j;
    let mut calls = Vec::new();
    collect_calls(body, &mut calls);
    out.fns.push(FnItem {
        name: name_tok.text.clone(),
        owner: ctx.owner.clone(),
        line,
        is_pub,
        in_test,
        body: body.to_vec(),
        sig: crate::tree::flatten(&trees[at + 2..sig_end]),
        calls,
    });
    sig_end + 1
}

/// Keywords that can legally precede a parenthesized expression and must not
/// be recorded as call names (also reused by rules to tell indexing
/// expressions from array literals).
pub const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "while", "for", "loop", "in", "let", "mut", "ref", "move",
    "fn", "pub", "use", "as", "break", "continue", "unsafe", "async", "await", "dyn", "impl",
    "where", "yield",
];

/// Records every called name in a body: `foo(…)`, `path::foo(…)`, and
/// `.foo(…)` method calls. Macro invocations (`name!(…)`) are recorded as
/// `name!` so rules can match them distinctly.
pub fn collect_calls(trees: &[Tree], out: &mut Vec<String>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            collect_calls(&g.trees, out);
            continue;
        }
        let Some(tok) = t.leaf() else { continue };
        if tok.kind != Kind::Ident || NON_CALL_KEYWORDS.contains(&tok.text.as_str()) {
            continue;
        }
        match trees.get(i + 1) {
            Some(Tree::Group(g)) if g.delim == '(' => out.push(tok.text.clone()),
            Some(Tree::Leaf(n)) if n.is_punct("!") => {
                if matches!(trees.get(i + 2), Some(Tree::Group(_))) {
                    out.push(format!("{}!", tok.text));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(src: &str) -> FileIndex {
        index_file("crates/bc/src/demo.rs", src)
    }

    #[test]
    fn multi_line_signatures_are_items() {
        let f = idx("pub fn bc_apgre(\n    g: &Graph,\n    opts: ApgreOptions,\n) -> Vec<f64> {\n    inner(g)\n}\n");
        assert_eq!(f.fns.len(), 1);
        let fun = &f.fns[0];
        assert_eq!(
            (fun.name.as_str(), fun.line, fun.is_pub, fun.in_test),
            ("bc_apgre", 1, true, false)
        );
        assert_eq!(fun.calls, ["inner"]);
    }

    #[test]
    fn impl_owner_resolution() {
        let f = idx("impl<T: Clone> Widget<T> { fn a(&self) {} }\n\
             impl fmt::Display for Gauge { fn fmt(&self) { b() } }\n\
             impl crate::pool::ScratchPool { pub fn checkout(&self) {} }\n");
        let owners: Vec<_> = f.fns.iter().map(|x| (x.name.as_str(), x.owner.as_deref())).collect();
        assert_eq!(
            owners,
            [("a", Some("Widget")), ("fmt", Some("Gauge")), ("checkout", Some("ScratchPool"))]
        );
    }

    #[test]
    fn cfg_test_regions_and_test_attrs() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { live() }\n}\n";
        let f = idx(src);
        assert_eq!(f.fns.len(), 2);
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
        assert!(f.in_test_region(5));
        assert!(!f.in_test_region(1));
    }

    #[test]
    fn call_edges_and_chain() {
        let files = vec![(
            "crates/bc/src/a.rs".to_string(),
            "pub fn bc_entry(g: &G) { step(g); }\nfn step(g: &G) { leaf(); }\nfn leaf() {}\nfn orphan() {}\n"
                .to_string(),
        )];
        let ws = Workspace::build(&files);
        let chain =
            ws.chain_from_root("bc", "leaf", &|_, n| n.starts_with("bc_")).expect("reachable");
        assert_eq!(chain, ["bc_entry", "step", "leaf"]);
        assert!(ws.chain_from_root("bc", "orphan", &|_, n| n.starts_with("bc_")).is_none());
    }

    #[test]
    fn method_and_macro_calls_are_collected() {
        let f = idx("fn f(x: &X) { x.lock(); write!(out, \"hi\"); plain(); }\n");
        assert_eq!(f.fns[0].calls, ["lock", "write!", "plain"]);
    }
}
