//! Best-effort intra-workspace call graph + the hot-path check.
//!
//! The graph is token-level: nodes are `fn` definitions found by the
//! [`scan`](crate::scan)ner, edges come from call sites resolved by
//! name. Resolution is deliberately conservative in *shape* and
//! over-approximate in *targets*:
//!
//! * `Type::name(…)` resolves to methods of a workspace `impl Type` /
//!   `trait Type` when one exists; an unknown qualifier falls back to
//!   free functions of that name (module-qualified calls), never to
//!   methods — so `Vec::new(…)` does not fan out to every workspace
//!   `new`.
//! * `recv.name(…)` resolves to **every** workspace method of that name
//!   (receiver types are unknown) — exactly what a trait-object call
//!   like `codec.decompress(…)` needs to reach all codec impls.
//! * `name(…)` resolves to free functions of that name.
//!
//! Every resolution is filtered by the crate dependency closure: code in
//! `slc-compress` cannot grow an edge into `slc-sim`, because the crate
//! cannot name it. Test code (`#[cfg(test)]` modules, `tests/`,
//! `examples/`) is excluded from the def index entirely.

use crate::scan::{CallKind, CallSite, FnDef};
use crate::{waivers, Finding, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Check name for the panic/alloc audit.
pub const HOT_PATH: &str = "hot-path";

/// Macro names that panic or allocate. Hard asserts are among them: the
/// repo convention on hot paths is `debug_assert!`, which never flags.
const BANNED_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "vec",
    "format",
];
/// Method names that panic or allocate.
const BANNED_METHODS: &[&str] = &["unwrap", "expect", "to_vec", "collect"];
/// `Type::fn` pairs that allocate.
const BANNED_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("Box", "new")];

/// One parsed manifest root: `path/to/file.rs::fn_name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Root {
    pub file: String,
    pub func: String,
}

/// Parses `tools/lint/hot_paths.txt` content.
pub fn parse_manifest(text: &str) -> Vec<Root> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (file, func) = l.split_once("::")?;
            Some(Root { file: file.trim().to_string(), func: func.trim().to_string() })
        })
        .collect()
}

/// A function node in the graph: `(file index, fn index)` into
/// [`Workspace::files`] / [`crate::scan::FileIndex::fns`].
pub type NodeId = (usize, usize);

/// The resolved workspace call graph.
pub struct CallGraph<'a> {
    ws: &'a Workspace,
    /// Simple name → methods (fns with an owner).
    methods: BTreeMap<&'a str, Vec<NodeId>>,
    /// Simple name → free functions.
    free_fns: BTreeMap<&'a str, Vec<NodeId>>,
    /// `(owner, name)` → fns.
    qualified: BTreeMap<(&'a str, &'a str), Vec<NodeId>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes every non-test function of the workspace.
    pub fn build(ws: &'a Workspace) -> Self {
        let mut g = CallGraph {
            ws,
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            qualified: BTreeMap::new(),
        };
        for (fi, file) in ws.files.iter().enumerate() {
            if file.is_external_test {
                continue;
            }
            for (di, def) in file.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                let id = (fi, di);
                match &def.owner {
                    Some(owner) => {
                        g.methods.entry(def.name.as_str()).or_default().push(id);
                        g.qualified
                            .entry((owner.as_str(), def.name.as_str()))
                            .or_default()
                            .push(id);
                    }
                    None => g.free_fns.entry(def.name.as_str()).or_default().push(id),
                }
            }
        }
        g
    }

    /// The function definition behind a node id.
    pub fn def(&self, id: NodeId) -> &'a FnDef {
        &self.ws.files[id.0].fns[id.1]
    }

    /// Resolves one call site made from crate `from` to its candidate
    /// workspace definitions, dependency-filtered (see module docs for
    /// the resolution shape).
    pub fn resolve(&self, from: &str, call: &CallSite) -> Vec<NodeId> {
        let name = call.name();
        let candidates: Option<&Vec<NodeId>> = match call.kind {
            CallKind::Macro => None,
            CallKind::Path => {
                let q = call.qualifier().unwrap_or("");
                match self.qualified.get(&(q, name)) {
                    Some(v) => Some(v),
                    // Unknown qualifier: a module path (`rans::encode`)
                    // or a std type. Free functions only.
                    None => self.free_fns.get(name),
                }
            }
            CallKind::Method => self.methods.get(name),
            CallKind::Bare => self.free_fns.get(name),
        };
        let mut out = Vec::new();
        if let Some(candidates) = candidates {
            for &id in candidates {
                if self.ws.can_reach(from, &self.ws.files[id.0].crate_name) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// All nodes of the graph, in deterministic (file, fn) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ws.files.iter().enumerate().flat_map(|(fi, file)| {
            let external = file.is_external_test;
            file.fns
                .iter()
                .enumerate()
                .filter(move |(_, d)| !external && !d.is_test)
                .map(move |(di, _)| (fi, di))
        })
    }

    /// Call targets of `def` (in crate `from`), dependency-filtered.
    fn targets(&self, from: &str, def: &'a FnDef) -> Vec<NodeId> {
        let mut out = Vec::new();
        for call in &def.calls {
            out.extend(self.resolve(from, call));
        }
        out
    }
}

/// Runs the hot-path audit.
///
/// Roots come from the manifest; a root that resolves to no function is
/// itself a finding, so the manifest cannot rot silently. Functions
/// carrying a `slc-lint: allow(hot-path)` waiver on their `fn` line are
/// exempt entirely (body unaudited, not traversed through).
pub fn check_hot_paths(ws: &Workspace, manifest: &[Root]) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let mut findings = Vec::new();
    let mut queue: VecDeque<(NodeId, String)> = VecDeque::new();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();

    for root in manifest {
        let mut matched = false;
        for (fi, file) in ws.files.iter().enumerate() {
            if file.path != root.file {
                continue;
            }
            for (di, def) in file.fns.iter().enumerate() {
                if def.name == root.func && !def.is_test {
                    matched = true;
                    if seen.insert((fi, di)) {
                        queue.push_back(((fi, di), root.func.clone()));
                    }
                }
            }
        }
        if !matched {
            findings.push(Finding {
                check: HOT_PATH,
                file: root.file.clone(),
                line: 0,
                message: format!(
                    "manifest root `{}::{}` does not resolve to any function — \
                     update tools/lint/hot_paths.txt",
                    root.file, root.func
                ),
            });
        }
    }

    while let Some((id, root)) = queue.pop_front() {
        let file = &ws.files[id.0];
        let def = graph.def(id);
        // Function-level exemption: a hot-path waiver on the fn line.
        if crate::is_waived(file, HOT_PATH, def.line) {
            continue;
        }
        audit_body(ws, id, &root, &mut findings);
        for next in graph.targets(&file.crate_name, def) {
            if seen.insert(next) {
                queue.push_back((next, root.clone()));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Scans one hot function's body for banned constructs.
fn audit_body(ws: &Workspace, id: NodeId, root: &str, findings: &mut Vec<Finding>) {
    let file = &ws.files[id.0];
    let def = &file.fns[id.1];
    let file_waivers = waivers(file);
    let via = if def.name == root {
        String::new()
    } else {
        format!(" (reachable from hot-path root `{root}`)")
    };
    for call in &def.calls {
        let name = call.name();
        let what = match call.kind {
            CallKind::Macro if BANNED_MACROS.contains(&name) => format!("`{name}!`"),
            CallKind::Method if BANNED_METHODS.contains(&name) => format!("`.{name}()`"),
            CallKind::Path
                if call.qualifier().is_some_and(|q| BANNED_PATHS.contains(&(q, name))) =>
            {
                format!("`{}::{}`", call.qualifier().unwrap_or(""), name)
            }
            _ => continue,
        };
        if file_waivers.iter().any(|w| w.check == HOT_PATH && w.target_line == call.line) {
            continue;
        }
        findings.push(Finding {
            check: HOT_PATH,
            file: file.path.clone(),
            line: call.line,
            message: format!("hot fn `{}`{via} reaches {what}", def.name),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_and_skips_comments() {
        let roots = parse_manifest(
            "# decode entry points\ncrates/engine/src/lib.rs::decode_chunk\n\n  \
             crates/compress/src/bdi.rs::encode_into  ",
        );
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[1].func, "encode_into");
    }

    #[test]
    fn transitive_reach_flags_and_waiver_silences() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { helper(); }\n\
             fn helper() {\n    data.unwrap();\n    \
             ok.unwrap(); // slc-lint: allow(hot-path): reviewed, receiver is infallible\n}\n",
        )]);
        let roots = parse_manifest("crates/a/src/lib.rs::root");
        let f = check_hot_paths(&ws, &roots);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("unwrap"));
        assert!(f[0].message.contains("root `root`"));
    }

    #[test]
    fn unresolved_root_is_a_finding() {
        let ws = Workspace::from_sources(&[("crates/a/src/lib.rs", "a", "fn other() {}")]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::gone"));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("does not resolve"));
    }

    #[test]
    fn method_calls_fan_out_to_all_impls_but_not_past_dep_graph() {
        let mut ws = Workspace::from_sources(&[
            ("crates/a/src/lib.rs", "a", "fn root(c: &dyn C) { c.decode(); }"),
            ("crates/b/src/lib.rs", "b", "impl C for B { fn decode(&self) { panic!(\"x\"); } }"),
            ("crates/z/src/lib.rs", "z", "impl C for Z { fn decode(&self) { panic!(\"z\"); } }"),
        ]);
        // a depends on b only.
        for (name, deps) in [("a", vec!["b"]), ("b", vec![]), ("z", vec![])] {
            ws.deps.insert(name.into(), deps.into_iter().map(String::from).collect());
        }
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert_eq!(f.len(), 1, "only the dep-reachable impl is audited: {f:?}");
        assert_eq!(f[0].file, "crates/b/src/lib.rs");
    }

    #[test]
    fn qualified_unknown_types_do_not_fan_out() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { let x = Mutex::new(0); }\n\
             impl Pool { fn new() -> Self { let v = vec![1]; Pool { v } } }",
        )]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert!(f.is_empty(), "Mutex::new must not resolve to Pool::new: {f:?}");
    }

    #[test]
    fn banned_paths_and_macros_flag() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() {\n    let v = Vec::new();\n    let b = Box::new(1);\n    \
             let s = format!(\"x\");\n    let w = vec![0u8; 4];\n    panic!(\"no\");\n}\n",
        )]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert_eq!(f.len(), 5, "{f:?}");
    }

    #[test]
    fn hard_assert_flags_but_debug_assert_passes() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() {\n    assert!(x > 0);\n    debug_assert!(x > 0);\n    \
             assert_eq!(a, b); // slc-lint: allow(hot-path): cold validation gate\n}\n",
        )]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].check, f[0].line), (HOT_PATH, 2));
        assert!(f[0].message.contains("`assert!`"), "{f:?}");
    }

    #[test]
    fn fn_level_waiver_prunes_traversal() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { cold(); }\n\
             // slc-lint: allow(hot-path): cold wrapper, allocates the output buffer once\n\
             fn cold() { let v = Vec::new(); deeper(); }\n\
             fn deeper() { panic!(\"never audited via cold\"); }\n",
        )]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert!(f.is_empty(), "waived fn is pruned, not traversed: {f:?}");
    }

    #[test]
    fn test_code_is_invisible_to_the_graph() {
        let ws = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn root() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    \
             fn helper() { panic!(\"test-only twin\"); }\n}\n",
        )]);
        let f = check_hot_paths(&ws, &parse_manifest("crates/a/src/lib.rs::root"));
        assert!(f.is_empty(), "{f:?}");
    }
}
