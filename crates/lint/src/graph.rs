//! The workspace call graph and the contract-reachability engine.
//!
//! Built from the per-file items recovered by [`crate::parse`], this
//! module replaces the old hand-maintained `BIT_IDENTITY_FILES` list
//! with *contract entry points* ([`CONTRACT_ROOTS`]): named functions
//! whose transitive callees are computed and policed automatically. A
//! helper module called from `index.rs` is inside the bit-identity
//! contract the day it is created — no list to forget to update.
//!
//! # Name resolution (best-effort, by construction conservative)
//!
//! Resolution runs on names, not types, and errs toward *more* edges —
//! a false edge only widens the policed set, a missing edge would
//! silently narrow it:
//!
//! * **Bare calls** `name(…)` resolve to every free function named
//!   `name` in the caller's crate, then (if none) in its blessed
//!   callee crates.
//! * **Qualified calls** `Head::name(…)` try `Head::name` as an
//!   impl/trait-qualified item, then fall back to a free `name`
//!   (module-path heads like `clock::now_ns`), caller crate
//!   first, blessed crates after.
//! * **Method calls** `.name(…)` resolve to *every* function named
//!   `name` in the caller's crate and its blessed crates (union): on
//!   tokens there is no receiver type, so all candidates are policed.
//! * **Cross-crate edges** exist only along [`BLESSED_CROSS_CRATE`].
//!   Everything else (vendored shims, `std`) is a resolution boundary.
//! * Test items never enter the graph — an in-test naive reference
//!   model defining `fn pop` must not police the library's `pop`.
//!
//! Unresolvable calls (closure parameters, fn pointers, macro bodies)
//! produce no edge; the `WorkerPool` dispatch boundary — the one place
//! a fn pointer launders code onto other threads — is recovered
//! explicitly: every `WorkerPool::new(workers, worker_fn …)` call site
//! marks `worker_fn` as a **pool root**, and the C2 rule polices its
//! transitive callees (see [`crate::rules`]).

use crate::parse::{Callee, ParsedFile};
use crate::FileClass;
use std::collections::HashMap;

/// A contract entry point: `file` anchors the root (so the spec rots
/// loudly — if the file still exists but the function is gone, G1
/// fires), `qual` names the function as the parser qualifies it.
#[derive(Debug, Clone, Copy)]
pub struct ContractRoot {
    pub file: &'static str,
    pub qual: &'static str,
}

/// The bit-identity contract entry points. Everything transitively
/// callable from these functions is policed by the contract rules
/// (C2/C3, and D1/D3/S2 through the deterministic-crate scoping).
/// DESIGN.md §15 documents how to bless a new root.
pub const CONTRACT_ROOTS: &[ContractRoot] = &[
    // The whole cell simulation: placement, dispatch, usage accounting.
    ContractRoot {
        file: "crates/sim/src/cell.rs",
        qual: "CellSim::run_cell",
    },
    // Multi-cell fan-out over the worker pool.
    ContractRoot {
        file: "crates/sim/src/multi.rs",
        qual: "run_cells_parallel",
    },
    // The parallel==sequential query contracts.
    ContractRoot {
        file: "crates/query/src/parallel.rs",
        qual: "map_blocks",
    },
    ContractRoot {
        file: "crates/query/src/groupby.rs",
        qual: "group_by",
    },
    // The serve state machine's decision surface: every admission /
    // retry / expiry decision and the replayable event log flow from
    // these two entry points.
    ContractRoot {
        file: "crates/serve/src/service.rs",
        qual: "Service::submit",
    },
    ContractRoot {
        file: "crates/serve/src/service.rs",
        qual: "Service::on_attempt_done",
    },
    // The virtual-time overload driver (byte-replayable end to end).
    ContractRoot {
        file: "crates/serve/src/sim.rs",
        qual: "ServeSim::run",
    },
];

/// Crate pairs along which calls resolve: `(caller, callees)`. The sim
/// consumes workload generation and trace-schema math inside its
/// determinism contract; everything else is a boundary.
pub const BLESSED_CROSS_CRATE: &[(&str, &[&str])] = &[
    ("sim", &["workload", "trace"]),
    ("workload", &["trace"]),
    ("borg2019", &["sim", "query", "trace"]),
    // The query service executes plans through the engine and loads
    // epochs through core; its event-log determinism contract leans on
    // both, so calls resolve across and stay policed.
    ("serve", &["query", "core", "trace", "telemetry"]),
];

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the file table.
    pub file: usize,
    pub qual: String,
    pub name: String,
    pub trait_qual: Option<String>,
    pub line: u32,
    pub end_line: u32,
}

/// Why a node is policed, for `--explain` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachKind {
    /// Transitively callable from a [`ContractRoot`].
    Contract,
    /// Transitively callable from a `WorkerPool` worker function.
    Pool,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Repo-relative paths, in scan order.
    pub files: Vec<String>,
    /// Crate of each file (from [`FileClass`]).
    crates: Vec<String>,
    pub nodes: Vec<Node>,
    /// Sorted, deduped callee-node indices per node.
    pub edges: Vec<Vec<usize>>,
    /// Contract roots that resolved, as node indices (with root-table
    /// index for provenance).
    pub roots: Vec<(usize, usize)>,
    /// Roots whose anchor file is present but whose function is not:
    /// `(file, qual)` — the linter turns these into G1 findings.
    pub missing_roots: Vec<(String, &'static str)>,
    /// Pool worker functions, as `(call-site file, line, node)`.
    pub pool_roots: Vec<(usize, u32, usize)>,
    /// `WorkerPool::new` call sites whose worker argument did not
    /// resolve to a named function: `(file, line)` — C2 findings.
    pub opaque_pool_workers: Vec<(usize, u32)>,
}

/// Reachability over the graph: per node, whether the contract and/or
/// pool closures cover it, plus BFS parents for `--explain` chains.
pub struct Reachability {
    pub contract: Vec<bool>,
    pub pool: Vec<bool>,
    /// BFS parent (node index) per node, per closure; roots have none.
    pub contract_parent: Vec<Option<usize>>,
    pub pool_parent: Vec<Option<usize>>,
}

/// Line ranges a file is policed on, handed to the rule passes.
#[derive(Debug, Clone, Default)]
pub struct FileScope {
    /// `(start_line, end_line)` of contract-reachable fns.
    pub contract: Vec<(u32, u32)>,
    /// `(start_line, end_line)` of pool-dispatched fns (transitive).
    pub pool: Vec<(u32, u32)>,
    /// `(start_line, end_line)` of pool *worker* fns themselves (the
    /// direct dispatch bodies; C2's indexing arm applies only here).
    pub pool_direct: Vec<(u32, u32)>,
    /// `WorkerPool::new` call sites with unresolvable worker fns.
    pub opaque_pool_workers: Vec<u32>,
}

impl FileScope {
    /// True when `line` falls in a contract-reachable fn.
    pub fn in_contract(&self, line: u32) -> bool {
        self.contract.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// True when `line` falls in pool-dispatched code.
    pub fn in_pool(&self, line: u32) -> bool {
        self.pool.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// True when `line` falls in a pool worker fn's own body.
    pub fn in_pool_direct(&self, line: u32) -> bool {
        self.pool_direct
            .iter()
            .any(|&(s, e)| s <= line && line <= e)
    }
}

impl CallGraph {
    /// Builds and resolves the graph over parsed files. `files` holds
    /// `(rel_path, class, parsed)` triples in scan order.
    pub fn build(files: &[(String, FileClass, ParsedFile)]) -> CallGraph {
        let mut g = CallGraph {
            files: files.iter().map(|(rel, _, _)| rel.clone()).collect(),
            crates: files.iter().map(|(_, fc, _)| fc.krate.clone()).collect(),
            nodes: Vec::new(),
            edges: Vec::new(),
            roots: Vec::new(),
            missing_roots: Vec::new(),
            pool_roots: Vec::new(),
            opaque_pool_workers: Vec::new(),
        };
        // Nodes: every non-test fn item, in file order.
        for (fi, (_, _, pf)) in files.iter().enumerate() {
            for f in &pf.fns {
                if f.is_test {
                    continue;
                }
                g.nodes.push(Node {
                    file: fi,
                    qual: f.qual.clone(),
                    name: f.name.clone(),
                    trait_qual: f.trait_qual.clone(),
                    line: f.line,
                    end_line: f.end_line,
                });
            }
        }

        // Per-crate name indices.
        #[derive(Default)]
        struct CrateIndex {
            by_qual: HashMap<String, Vec<usize>>,
            by_bare: HashMap<String, Vec<usize>>,
            by_method: HashMap<String, Vec<usize>>,
        }
        let mut index: HashMap<&str, CrateIndex> = HashMap::new();
        for (ni, n) in g.nodes.iter().enumerate() {
            let ci = index.entry(g.crates[n.file].as_str()).or_default();
            ci.by_qual.entry(n.qual.clone()).or_default().push(ni);
            if let Some(tq) = &n.trait_qual {
                ci.by_qual.entry(tq.clone()).or_default().push(ni);
            }
            if n.qual == n.name {
                ci.by_bare.entry(n.name.clone()).or_default().push(ni);
            }
            ci.by_method.entry(n.name.clone()).or_default().push(ni);
        }
        let blessed = |krate: &str| -> &[&str] {
            BLESSED_CROSS_CRATE
                .iter()
                .find(|(c, _)| *c == krate)
                .map(|(_, callees)| *callees)
                .unwrap_or(&[])
        };
        // Lookup with caller-crate-first, blessed-crates-fallback order;
        // `union` adds blessed hits even when the caller crate matched.
        let lookup =
            |krate: &str, pick: &dyn Fn(&CrateIndex) -> Option<Vec<usize>>, union: bool| {
                let mut out: Vec<usize> = Vec::new();
                if let Some(hits) = index.get(krate).and_then(pick) {
                    out.extend(hits);
                }
                if out.is_empty() || union {
                    for callee in blessed(krate) {
                        if let Some(hits) = index.get(callee).and_then(pick) {
                            out.extend(hits);
                        }
                    }
                }
                out
            };

        // Edges + pool-root discovery. Node order matches fn iteration
        // order per file, so walk both in lockstep.
        for (fi, (_, fc, pf)) in files.iter().enumerate() {
            let krate = fc.krate.as_str();
            for f in &pf.fns {
                if f.is_test {
                    continue;
                }
                let mut targets: Vec<usize> = Vec::new();
                for (c, call) in f.calls.iter().enumerate() {
                    match &call.callee {
                        Callee::Bare(name) | Callee::FnRef(name) => {
                            let name = name.clone();
                            targets.extend(lookup(
                                krate,
                                &move |ci: &CrateIndex| ci.by_bare.get(&name).cloned(),
                                false,
                            ));
                        }
                        Callee::Qualified(head, name) => {
                            // `WorkerPool::new(workers, worker_fn as fn…)`
                            // (and the serve crate's streaming
                            // `ServePool::new`): the worker fn (the next
                            // fn-pointer cast in token order) is a pool
                            // root.
                            if (head == "WorkerPool" || head == "ServePool") && name == "new" {
                                let worker =
                                    f.calls[c + 1..].iter().find_map(|w| match &w.callee {
                                        Callee::FnRef(n) => Some(n.clone()),
                                        _ => None,
                                    });
                                match worker {
                                    Some(w) => {
                                        let hits = lookup(
                                            krate,
                                            &move |ci: &CrateIndex| ci.by_bare.get(&w).cloned(),
                                            false,
                                        );
                                        if hits.is_empty() {
                                            g.opaque_pool_workers.push((fi, call.line));
                                        }
                                        for h in hits {
                                            g.pool_roots.push((fi, call.line, h));
                                        }
                                    }
                                    None => g.opaque_pool_workers.push((fi, call.line)),
                                }
                            }
                            let key = format!("{head}::{name}");
                            let q = key.clone();
                            let mut hits = lookup(
                                krate,
                                &move |ci: &CrateIndex| ci.by_qual.get(&q).cloned(),
                                false,
                            );
                            if hits.is_empty() {
                                // Module-path head: fall back to a free fn.
                                let b = name.clone();
                                hits = lookup(
                                    krate,
                                    &move |ci: &CrateIndex| ci.by_bare.get(&b).cloned(),
                                    false,
                                );
                            }
                            targets.extend(hits);
                        }
                        Callee::Method(name) => {
                            let m = name.clone();
                            targets.extend(lookup(
                                krate,
                                &move |ci: &CrateIndex| ci.by_method.get(&m).cloned(),
                                true,
                            ));
                        }
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                g.edges.push(targets);
            }
        }

        // Resolve contract roots against the node table.
        let file_present = |file: &str| g.files.iter().any(|f| f == file);
        for (ri, root) in CONTRACT_ROOTS.iter().enumerate() {
            let hits: Vec<usize> = g
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| g.files[n.file] == root.file && n.qual == root.qual)
                .map(|(ni, _)| ni)
                .collect();
            if hits.is_empty() {
                if file_present(root.file) {
                    g.missing_roots.push((root.file.to_string(), root.qual));
                }
            } else {
                for h in hits {
                    g.roots.push((ri, h));
                }
            }
        }
        g
    }

    /// BFS closures from the contract and pool roots.
    pub fn reach(&self) -> Reachability {
        let bfs = |seeds: &[usize]| -> (Vec<bool>, Vec<Option<usize>>) {
            let mut seen = vec![false; self.nodes.len()];
            let mut parent = vec![None; self.nodes.len()];
            let mut queue: Vec<usize> = Vec::new();
            for &s in seeds {
                if !seen[s] {
                    seen[s] = true;
                    queue.push(s);
                }
            }
            let mut head = 0;
            while head < queue.len() {
                let n = queue[head];
                head += 1;
                for &m in &self.edges[n] {
                    if !seen[m] {
                        seen[m] = true;
                        parent[m] = Some(n);
                        queue.push(m);
                    }
                }
            }
            (seen, parent)
        };
        let contract_seeds: Vec<usize> = self.roots.iter().map(|&(_, n)| n).collect();
        let pool_seeds: Vec<usize> = self.pool_roots.iter().map(|&(_, _, n)| n).collect();
        let (contract, contract_parent) = bfs(&contract_seeds);
        let (pool, pool_parent) = bfs(&pool_seeds);
        Reachability {
            contract,
            pool,
            contract_parent,
            pool_parent,
        }
    }

    /// Per-file policed line ranges, in file order.
    pub fn file_scopes(&self, reach: &Reachability) -> Vec<FileScope> {
        let mut scopes: Vec<FileScope> = (0..self.files.len())
            .map(|_| FileScope::default())
            .collect();
        for (ni, n) in self.nodes.iter().enumerate() {
            let span = (n.line, n.end_line);
            if reach.contract[ni] {
                scopes[n.file].contract.push(span);
            }
            if reach.pool[ni] {
                scopes[n.file].pool.push(span);
            }
        }
        for &(_, _, ni) in &self.pool_roots {
            let n = &self.nodes[ni];
            scopes[n.file].pool_direct.push((n.line, n.end_line));
        }
        for &(fi, line) in &self.opaque_pool_workers {
            scopes[fi].opaque_pool_workers.push(line);
        }
        scopes
    }

    /// The BFS chain `root → … → node`, for `--explain`.
    pub fn chain(&self, reach: &Reachability, kind: ReachKind, node: usize) -> Option<Vec<usize>> {
        let (seen, parent) = match kind {
            ReachKind::Contract => (&reach.contract, &reach.contract_parent),
            ReachKind::Pool => (&reach.pool, &reach.pool_parent),
        };
        if !seen[node] {
            return None;
        }
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        Some(chain)
    }

    /// Nodes whose qualified or bare name matches `needle`.
    pub fn find(&self, needle: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qual == needle || n.name == needle)
            .map(|(ni, _)| ni)
            .collect()
    }

    /// One line per reachable fn, sorted — the `--dump-graph` artifact
    /// reviews diff against.
    pub fn dump(&self, reach: &Reachability) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (ni, n) in self.nodes.iter().enumerate() {
            let c = reach.contract[ni];
            let p = reach.pool[ni];
            if !c && !p {
                continue;
            }
            let tag = match (c, p) {
                (true, true) => "contract+pool",
                (true, false) => "contract",
                _ => "pool",
            };
            lines.push(format!(
                "{}:{}\t{}\t{}",
                self.files[n.file], n.line, n.qual, tag
            ));
        }
        lines.sort();
        lines.join("\n")
    }

    /// Render of a node for human output.
    pub fn describe(&self, node: usize) -> String {
        let n = &self.nodes[node];
        format!("{} ({}:{})", n.qual, self.files[n.file], n.line)
    }
}
