//! The DAG-covering engine shared by the MIS baseline and Lily: scope
//! iteration (cones or maximal trees), the node life cycle, and match
//! commitment into a [`MappedNetwork`].
//!
//! The engine owns everything that does not depend on the cost model:
//! which nodes are visited in which order, how a chosen cover is turned
//! into cells, how logic duplication (dove reincarnation) is handled,
//! and which committed cells consume each subject signal (the *true
//! fanout* bookkeeping of Section 3.3).
//!
//! Cone covering is incremental. A dove's DP solution depends on a small,
//! known part of the covering state (see [`Engine::visit`]), so the engine
//! keeps it until a commit or a re-solve changes that part, and later
//! cones reuse it instead of solving the dove again.

use crate::error::MapError;
use crate::matching::{Match, MatchIndex};
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_netlist::cones::{cones, maximal_trees, Cone, Tree};
use lily_netlist::{
    LifeCycle, LifeCycleStats, NodeState, SubjectGraph, SubjectKind, SubjectNodeId,
};

/// Optimization objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapMode {
    /// Minimize layout cost (active cell area, plus wiring for Lily).
    #[default]
    Area,
    /// Minimize the worst output arrival time.
    Delay,
}

/// How the subject graph is partitioned for dynamic programming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partition {
    /// Logic cones, one per primary output, with logic duplication
    /// across cones (MIS; what Lily builds on).
    #[default]
    Cones,
    /// Maximal trees split at multi-fanout nodes, no duplication
    /// (DAGON).
    Trees,
}

/// Statistics collected during a mapping run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapStats {
    /// Life-cycle transition counts (Figure 2.2 reproduction).
    pub lifecycle: LifeCycleStats,
    /// Total matches enumerated over the whole graph.
    pub matches_enumerated: usize,
    /// Number of covering scopes processed (cones or trees).
    pub scopes: usize,
    /// Cone-ordering objective value (`Σ_{i<j} E(π_i, π_j)`), when cone
    /// ordering ran.
    pub ordering_cost: Option<usize>,
    /// Cut-enumeration statistics, when the cut mapper ran.
    pub cuts: Option<lily_netlist::CutStats>,
}

/// The output of a mapping run.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapped netlist (positions are meaningful only for Lily).
    pub mapped: MappedNetwork,
    /// Run statistics.
    pub stats: MapStats,
}

/// One unit of covering work.
#[derive(Debug, Clone)]
pub enum Scope {
    /// A logic cone.
    Cone(Cone),
    /// A maximal tree (with a membership mask for match filtering).
    Tree(Tree),
}

impl Scope {
    /// Members in topological order (root last).
    pub fn members(&self) -> &[SubjectNodeId] {
        match self {
            Scope::Cone(c) => &c.members,
            Scope::Tree(t) => &t.members,
        }
    }

    /// The scope root.
    pub fn root(&self) -> SubjectNodeId {
        match self {
            Scope::Cone(c) => c.root,
            Scope::Tree(t) => t.root,
        }
    }
}

/// The shared covering state.
pub struct Engine<'a> {
    /// The subject graph being covered.
    pub g: &'a SubjectGraph,
    /// The target library.
    pub lib: &'a Library,
    /// All matches, per node.
    pub idx: MatchIndex,
    /// Node life cycle (egg / nestling / dove / hawk).
    pub life: LifeCycle,
    /// Chosen match index (into `idx.at(v)`) for each solved node.
    pub chosen: Vec<usize>,
    /// Whether the node has a valid DP solution in the current pass.
    pub solved: Vec<bool>,
    /// Cell implementing each hawk.
    pub cell_of: Vec<Option<CellId>>,
    /// The netlist under construction.
    pub mapped: MappedNetwork,
    /// Committed cells reading each subject node's signal (with the pin
    /// they read it on) — the hawk part of the true-fanout set.
    pub committed_consumers: Vec<Vec<(CellId, usize)>>,
    /// Subject fanout adjacency (cached).
    pub fanouts: Vec<Vec<SubjectNodeId>>,
    /// Primary-output reference counts (cached).
    pub orefs: Vec<usize>,
    /// Whether something the node's stored DP solution read has changed
    /// since it was solved (only consulted for doves).
    stale: Vec<bool>,
    /// The nodes whose solution reads each node (built with the cone
    /// scopes; tree scopes are disjoint and never revisit a node).
    readers: Readers,
    stats: MapStats,
}

/// For every subject node `u`, the nodes with a match that has `u` among
/// its inputs or covered nodes, in one flat compressed row array.
#[derive(Debug, Clone, Default)]
struct Readers {
    /// Row `u` is `nodes[start[u]..start[u + 1]]`; empty until built.
    start: Vec<usize>,
    nodes: Vec<SubjectNodeId>,
}

impl Readers {
    fn build(idx: &MatchIndex, n: usize) -> Self {
        // Two passes over the matches: count, then fill. `last[u]` holds
        // the reader most recently recorded for `u`, which keeps each
        // (u, reader) pair once.
        let mut last = vec![usize::MAX; n];
        let mut start = vec![0usize; n + 1];
        let mut each_pair = |visit: &mut dyn FnMut(usize, usize)| {
            last.fill(usize::MAX);
            for r in 0..n {
                for m in idx.at(SubjectNodeId::from_index(r)) {
                    for u in m.inputs.iter().chain(&m.covered) {
                        if last[u.index()] != r {
                            last[u.index()] = r;
                            visit(u.index(), r);
                        }
                    }
                }
            }
        };
        each_pair(&mut |u, _| start[u + 1] += 1);
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut nodes = vec![SubjectNodeId::from_index(0); start[n]];
        each_pair(&mut |u, r| {
            nodes[fill[u]] = SubjectNodeId::from_index(r);
            fill[u] += 1;
        });
        Self { start, nodes }
    }

    fn of(&self, u: SubjectNodeId) -> &[SubjectNodeId] {
        match self.start.get(u.index()..u.index() + 2) {
            Some(&[lo, hi]) => &self.nodes[lo..hi],
            _ => &[],
        }
    }
}

impl<'a> Engine<'a> {
    /// Builds the engine: enumerates matches and prepares bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates [`MatchIndex::build`] failures.
    pub fn new(g: &'a SubjectGraph, lib: &'a Library) -> Result<Self, MapError> {
        let idx = MatchIndex::build(g, lib)?;
        Ok(Self::with_index(g, lib, idx))
    }

    /// Builds the engine around an externally computed match index
    /// (the cut matcher's entry point; [`Engine::new`] wraps this with
    /// the structural enumeration).
    pub fn with_index(g: &'a SubjectGraph, lib: &'a Library, idx: MatchIndex) -> Self {
        let n = g.node_count();
        let mapped = MappedNetwork::new(g.name(), g.input_names().to_vec());
        let matches_enumerated = idx.total();
        Self {
            g,
            lib,
            idx,
            life: LifeCycle::new(n),
            chosen: vec![0; n],
            solved: vec![false; n],
            cell_of: vec![None; n],
            mapped,
            committed_consumers: vec![Vec::new(); n],
            fanouts: g.fanouts(),
            orefs: g.output_ref_counts(),
            stale: vec![true; n],
            readers: Readers::default(),
            stats: MapStats { matches_enumerated, ..MapStats::default() },
        }
    }

    /// Records cut-enumeration statistics (set by the cut mapper).
    pub fn set_cut_stats(&mut self, stats: lily_netlist::CutStats) {
        self.stats.cuts = Some(stats);
    }

    /// The covering scopes in processing order: the logic cones in
    /// output order, or the maximal trees in topological (root id)
    /// order.
    pub fn scopes(&mut self, partition: Partition) -> Vec<Scope> {
        match partition {
            Partition::Cones => self.cone_scopes(cones(self.g), None),
            Partition::Trees => {
                let trees: Vec<Scope> =
                    maximal_trees(self.g).into_iter().map(Scope::Tree).collect();
                self.stats.scopes = trees.len();
                trees
            }
        }
    }

    /// Cone scopes from already extracted `cones`, optionally reordered
    /// by `order` (a permutation of cone indices; Lily's Section 3.5).
    /// Also builds the reader index that lets later cones skip doves
    /// whose solution is still exact.
    pub(crate) fn cone_scopes(&mut self, cones: Vec<Cone>, order: Option<&[usize]>) -> Vec<Scope> {
        let cones = match order {
            Some(order) => {
                let mut slots: Vec<Option<Cone>> = cones.into_iter().map(Some).collect();
                order.iter().filter_map(|&i| slots[i].take()).collect()
            }
            None => cones,
        };
        self.readers = Readers::build(&self.idx, self.g.node_count());
        self.stats.scopes = cones.len();
        cones.into_iter().map(Scope::Cone).collect()
    }

    /// Prepares node `v` for (re-)solving in the current scope:
    /// hatches eggs and invalidates stale dove solutions. Returns
    /// `false` when there is nothing to solve: for hawks (already
    /// mapped) and for clean doves.
    ///
    /// Doves keep their state here: the DP *costs* them like unmapped
    /// logic (their signal does not exist), but the dove→egg
    /// reincarnation of Figure 2.2 only happens at commit time, when
    /// the duplication actually materializes. This keeps the life-cycle
    /// invariant `hatched = hawks + doves` exact.
    ///
    /// A dove is *clean* when nothing its stored solution read has
    /// changed since it was solved; re-solving it would reproduce the
    /// stored solution bit for bit. A solution at `v` reads only the
    /// stored solutions and hawk state of its matches' inputs, and, for
    /// every input or covered node `u` (`v` itself included),
    /// `committed_consumers[u]` and whether each subject fanout of `u`
    /// is unmapped (egg/nestling) or mapped (dove/hawk). Everything else
    /// it reads is static. [`Engine::commit`] and [`Engine::record`]
    /// mark the readers of whatever of this they change.
    pub fn visit(&mut self, v: SubjectNodeId) -> bool {
        match self.life.state(v) {
            NodeState::Hawk => false,
            NodeState::Nestling => true, // shared node already visited this cone
            NodeState::Dove => {
                let stale = self.stale[v.index()];
                if stale {
                    self.solved[v.index()] = false;
                }
                stale
            }
            NodeState::Egg => {
                self.life.hatch(v);
                self.solved[v.index()] = false;
                true
            }
        }
    }

    /// Records the DP choice at `v` (match `chosen` into `idx.at(v)`).
    /// `changed` says whether the solution values other nodes read
    /// (cost, arrival, gate, position) differ bit for bit from the ones
    /// stored before; only then do the readers of `v` go stale.
    pub(crate) fn record(&mut self, v: SubjectNodeId, chosen: usize, changed: bool) {
        self.chosen[v.index()] = chosen;
        self.solved[v.index()] = true;
        if changed {
            self.mark_readers(v);
        }
        self.stale[v.index()] = false;
    }

    /// Marks stale every node whose solution reads `u`.
    fn mark_readers(&mut self, u: SubjectNodeId) {
        for &r in self.readers.of(u) {
            self.stale[r.index()] = true;
        }
    }

    /// Whether matches rooted in `scope` may use this match (trees:
    /// covered nodes must stay inside the tree).
    pub fn match_allowed(&self, scope: &Scope, m: &Match) -> bool {
        match scope {
            Scope::Cone(_) => true,
            Scope::Tree(t) => m.covered.iter().all(|c| t.members.binary_search(c).is_ok()),
        }
    }

    /// The signal source of a node that must already be available
    /// (input or hawk).
    ///
    /// # Panics
    ///
    /// Panics when called on an unmapped internal node.
    // lily-lint: allow(LL04) -- engine-misuse guard: covers commit bottom-up, so an unmapped node here is a mapper bug, not a recoverable failure
    pub fn signal_of(&self, v: SubjectNodeId) -> SignalSource {
        match self.g.kind(v) {
            SubjectKind::Input(pi) => SignalSource::Input(pi),
            _ => SignalSource::Cell(self.cell_of[v.index()].expect("node not yet committed")),
        }
    }

    /// Commits the chosen cover rooted at `v`, creating cells bottom-up.
    /// `pos_of(v)` supplies each new cell's position. Returns the signal
    /// carrying `v`'s value.
    ///
    /// # Panics
    ///
    /// Panics if a needed node has no DP solution (engine misuse).
    // lily-lint: allow(LL04) -- engine-misuse guard: the DP pass always solves nodes before commit, so there is no caller-facing failure to surface
    pub fn commit(
        &mut self,
        v: SubjectNodeId,
        pos_of: &mut dyn FnMut(SubjectNodeId) -> (f64, f64),
    ) -> SignalSource {
        if let SubjectKind::Input(pi) = self.g.kind(v) {
            return SignalSource::Input(pi);
        }
        if self.life.state(v) == NodeState::Hawk {
            return SignalSource::Cell(self.cell_of[v.index()].expect("hawk has a cell"));
        }
        assert!(self.solved[v.index()], "committing unsolved node {v}");
        // A sibling branch of the same cone may already have absorbed
        // this node into a gate (dove); needing its signal anyway forces
        // logic duplication — the dove reincarnates and is committed as
        // a gate of its own (paper Figure 2.2).
        if self.life.state(v) == NodeState::Dove {
            self.life.reincarnate(v);
            self.life.hatch(v);
        }
        let m = self.idx.at(v)[self.chosen[v.index()]].clone();
        // Resolve fanin signals first (bottom-up recursion).
        let fanins: Vec<SignalSource> =
            m.inputs.iter().map(|&vi| self.commit(vi, pos_of)).collect();
        let cell = self.mapped.add_cell(MappedCell { gate: m.gate, fanins, position: pos_of(v) });
        self.life.commit_hawk(v);
        self.cell_of[v.index()] = Some(cell);
        // `v` turned hawk, which its readers and the readers of its
        // fanins (whose fanout `v` is) see; each input gained a consumer.
        self.mark_readers(v);
        for f in self.g.kind(v).fanins() {
            self.mark_readers(f);
        }
        for (pin, &vi) in m.inputs.iter().enumerate() {
            self.committed_consumers[vi.index()].push((cell, pin));
            self.mark_readers(vi);
        }
        for &c in &m.covered[1..] {
            if self.life.state(c) == NodeState::Nestling {
                self.life.commit_dove(c);
                for f in self.g.kind(c).fanins() {
                    self.mark_readers(f);
                }
            }
        }
        SignalSource::Cell(cell)
    }

    /// Whether absorbing node `c` into a match with covered set
    /// `covered` would orphan consumers: some unmapped subject fanout
    /// outside the match, or a primary output, still needs `c`'s
    /// signal, forcing the logic to be re-derived (duplicated) later.
    pub fn externally_needed(&self, c: SubjectNodeId, covered: &[SubjectNodeId]) -> bool {
        if self.orefs[c.index()] > 0 {
            return true;
        }
        if !self.committed_consumers[c.index()].is_empty() {
            return true;
        }
        self.fanouts[c.index()].iter().any(|&w| {
            !covered.contains(&w)
                && matches!(self.life.state(w), NodeState::Egg | NodeState::Nestling)
        })
    }

    /// Records the cone-ordering objective for the stats.
    pub fn set_ordering_cost(&mut self, cost: usize) {
        self.stats.ordering_cost = Some(cost);
    }

    /// Finalizes: wires primary outputs and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if some output's driver was never committed.
    pub fn finish(mut self) -> MapResult {
        for o in self.g.outputs() {
            let sig = self.signal_of(o.driver);
            self.mapped.add_output(o.name.clone(), sig);
        }
        self.stats.lifecycle = self.life.stats();
        MapResult { mapped: self.mapped, stats: self.stats }
    }
}

/// Designs for the tests that check the stale-dove rule against full
/// re-solves.
#[cfg(test)]
pub(crate) mod stale_rule_designs {
    use crate::flow::FlowOptions;
    use crate::stage::{AssignPads, Decompose, FlowContext, SubjectPlace};
    use lily_cells::Library;
    use lily_netlist::SubjectGraph;
    use lily_place::Point;
    use lily_workloads::circuits;
    use lily_workloads::scale::{random_dag, RandomDagOptions};

    /// misex1, C432 and two 300-node random DAGs, decomposed, with the
    /// flow's own subject placement and output pads.
    pub(crate) fn designs(lib: &Library) -> Vec<(SubjectGraph, Vec<Point>, Vec<Point>)> {
        let dag =
            |seed| random_dag(RandomDagOptions { target_nodes: 300, seed, ..Default::default() });
        [circuits::misex1(), circuits::c432(), dag(3), dag(4)]
            .iter()
            .map(|net| {
                let mut ctx = FlowContext::new(lib, FlowOptions::lily_area());
                let g = ctx.run(&Decompose, net).unwrap();
                let plan = ctx.run(&AssignPads, &*g).unwrap();
                let image = ctx.run(&SubjectPlace, (&*g, &plan)).unwrap();
                let place = image.positions.unwrap();
                let pads = plan.output_pads(&g).to_vec();
                ((*g).clone(), place, pads)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and2(a, b);
        let root = g.nand2(ab, c);
        g.set_output("y", root);
        g
    }

    #[test]
    fn engine_builds_and_iterates_scopes() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let cones = e.scopes(Partition::Cones);
        assert_eq!(cones.len(), 1);
        let trees = e.scopes(Partition::Trees);
        assert_eq!(trees.len(), 1); // single-fanout chain: one tree
    }

    #[test]
    fn visit_transitions() {
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let v = g.outputs()[0].driver;
        assert!(e.visit(v));
        assert_eq!(e.life.state(v), NodeState::Nestling);
        assert!(e.visit(v)); // idempotent within a cone
    }

    #[test]
    fn tree_mode_filters_cross_boundary_matches() {
        // Multi-fanout node: matches covering it from above are rejected
        // in tree mode.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let shared = g.nand2(a, b);
        let inv = g.inv(shared);
        g.set_output("y1", inv);
        g.set_output("y2", shared);
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let scopes = e.scopes(Partition::Trees);
        let inv_tree = scopes.iter().find(|s| s.root() == inv).expect("inverter tree");
        // and2 gate at `inv` would cover `shared`, which is outside the
        // inverter's tree.
        for m in e.idx.at(inv) {
            let crosses = m.covered.contains(&shared);
            assert_eq!(e.match_allowed(inv_tree, m), !crosses);
        }
    }

    #[test]
    fn externally_needed_tracks_orphaned_consumers() {
        // shared = nand(a, b) feeds an inverter (PO y1) and drives PO y2
        // directly.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let shared = g.nand2(a, b);
        let inv = g.inv(shared);
        g.set_output("y1", inv);
        g.set_output("y2", shared);
        let lib = Library::big();
        let e = Engine::new(&g, &lib).unwrap();
        // Covering `shared` while also covering its only fanout (`inv`)
        // still orphans the primary output y2.
        assert!(e.externally_needed(shared, &[inv, shared]));
        // The inverter itself has no consumers outside its PO... it
        // drives y1, so it is externally needed too.
        assert!(e.externally_needed(inv, &[inv]));
        // A node whose only fanout is inside the cover and with no PO
        // reference is not externally needed.
        let mut g2 = SubjectGraph::new("g2");
        let a2 = g2.add_input("a");
        let b2 = g2.add_input("b");
        let n = g2.nand2(a2, b2);
        let m = g2.inv(n);
        g2.set_output("y", m);
        let e2 = Engine::new(&g2, &lib).unwrap();
        assert!(!e2.externally_needed(n, &[m, n]));
    }

    #[test]
    fn commit_builds_equivalent_netlist() {
        // Drive the engine by hand with a trivial cost rule: first match.
        let g = graph();
        let lib = Library::big();
        let mut e = Engine::new(&g, &lib).unwrap();
        let scopes = e.scopes(Partition::Cones);
        for s in &scopes {
            for &v in s.members() {
                if e.visit(v) {
                    e.record(v, 0, true);
                }
            }
            e.commit(s.root(), &mut |_| (0.0, 0.0));
        }
        let r = e.finish();
        assert!(lily_cells::mapped::equiv_mapped_subject(&g, &r.mapped, &lib, 64, 7));
        assert!(r.stats.lifecycle.hawks >= 1);
    }
}
