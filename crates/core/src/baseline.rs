//! The wire-blind baseline mapper: DAGON / MIS 2.1 behaviour.
//!
//! Area mode minimizes total gate area; delay mode minimizes the worst
//! output arrival under the linear delay model with a *wire-blind* load
//! (constant per-fanout capacitance, as MIS 2.1 models `C_w` as a
//! function of the fanout count — paper Section 4.2). Positions play no
//! role; the physical design tools get the netlist afterwards.

use crate::cover::{Engine, MapMode, MapResult, Partition, Scope};
use crate::error::MapError;
use lily_cells::Library;
use lily_netlist::{SubjectGraph, SubjectKind, SubjectNodeId};
use lily_timing::{propagate, unateness, Arrival};

/// Options for the baseline mapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineOptions {
    /// Optimization objective.
    pub mode: MapMode,
    /// Covering partition.
    pub partition: Partition,
    /// Wire capacitance charged per fanout edge in delay mode, pF
    /// (MIS's fanout-count wire model; 0 disables).
    pub wire_cap_per_fanout: f64,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        Self { mode: MapMode::Area, partition: Partition::Cones, wire_cap_per_fanout: 0.0 }
    }
}

/// The MIS 2.1-style technology mapper.
///
/// ```
/// use lily_cells::Library;
/// use lily_core::{MisMapper, MapMode};
/// use lily_netlist::SubjectGraph;
///
/// # fn main() -> Result<(), lily_core::MapError> {
/// let lib = Library::big();
/// let mut g = SubjectGraph::new("demo");
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let n = g.nand2(a, b);
/// g.set_output("y", n);
/// let result = MisMapper::new(&lib).map(&g)?;
/// assert_eq!(result.mapped.cell_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MisMapper<'l> {
    lib: &'l Library,
    options: BaselineOptions,
}

impl<'l> MisMapper<'l> {
    /// Creates an area-mode cone-covering mapper.
    pub fn new(lib: &'l Library) -> Self {
        Self { lib, options: BaselineOptions::default() }
    }

    /// Sets the objective.
    #[must_use]
    pub fn mode(mut self, mode: MapMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Sets the covering partition.
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.options.partition = partition;
        self
    }

    /// Sets the per-fanout wire capacitance used in delay mode.
    #[must_use]
    pub fn wire_cap_per_fanout(mut self, cap: f64) -> Self {
        self.options.wire_cap_per_fanout = cap;
        self
    }

    /// Maps a subject graph.
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map(&self, g: &SubjectGraph) -> Result<MapResult, MapError> {
        let mut e = Engine::new(g, self.lib)?;
        let scopes = e.scopes(self.options.partition);
        let mut dp = MisDp::new(self, g.node_count());
        for scope in &scopes {
            dp.cover(&mut e, scope)?;
        }
        Ok(e.finish())
    }

    /// Wire-blind output load at a subject node: all base fanouts.
    fn load_of(&self, e: &Engine, v: SubjectNodeId) -> f64 {
        let fanout = e.fanouts[v.index()].len() + e.orefs[v.index()];
        fanout as f64 * (self.lib.technology().pin_cap + self.options.wire_cap_per_fanout)
    }

    /// Solves `v` against the engine's current state: the best match's
    /// index, its DP area (the delay-mode tiebreak) and, in delay mode,
    /// its output arrival (zero in area mode).
    fn solve(
        &self,
        e: &Engine,
        scope: &Scope,
        v: SubjectNodeId,
        area: &[f64],
        arrival: &[Arrival],
    ) -> Result<(usize, f64, Arrival), MapError> {
        let mut best: Option<(f64, f64, usize, Arrival)> = None; // (key, tiebreak, match, arrival)
        let cl = self.load_of(e, v);
        for (mi, m) in e.idx.at(v).iter().enumerate() {
            if !e.match_allowed(scope, m) {
                continue;
            }
            let gate = self.lib.gate(m.gate);
            // Area accumulation (also the delay-mode tiebreak).
            let mut a = gate.area();
            for &vi in &m.inputs {
                if self.dp_contributes(e, vi) {
                    a += area[vi.index()];
                }
            }
            let (key, tiebreak, arr) = match self.options.mode {
                MapMode::Area => (a, 0.0, Arrival::ZERO),
                MapMode::Delay => {
                    let mut out = Arrival::NEG_INF;
                    for (pi, (&vi, pin)) in m.inputs.iter().zip(gate.pins()).enumerate() {
                        let t_in = self.input_arrival(e, vi, arrival);
                        let u = unateness(gate.function(), pi);
                        out = out.max(propagate(t_in, pin, u, cl));
                    }
                    (out.worst(), a, out)
                }
            };
            if best.is_none_or(|(bk, bt, _, _)| {
                key < bk - 1e-12 || (key < bk + 1e-12 && tiebreak < bt - 1e-12)
            }) {
                best = Some((key, tiebreak, mi, arr));
            }
        }
        let (key, tiebreak, mi, arr) = best.ok_or(MapError::NoMatch { node: v.index() })?;
        Ok(match self.options.mode {
            MapMode::Area => (mi, key, arr),
            MapMode::Delay => (mi, tiebreak, arr),
        })
    }

    /// Whether `vi` contributes a DP cost (false for primary inputs and
    /// already-committed hawks, whose cost is sunk).
    fn dp_contributes(&self, e: &Engine, vi: SubjectNodeId) -> bool {
        !matches!(e.g.kind(vi), SubjectKind::Input(_))
            && e.life.state(vi) != lily_netlist::NodeState::Hawk
    }

    fn input_arrival(&self, e: &Engine, vi: SubjectNodeId, arrival: &[Arrival]) -> Arrival {
        match e.g.kind(vi) {
            SubjectKind::Input(_) => Arrival::ZERO,
            _ => arrival[vi.index()],
        }
    }
}

/// The baseline DP's stored per-node values (hawks keep theirs across
/// cones).
struct MisDp<'m, 'l> {
    mapper: &'m MisMapper<'l>,
    area: Vec<f64>,
    arrival: Vec<Arrival>,
}

impl<'m, 'l> MisDp<'m, 'l> {
    fn new(mapper: &'m MisMapper<'l>, n: usize) -> Self {
        Self { mapper, area: vec![0.0; n], arrival: vec![Arrival::ZERO; n] }
    }

    /// Covers one scope: solves every node the engine hands out, then
    /// commits the chosen cover.
    fn cover(&mut self, e: &mut Engine, scope: &Scope) -> Result<(), MapError> {
        for &v in scope.members() {
            if e.visit(v) {
                let (mi, a, arr) = self.mapper.solve(e, scope, v, &self.area, &self.arrival)?;
                self.store(e, v, mi, a, arr);
            }
        }
        e.commit(scope.root(), &mut |_| (0.0, 0.0));
        Ok(())
    }

    /// Stores the values of `v`; its readers go stale only if they
    /// differ bit for bit from the stored ones.
    fn store(&mut self, e: &mut Engine, v: SubjectNodeId, mi: usize, a: f64, arr: Arrival) {
        let old = (self.area[v.index()], self.arrival[v.index()]);
        let changed = old.0.to_bits() != a.to_bits()
            || old.1.rise.to_bits() != arr.rise.to_bits()
            || old.1.fall.to_bits() != arr.fall.to_bits();
        self.area[v.index()] = a;
        self.arrival[v.index()] = arr;
        e.record(v, mi, changed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::mapped::equiv_mapped_subject;
    use lily_netlist::decompose::{decompose, DecomposeOrder};
    use lily_netlist::{Network, NodeFunc};

    fn nand6_graph() -> SubjectGraph {
        let mut net = Network::new("n6");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let o = net.add_node("o", NodeFunc::Nand, ins).unwrap();
        net.add_output("y", o);
        decompose(&net, DecomposeOrder::Balanced).unwrap()
    }

    #[test]
    fn area_mode_uses_one_big_gate() {
        let lib = Library::big();
        let g = nand6_graph();
        let r = MisMapper::new(&lib).map(&g).unwrap();
        // One nand6 beats any multi-gate cover on area.
        assert_eq!(r.mapped.cell_count(), 1);
        assert_eq!(lib.gate(r.mapped.cells()[0].gate).name(), "nand6");
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 64, 3));
    }

    #[test]
    fn tiny_library_needs_more_gates() {
        let tiny = Library::tiny();
        let big = Library::big();
        let g = nand6_graph();
        let rt = MisMapper::new(&tiny).map(&g).unwrap();
        let rb = MisMapper::new(&big).map(&g).unwrap();
        assert!(rt.mapped.cell_count() > rb.mapped.cell_count());
        assert!(equiv_mapped_subject(&g, &rt.mapped, &tiny, 64, 3));
    }

    #[test]
    fn mapping_preserves_function_on_random_logic() {
        let lib = Library::big();
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_node("g1", NodeFunc::Xor, vec![a, b]).unwrap();
        let g2 = net.add_node("g2", NodeFunc::Nand, vec![g1, c]).unwrap();
        let g3 = net.add_node("g3", NodeFunc::Nor, vec![g2, d]).unwrap();
        let g4 = net.add_node("g4", NodeFunc::And, vec![g1, g3]).unwrap();
        net.add_output("y1", g3);
        net.add_output("y2", g4);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        for partition in [Partition::Cones, Partition::Trees] {
            for mode in [MapMode::Area, MapMode::Delay] {
                let r = MisMapper::new(&lib).mode(mode).partition(partition).map(&g).unwrap();
                assert!(
                    equiv_mapped_subject(&g, &r.mapped, &lib, 256, 11),
                    "{partition:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn delay_mode_is_no_slower_than_area_mode() {
        use lily_timing::load::WireLoad;
        use lily_timing::{try_analyze, StaOptions};
        let lib = Library::big();
        // A chain deep enough that gate choice matters.
        let mut net = Network::new("chain");
        let mut prev = net.add_input("i0");
        for i in 0..10 {
            let x = net.add_input(format!("x{i}"));
            prev = net.add_node(format!("g{i}"), NodeFunc::Nand, vec![prev, x]).unwrap();
        }
        net.add_output("y", prev);
        let g = decompose(&net, DecomposeOrder::Chain).unwrap();
        let opts = StaOptions { wire_load: WireLoad::None, input_arrival: 0.0 };
        let ra = MisMapper::new(&lib).mode(MapMode::Area).map(&g).unwrap();
        let rd = MisMapper::new(&lib).mode(MapMode::Delay).map(&g).unwrap();
        let da = try_analyze(&ra.mapped, &lib, &opts).expect("sta failed").critical_delay;
        let dd = try_analyze(&rd.mapped, &lib, &opts).expect("sta failed").critical_delay;
        assert!(dd <= da + 1e-9, "delay mode {dd} worse than area mode {da}");
    }

    #[test]
    fn duplication_happens_across_cones() {
        // Shared logic feeding two outputs through different structures:
        // cone covering may duplicate it.
        let lib = Library::big();
        let mut net = Network::new("dup");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let shared = net.add_node("s", NodeFunc::And, vec![a, b]).unwrap();
        let y1 = net.add_node("y1", NodeFunc::Nand, vec![shared, c]).unwrap();
        let y2 = net.add_node("y2", NodeFunc::Nor, vec![shared, c]).unwrap();
        net.add_output("o1", y1);
        net.add_output("o2", y2);
        let g = decompose(&net, DecomposeOrder::Balanced).unwrap();
        let r = MisMapper::new(&lib).map(&g).unwrap();
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 64, 5));
        // The run must have recorded life-cycle activity.
        assert!(r.stats.lifecycle.hawks > 0);
        assert!(r.stats.lifecycle.hatched >= r.stats.lifecycle.hawks);
    }

    #[test]
    fn outputs_driven_by_inputs_pass_through() {
        let lib = Library::big();
        let mut g = SubjectGraph::new("wire");
        let a = g.add_input("a");
        g.set_output("y", a);
        let r = MisMapper::new(&lib).map(&g).unwrap();
        assert_eq!(r.mapped.cell_count(), 0);
        assert!(equiv_mapped_subject(&g, &r.mapped, &lib, 4, 1));
    }

    #[test]
    fn skipped_doves_match_a_full_re_solve() {
        // Runs the DP cone by cone like `MisMapper::map`, but re-solves
        // every dove the engine skips as clean and asserts that the
        // stored choice and values are bit-identical to the re-solve.
        use crate::cover::stale_rule_designs::designs;
        use lily_netlist::NodeState;
        let lib = Library::big();
        for (g, _, _) in designs(&lib) {
            for mode in [MapMode::Area, MapMode::Delay] {
                let mapper = MisMapper::new(&lib).mode(mode).wire_cap_per_fanout(0.03);
                let mut e = Engine::new(&g, &lib).unwrap();
                let scopes = e.scopes(Partition::Cones);
                let mut dp = MisDp::new(&mapper, g.node_count());
                let mut checked = 0;
                for scope in &scopes {
                    for &v in scope.members() {
                        let dove = e.life.state(v) == NodeState::Dove;
                        if e.visit(v) {
                            let (mi, a, arr) =
                                mapper.solve(&e, scope, v, &dp.area, &dp.arrival).unwrap();
                            dp.store(&mut e, v, mi, a, arr);
                        } else if dove {
                            let (mi, a, arr) =
                                mapper.solve(&e, scope, v, &dp.area, &dp.arrival).unwrap();
                            let i = v.index();
                            assert_eq!(mi, e.chosen[i], "dove {v}: choice");
                            assert_eq!(a.to_bits(), dp.area[i].to_bits(), "dove {v}: area");
                            assert_eq!(
                                arr.rise.to_bits(),
                                dp.arrival[i].rise.to_bits(),
                                "dove {v}"
                            );
                            assert_eq!(
                                arr.fall.to_bits(),
                                dp.arrival[i].fall.to_bits(),
                                "dove {v}"
                            );
                            checked += 1;
                        }
                    }
                    e.commit(scope.root(), &mut |_| (0.0, 0.0));
                }
                assert!(checked > 0, "{} {mode:?}: no dove was skipped", g.name());
            }
        }
    }
}
