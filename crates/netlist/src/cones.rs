//! Logic cones, maximal trees, and the cone-ordering heuristic.
//!
//! MIS splits the inchoate network into *logic cones* — one per primary
//! output, containing the output's transitive fanin — and maps them one
//! at a time, allowing logic duplication across cone boundaries. DAGON
//! instead partitions into *maximal trees* at multi-fanout nodes. Both
//! partitions are provided here.
//!
//! Section 3.5 of the paper orders cones so that the number of *exit
//! lines* (edges leaving an already-mapped cone into a not-yet-mapped
//! one) is minimized, making the fanin rectangles built during mapping
//! more trustworthy. [`exit_line_matrix`] and [`order_cones`] implement
//! that exactly: build the asymmetric matrix `E` and repeatedly extract
//! the row with minimum remaining row sum.

use crate::subject::{SubjectGraph, SubjectKind, SubjectNodeId};

/// One logic cone: a primary output plus its transitive fanin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// Index of the primary output this cone feeds.
    pub output_index: usize,
    /// The node driving the output.
    pub root: SubjectNodeId,
    /// All non-input member nodes in topological order (root last).
    pub members: Vec<SubjectNodeId>,
}

/// One maximal tree of the DAGON partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// The tree root: a multi-fanout node or a primary-output driver.
    pub root: SubjectNodeId,
    /// Non-input members in topological order (root last). Leaves of the
    /// tree (inputs or other trees' roots) are *not* members.
    pub members: Vec<SubjectNodeId>,
}

/// Extracts the logic cone of every primary output.
///
/// Outputs driven directly by a primary input produce an empty-member
/// cone whose root is that input.
pub fn cones(g: &SubjectGraph) -> Vec<Cone> {
    g.outputs()
        .iter()
        .enumerate()
        .map(|(oi, o)| {
            let mut seen = vec![false; g.node_count()];
            let mut stack = vec![o.driver];
            let mut members = Vec::new();
            while let Some(n) = stack.pop() {
                if seen[n.index()] {
                    continue;
                }
                seen[n.index()] = true;
                if !matches!(g.kind(n), SubjectKind::Input(_)) {
                    members.push(n);
                    stack.extend(g.kind(n).fanins());
                }
            }
            members.sort_unstable(); // creation order == topological order
            Cone { output_index: oi, root: o.driver, members }
        })
        .collect()
}

/// Partitions the internal nodes into maximal trees by cutting every
/// multi-fanout edge (DAGON's partition). A node roots a tree when it
/// has more than one fanout edge, drives a primary output, or feeds
/// nothing at all.
pub fn maximal_trees(g: &SubjectGraph) -> Vec<Tree> {
    let fanout = g.fanout_counts();
    let orefs = g.output_ref_counts();
    let is_root = |n: SubjectNodeId| -> bool {
        if matches!(g.kind(n), SubjectKind::Input(_)) {
            return false;
        }
        let total = fanout[n.index()] + orefs[n.index()];
        total != 1 || orefs[n.index()] == 1
    };
    let mut trees = Vec::new();
    for n in g.node_ids() {
        if !is_root(n) {
            continue;
        }
        // Collect the tree hanging below this root: follow fanins while
        // they are single-fanout non-root internal nodes.
        let mut members = Vec::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            members.push(m);
            for f in g.kind(m).fanins() {
                if !matches!(g.kind(f), SubjectKind::Input(_)) && !is_root(f) {
                    stack.push(f);
                }
            }
        }
        members.sort_unstable();
        trees.push(Tree { root: n, members });
    }
    trees
}

/// Builds the asymmetric exit-line matrix `E` of Section 3.5:
/// `E[i][j]` is the number of edges from a node in cone `i` to a node
/// outside cone `i` that belongs to cone `j`. Diagonal entries are zero.
///
/// Computed as a bit-matrix product over the edges: per cone, one bitset
/// of the edges that exit it and one of the edges that enter it, so
/// `E[i][j] = |exits(i) ∩ enters(j)|`. An edge `u → v` out of a node with
/// a single consumer joins exactly the cones of `v` (a cone holding `u`
/// must hold its only fanout), so it exits none and is left out.
pub fn exit_line_matrix(g: &SubjectGraph, cones: &[Cone]) -> Vec<Vec<usize>> {
    let fanout = g.fanout_counts();
    let orefs = g.output_ref_counts();
    let edges: Vec<(SubjectNodeId, SubjectNodeId)> = g
        .node_ids()
        .flat_map(|v| g.kind(v).fanins().map(move |u| (u, v)))
        .filter(|&(u, _)| {
            !matches!(g.kind(u), SubjectKind::Input(_)) && fanout[u.index()] + orefs[u.index()] > 1
        })
        .collect();
    let words = edges.len().div_ceil(64).max(1);
    let mut exits = vec![0u64; cones.len() * words];
    let mut enters = vec![0u64; cones.len() * words];
    let mut member = vec![false; g.node_count()];
    for (ci, cone) in cones.iter().enumerate() {
        for &m in &cone.members {
            member[m.index()] = true;
        }
        let (x, y) = (&mut exits[ci * words..], &mut enters[ci * words..]);
        for (ei, &(u, v)) in edges.iter().enumerate() {
            let bit = 1u64 << (ei % 64);
            if member[v.index()] {
                y[ei / 64] |= bit;
            } else if member[u.index()] {
                x[ei / 64] |= bit;
            }
        }
        for &m in &cone.members {
            member[m.index()] = false;
        }
    }
    // `exits(i)` and `enters(i)` are disjoint, so the diagonal comes out
    // zero.
    exits
        .chunks_exact(words)
        .map(|x| {
            enters
                .chunks_exact(words)
                .map(|y| x.iter().zip(y).map(|(a, b)| (a & b).count_ones() as usize).sum())
                .collect()
        })
        .collect()
}

/// The greedy cone ordering of Section 3.5: repeatedly select the row
/// with minimum remaining row sum, emit it, and delete its row and
/// column. Returns cone indices in mapping order. Ties go to the lowest
/// index. Row sums are kept running: deleting a column subtracts it
/// from every remaining row.
pub fn order_cones(e: &[Vec<usize>]) -> Vec<usize> {
    let n = e.len();
    let mut row: Vec<usize> = e.iter().map(|r| r.iter().sum()).collect();
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while let Some(best) = (0..n).filter(|&i| !done[i]).min_by_key(|&i| (row[i], i)) {
        order.push(best);
        done[best] = true;
        for (i, r) in row.iter_mut().enumerate() {
            if !done[i] {
                *r -= e[i][best];
            }
        }
    }
    order
}

/// Cost of a cone ordering: `Σ_{i<j} E(K_{π_i}, K_{π_j})` — the total
/// number of references from mapped cones to not-yet-mapped cones.
pub fn ordering_cost(e: &[Vec<usize>], order: &[usize]) -> usize {
    let mut cost = 0;
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i + 1..] {
            cost += e[a][b];
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two outputs sharing a subgraph.
    fn shared_graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let shared = g.nand2(a, b);
        let y1 = g.inv(shared);
        let y2 = g.nand2(shared, c);
        g.set_output("y1", y1);
        g.set_output("y2", y2);
        g
    }

    #[test]
    fn cones_cover_tfi() {
        let g = shared_graph();
        let cs = cones(&g);
        assert_eq!(cs.len(), 2);
        // Both cones contain the shared nand.
        let shared = SubjectNodeId::from_index(3);
        assert!(cs[0].members.contains(&shared));
        assert!(cs[1].members.contains(&shared));
        assert_eq!(cs[0].members.len(), 2);
        assert_eq!(cs[1].members.len(), 2);
        // Members are topologically sorted with the root last.
        for c in &cs {
            assert_eq!(*c.members.last().unwrap(), c.root);
        }
    }

    #[test]
    fn trees_break_at_multifanout() {
        let g = shared_graph();
        let ts = maximal_trees(&g);
        // shared (fanout 2), y1 (PO), y2 (PO) are roots -> 3 trees.
        assert_eq!(ts.len(), 3);
        for t in &ts {
            assert_eq!(*t.members.last().unwrap(), t.root);
        }
        // Every internal node appears in exactly one tree.
        let mut count = vec![0usize; g.node_count()];
        for t in &ts {
            for &m in &t.members {
                count[m.index()] += 1;
            }
        }
        for n in g.node_ids() {
            let expect = usize::from(!matches!(g.kind(n), SubjectKind::Input(_)));
            assert_eq!(count[n.index()], expect, "node {n}");
        }
    }

    #[test]
    fn long_chain_is_single_tree() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n1 = g.nand2(a, b);
        let n2 = g.inv(n1);
        let n3 = g.nand2(n2, a);
        g.set_output("y", n3);
        let ts = maximal_trees(&g);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].members.len(), 3);
    }

    #[test]
    fn exit_lines_between_cones() {
        let g = shared_graph();
        let cs = cones(&g);
        let e = exit_line_matrix(&g, &cs);
        // The shared nand belongs to both cones. Its edge into y2 leaves
        // cone 0 (y2 is outside it) and lands in cone 1, and symmetrically
        // for the edge into y1.
        assert_eq!(e[0][1], 1);
        assert_eq!(e[1][0], 1);
    }

    #[test]
    fn exit_lines_feed_forward_structure() {
        // K1's root feeds a node that only K2 contains.
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let y1 = g.nand2(a, b);
        let y2 = g.inv(y1);
        g.set_output("y1", y1);
        g.set_output("y2", y2);
        let cs = cones(&g);
        let e = exit_line_matrix(&g, &cs);
        // Edge y1 -> y2 leaves cone 0 (y1's cone does not contain y2)
        // and lands in cone 1.
        assert_eq!(e[0][1], 1);
        assert_eq!(e[1][0], 0);
        // Greedy ordering maps cone 1 (the superset) first: its row sum
        // is 0 while cone 0's is 1... but mapping the superset first
        // means the edge is internal by the time cone 0 is processed.
        let order = order_cones(&e);
        assert_eq!(order, vec![1, 0]);
        assert_eq!(ordering_cost(&e, &order), 0);
        assert_eq!(ordering_cost(&e, &[0, 1]), 1);
    }

    #[test]
    fn greedy_ordering_beats_identity_on_chains() {
        // Chain of 4 cones each feeding the next: optimal order is
        // reverse topological.
        let e = vec![vec![0, 3, 0, 0], vec![0, 0, 3, 0], vec![0, 0, 0, 3], vec![0, 0, 0, 0]];
        let order = order_cones(&e);
        assert_eq!(order, vec![3, 2, 1, 0]);
        assert_eq!(ordering_cost(&e, &order), 0);
        assert_eq!(ordering_cost(&e, &[0, 1, 2, 3]), 9);
    }

    #[test]
    fn pi_driven_output_gives_empty_cone() {
        let mut g = SubjectGraph::new("g");
        let a = g.add_input("a");
        g.set_output("y", a);
        let cs = cones(&g);
        assert_eq!(cs.len(), 1);
        assert!(cs[0].members.is_empty());
        assert_eq!(cs[0].root, a);
    }

    /// xorshift64* — deterministic, dependency-free test randomness.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
        }
    }

    /// A random DAG with several outputs, some driven by shared logic.
    fn random_dag(rng: &mut Rng, inputs: usize, gates: usize, outputs: usize) -> SubjectGraph {
        let mut g = SubjectGraph::new("r");
        let mut nodes: Vec<SubjectNodeId> =
            (0..inputs).map(|i| g.add_input(format!("i{i}"))).collect();
        for _ in 0..gates {
            let a = nodes[rng.below(nodes.len())];
            let n = if rng.below(4) == 0 {
                g.inv(a)
            } else {
                g.nand2(a, nodes[rng.below(nodes.len())])
            };
            nodes.push(n);
        }
        for o in 0..outputs {
            let d = nodes[inputs + rng.below(gates)];
            g.set_output(format!("o{o}"), d);
        }
        g
    }

    /// `E` straight from its definition: every edge, every ordered cone
    /// pair.
    fn exit_lines_by_definition(g: &SubjectGraph, cones: &[Cone]) -> Vec<Vec<usize>> {
        let mut e = vec![vec![0usize; cones.len()]; cones.len()];
        for v in g.node_ids() {
            for u in g.kind(v).fanins() {
                if matches!(g.kind(u), SubjectKind::Input(_)) {
                    continue;
                }
                for (i, ci) in cones.iter().enumerate() {
                    if !ci.members.contains(&u) || ci.members.contains(&v) {
                        continue;
                    }
                    for (j, cj) in cones.iter().enumerate() {
                        if j != i && cj.members.contains(&v) {
                            e[i][j] += 1;
                        }
                    }
                }
            }
        }
        e
    }

    /// The greedy ordering recomputing every remaining row sum per step.
    fn order_by_definition(e: &[Vec<usize>]) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..e.len()).collect();
        let mut order = Vec::new();
        while let Some((pos, _)) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| (remaining.iter().map(|&j| e[i][j]).sum::<usize>(), i))
        {
            order.push(remaining.remove(pos));
        }
        order
    }

    #[test]
    fn exit_lines_and_ordering_match_their_definitions_on_random_dags() {
        let mut rng = Rng(0x0c0e_5eed_2024_0001);
        for _ in 0..40 {
            let (ni, ng, no) = (2 + rng.below(6), 5 + rng.below(60), 1 + rng.below(12));
            let g = random_dag(&mut rng, ni, ng, no);
            let cs = cones(&g);
            let e = exit_line_matrix(&g, &cs);
            assert_eq!(e, exit_lines_by_definition(&g, &cs));
            assert_eq!(order_cones(&e), order_by_definition(&e));
        }
        // Arbitrary matrices too, nonzero diagonals and ties included.
        for _ in 0..40 {
            let n = rng.below(9);
            let e: Vec<Vec<usize>> =
                (0..n).map(|_| (0..n).map(|_| rng.below(4)).collect()).collect();
            assert_eq!(order_cones(&e), order_by_definition(&e));
        }
    }
}
