//! Row-based detailed placement (legalization) of a mapped netlist.
//!
//! Both evaluation pipelines of the paper finish with detailed placement
//! and routing. This module is the stand-in for the TimberWolf-era
//! detailed placers: cells are assigned to standard-cell rows near their
//! global positions, packed without overlap, and improved by greedy
//! HPWL-reducing swaps.

use crate::error::PlaceError;
use crate::geom::{Point, Rect};
use crate::quadratic::PinRef;
use lily_fault::CancelToken;

/// Options for [`legalize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalizeOptions {
    /// Core region to fill.
    pub core: Rect,
    /// Standard-cell row height (µm).
    pub row_height: f64,
    /// Greedy improvement passes over all rows (0 disables).
    pub passes: usize,
}

/// A legalized placement.
#[derive(Debug, Clone)]
pub struct Legalized {
    /// Final cell positions (cell centers).
    pub positions: Vec<Point>,
    /// Cells of each row, left to right.
    pub rows: Vec<Vec<usize>>,
    /// Row center-line y coordinates.
    pub row_y: Vec<f64>,
}

/// Assigns every cell to a row near its desired position and packs rows
/// left-to-right in desired-x order, distributing whitespace evenly.
///
/// `widths[i]` is cell `i`'s width (µm); `desired[i]` its global
/// position.
///
/// # Panics
///
/// Panics if `widths.len() != desired.len()` or the core has
/// non-positive size.
pub fn legalize(widths: &[f64], desired: &[Point], opts: &LegalizeOptions) -> Legalized {
    assert_eq!(widths.len(), desired.len(), "widths/positions length mismatch");
    assert!(opts.core.width() > 0.0 && opts.core.height() > 0.0, "empty core");
    let n = widths.len();
    let n_rows = ((opts.core.height() / opts.row_height).floor() as usize).max(1);
    let row_y: Vec<f64> =
        (0..n_rows).map(|r| opts.core.lly + (r as f64 + 0.5) * opts.row_height).collect();

    // Assign cells to rows in y order, balancing total width per row.
    // The balance target can exceed the physical row capacity when the
    // core is undersized for the netlist; a hard capacity check keeps
    // every row (except a possibly overfull last row) packable without
    // spilling past the right core edge.
    let total_width: f64 = widths.iter().sum();
    let target = total_width / n_rows as f64;
    let capacity = opts.core.width();
    let mut by_y: Vec<usize> = (0..n).collect();
    by_y.sort_by(|&a, &b| {
        desired[a].y.partial_cmp(&desired[b].y).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_rows];
    let mut row = 0usize;
    let mut acc = 0.0;
    for &cell in &by_y {
        let balance_full = acc + widths[cell] / 2.0 > target;
        let capacity_full = !rows[row].is_empty() && acc + widths[cell] > capacity;
        if (balance_full || capacity_full) && row + 1 < n_rows {
            row += 1;
            acc = 0.0;
        }
        rows[row].push(cell);
        acc += widths[cell];
    }

    let mut positions = vec![Point::default(); n];
    for (r, cells) in rows.iter_mut().enumerate() {
        pack_row(cells, widths, desired, opts.core, row_y[r], &mut positions);
    }
    Legalized { positions, rows, row_y }
}

/// Sorts a row's cells by desired x and packs them without overlap
/// while staying as close to the desired positions as possible
/// (Abacus-style): a left-to-right pass pushes cells right of their
/// predecessors, a right-to-left pass pushes them left of their
/// successors, and the average of the two legal placements is taken
/// (both are monotone with the same widths, so the average is legal
/// too).
fn pack_row(
    cells: &mut [usize],
    widths: &[f64],
    desired: &[Point],
    core: Rect,
    y: f64,
    positions: &mut [Point],
) {
    cells.sort_by(|&a, &b| {
        desired[a].x.partial_cmp(&desired[b].x).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    if cells.is_empty() {
        return;
    }
    // Forward pass: left edges at max(desired, previous end), capped so
    // that this cell and everything after it still fit before the right
    // core edge (the cap is waived only when the row is overfull).
    let total: f64 = cells.iter().map(|&c| widths[c]).sum();
    let mut fwd = Vec::with_capacity(cells.len());
    let mut cursor = core.llx;
    let mut suffix = total;
    for &c in cells.iter() {
        let want = desired[c].x - widths[c] / 2.0;
        let cap = core.urx - suffix;
        let x = want.max(cursor).min(cap.max(cursor));
        fwd.push(x);
        cursor = x + widths[c];
        suffix -= widths[c];
    }
    // Backward pass: right edges at min(desired, next start), capped so
    // that this cell and everything before it still fit after the left
    // core edge.
    let mut bwd = vec![0.0; cells.len()];
    let mut cursor = core.urx;
    let mut prefix = total;
    for (i, &c) in cells.iter().enumerate().rev() {
        let want = desired[c].x + widths[c] / 2.0;
        let cap = core.llx + prefix;
        let x = want.min(cursor).max(cap.min(cursor));
        bwd[i] = x - widths[c];
        cursor = bwd[i];
        prefix -= widths[c];
    }
    for (i, &c) in cells.iter().enumerate() {
        let left = (fwd[i] + bwd[i]) / 2.0;
        positions[c] = Point::new(left + widths[c] / 2.0, y);
    }
}

/// Total half-perimeter wire length of `nets`, with movable pins read
/// from `positions` and fixed pins from `fixed`.
pub fn hpwl(nets: &[Vec<PinRef>], positions: &[Point], fixed: &[Point]) -> f64 {
    nets.iter().filter_map(|net| net_hpwl(net, positions, fixed)).sum()
}

/// Half-perimeter of one net's pins (`None` for a net without pins).
fn net_hpwl(pins: &[PinRef], positions: &[Point], fixed: &[Point]) -> Option<f64> {
    Rect::bounding(pins.iter().map(|p| match p {
        PinRef::Movable(i) => positions[*i],
        PinRef::Fixed(i) => fixed[*i],
    }))
    .map(|r| r.half_perimeter())
}

/// Detailed-placement improvement: alternating median relocation and
/// adjacent-swap passes.
///
/// Each median pass moves every cell to the median of the other pins of
/// its nets (the optimal single-cell location under HPWL) and
/// re-legalizes; each swap pass exchanges adjacent same-row cells when
/// that lowers the HPWL of their nets. The loop keeps the best
/// placement seen and stops when a full round yields no improvement or
/// after `opts.passes` rounds. This stands in for the annealing-based
/// detailed placers of the paper's era and, importantly, converges to
/// similar quality from different starting placements (low noise).
///
/// `cancel` is polled once per sweep (each median pass and each swap
/// sweep).
///
/// # Errors
///
/// [`PlaceError::Cancelled`] when the token trips; the input placement
/// stays the caller's to use.
pub fn improve(
    legal: &Legalized,
    widths: &[f64],
    nets: &[Vec<PinRef>],
    fixed: &[Point],
    opts: &LegalizeOptions,
    cancel: &CancelToken,
) -> Result<Legalized, PlaceError> {
    let poll = || cancel.check().map_err(|_| PlaceError::Cancelled { context: "detailed-place" });
    let mut best = legal.clone();
    let mut best_cost = hpwl(nets, &best.positions, fixed);
    let inc = Incidence::new(nets, widths.len());

    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..opts.passes.max(1) {
        poll()?;
        // Median relocation: optimal per-cell location given the rest.
        let mut desired = best.positions.clone();
        for (cell, slot) in desired.iter_mut().enumerate() {
            xs.clear();
            ys.clear();
            for &ni in inc.nets_of(cell) {
                for p in inc.pins(ni) {
                    let q = match p {
                        PinRef::Movable(i) if *i == cell => continue,
                        PinRef::Movable(i) => best.positions[*i],
                        PinRef::Fixed(i) => fixed[*i],
                    };
                    xs.push(q.x);
                    ys.push(q.y);
                }
            }
            if !xs.is_empty() {
                // The element a total-order sort would put in the middle.
                let mid = xs.len() / 2;
                let x = *xs.select_nth_unstable_by(mid, f64::total_cmp).1;
                let y = *ys.select_nth_unstable_by(mid, f64::total_cmp).1;
                *slot = Point::new(x, y);
            }
        }
        let relocated = legalize(widths, &desired, opts);
        let swapped = swap_pass(&relocated, widths, &inc, fixed, &poll)?;
        let cost = hpwl(nets, &swapped.positions, fixed);
        if cost + 1e-9 < best_cost {
            best = swapped;
            best_cost = cost;
        } else {
            break;
        }
    }
    // One final swap polish on the best solution.
    let polished = swap_pass(&best, widths, &inc, fixed, &poll)?;
    Ok(if hpwl(nets, &polished.positions, fixed) < best_cost { polished } else { best })
}

/// The nets' pins and each movable module's nets, flattened into
/// compressed rows so the improvement sweeps read two arrays instead
/// of chasing one allocation per net and per module.
struct Incidence {
    net_start: Vec<usize>,
    pins: Vec<PinRef>,
    cell_start: Vec<usize>,
    cell_nets: Vec<usize>,
}

impl Incidence {
    fn new(nets: &[Vec<PinRef>], cells: usize) -> Self {
        let mut net_start = Vec::with_capacity(nets.len() + 1);
        net_start.push(0);
        let mut pins = Vec::new();
        let mut cell_start = vec![0usize; cells + 1];
        for net in nets {
            pins.extend_from_slice(net);
            net_start.push(pins.len());
            for p in net {
                if let PinRef::Movable(m) = p {
                    cell_start[*m + 1] += 1;
                }
            }
        }
        for c in 0..cells {
            cell_start[c + 1] += cell_start[c];
        }
        // A module's nets in ascending net order, one entry per pin.
        let mut fill = cell_start.clone();
        let mut cell_nets = vec![0usize; cell_start[cells]];
        for (ni, net) in nets.iter().enumerate() {
            for p in net {
                if let PinRef::Movable(m) = p {
                    cell_nets[fill[*m]] = ni;
                    fill[*m] += 1;
                }
            }
        }
        Self { net_start, pins, cell_start, cell_nets }
    }

    fn pins(&self, net: usize) -> &[PinRef] {
        &self.pins[self.net_start[net]..self.net_start[net + 1]]
    }

    fn nets_of(&self, cell: usize) -> &[usize] {
        &self.cell_nets[self.cell_start[cell]..self.cell_start[cell + 1]]
    }

    fn net_count(&self) -> usize {
        self.net_start.len() - 1
    }
}

/// Up to four sweeps of adjacent-swap improvement within rows.
fn swap_pass(
    legal: &Legalized,
    widths: &[f64],
    inc: &Incidence,
    fixed: &[Point],
    poll: &dyn Fn() -> Result<(), PlaceError>,
) -> Result<Legalized, PlaceError> {
    let mut out = legal.clone();
    // Every net's current HPWL. Only an accepted swap moves cells, and
    // it stores its nets' new values, so a pair's cost before the trial
    // swap is read here instead of recomputed.
    let mut hpwl_of: Vec<Option<f64>> =
        (0..inc.net_count()).map(|ni| net_hpwl(inc.pins(ni), &out.positions, fixed)).collect();
    let mut pair_nets: Vec<usize> = Vec::new();
    let mut trial: Vec<Option<f64>> = Vec::new();

    for _ in 0..4 {
        poll()?;
        let mut improved = false;
        for r in 0..out.rows.len() {
            for i in 0..out.rows[r].len().saturating_sub(1) {
                let a = out.rows[r][i];
                let b = out.rows[r][i + 1];
                pair_nets.clear();
                pair_nets.extend(inc.nets_of(a).iter().chain(inc.nets_of(b)).copied());
                pair_nets.sort_unstable();
                pair_nets.dedup();
                let before: f64 = pair_nets.iter().filter_map(|&ni| hpwl_of[ni]).sum();
                // Swap by re-packing the pair inside its combined span
                // (left edge of `a` to right edge of `b`): exchanging
                // centers directly would leak unequal widths onto the
                // neighbors.
                let (pa, pb) = (out.positions[a], out.positions[b]);
                let left = pa.x - widths[a] / 2.0;
                out.positions[b] = Point::new(left + widths[b] / 2.0, pb.y);
                out.positions[a] = Point::new(left + widths[b] + widths[a] / 2.0, pa.y);
                trial.clear();
                trial.extend(
                    pair_nets.iter().map(|&ni| net_hpwl(inc.pins(ni), &out.positions, fixed)),
                );
                let after: f64 = trial.iter().filter_map(|&h| h).sum();
                if after + 1e-9 < before {
                    out.rows[r].swap(i, i + 1);
                    improved = true;
                    for (&ni, &h) in pair_nets.iter().zip(&trial) {
                        hpwl_of[ni] = h;
                    }
                } else {
                    out.positions[a] = pa;
                    out.positions[b] = pb;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> LegalizeOptions {
        LegalizeOptions { core: Rect::new(0.0, 0.0, 100.0, 40.0), row_height: 10.0, passes: 4 }
    }

    #[test]
    fn rows_have_no_overlap() {
        let widths = vec![10.0; 12];
        let desired: Vec<Point> =
            (0..12).map(|i| Point::new((i % 4) as f64 * 25.0, (i / 4) as f64 * 13.0)).collect();
        let legal = legalize(&widths, &desired, &opts());
        for (r, cells) in legal.rows.iter().enumerate() {
            for w in cells.windows(2) {
                let (a, b) = (w[0], w[1]);
                let gap = (legal.positions[b].x - widths[b] / 2.0)
                    - (legal.positions[a].x + widths[a] / 2.0);
                assert!(gap >= -1e-9, "overlap in row {r}");
            }
            for &c in cells {
                assert!((legal.positions[c].y - legal.row_y[r]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cells_stay_near_desired_rows() {
        let widths = vec![5.0; 8];
        let desired: Vec<Point> =
            (0..8).map(|i| Point::new(50.0, if i < 4 { 5.0 } else { 35.0 })).collect();
        let legal = legalize(&widths, &desired, &opts());
        // Low cells in low rows, high cells in high rows.
        for i in 0..4 {
            assert!(legal.positions[i].y < legal.positions[i + 4].y);
        }
    }

    #[test]
    fn hpwl_counts_fixed_pins() {
        let nets = vec![vec![PinRef::Movable(0), PinRef::Fixed(0)]];
        let positions = vec![Point::new(0.0, 0.0)];
        let fixed = vec![Point::new(3.0, 4.0)];
        assert!((hpwl(&nets, &positions, &fixed) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_reduces_hpwl() {
        // Two cells whose desired order conflicts with their nets: cell 0
        // tied to a pad on the right, cell 1 to a pad on the left.
        let widths = vec![10.0, 10.0];
        let desired = vec![Point::new(10.0, 5.0), Point::new(20.0, 5.0)];
        let o =
            LegalizeOptions { core: Rect::new(0.0, 0.0, 100.0, 10.0), row_height: 10.0, passes: 3 };
        let legal = legalize(&widths, &desired, &o);
        let fixed = vec![Point::new(100.0, 5.0), Point::new(0.0, 5.0)];
        let nets = vec![
            vec![PinRef::Movable(0), PinRef::Fixed(0)],
            vec![PinRef::Movable(1), PinRef::Fixed(1)],
        ];
        let before = hpwl(&nets, &legal.positions, &fixed);
        let better = improve(&legal, &widths, &nets, &fixed, &o, &CancelToken::never()).unwrap();
        let after = hpwl(&nets, &better.positions, &fixed);
        assert!(after < before, "{after} !< {before}");
        let token = CancelToken::new();
        token.cancel();
        let got = improve(&legal, &widths, &nets, &fixed, &o, &token);
        assert!(matches!(got, Err(PlaceError::Cancelled { .. })), "{got:?}");
    }

    #[test]
    fn single_row_core() {
        let widths = vec![4.0; 3];
        let desired = vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0), Point::new(3.0, 1.0)];
        let o =
            LegalizeOptions { core: Rect::new(0.0, 0.0, 50.0, 8.0), row_height: 10.0, passes: 0 };
        let legal = legalize(&widths, &desired, &o);
        assert_eq!(legal.rows.len(), 1);
        assert_eq!(legal.rows[0].len(), 3);
    }

    #[test]
    fn overfull_balance_target_respects_row_capacity() {
        // 4 rows × 100 µm of capacity but 480 µm of cells: the balance
        // target (120) exceeds what a row can physically hold, so the
        // hard capacity check must advance early — only the final
        // spill row may end up overfull.
        let widths = vec![30.0; 16];
        let desired: Vec<Point> = (0..16).map(|i| Point::new(i as f64, 1.0)).collect();
        let legal = legalize(&widths, &desired, &opts());
        for (r, cells) in legal.rows.iter().enumerate() {
            let load: f64 = cells.iter().map(|&c| widths[c]).sum();
            if r + 1 < legal.rows.len() {
                assert!(load <= 100.0 + 1e-9, "row {r} overfull: {load}");
            }
        }
        // All 16 cells still placed exactly once.
        let placed: usize = legal.rows.iter().map(Vec::len).sum();
        assert_eq!(placed, 16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let _ = legalize(&[1.0], &[], &opts());
    }
}
