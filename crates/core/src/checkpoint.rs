//! Checkpoint/resume as a [`FlowContext`] policy.
//!
//! A [`CheckpointStore`] installed with
//! [`FlowContext::with_checkpoints`] makes [`FlowContext::run`] persist
//! every completed stage artifact to a directory as the flow goes. A
//! flow that is killed (or deliberately interrupted after a named
//! stage, the engine behind `lily-check --kill-after`) can be re-run
//! against the same directory and resumes from the last completed
//! stage: restored artifacts are decoded bit-exactly — every `f64`
//! round-trips through [`hex_f64`]/[`f64_from_hex`] — so the resumed
//! flow's result is identical to an uninterrupted run, modulo stage
//! wall times. Each artifact type's stored form is its [`Codec`] impl.
//!
//! The directory holds one `NN-<stage>.json` artifact file per
//! completed stage plus a `manifest.json` that records, per stage, the
//! artifact file, its metrics record, and the degradation-audit /
//! retry-counter deltas the stage produced — restoring a stage replays
//! its observable history, not just its data. A restored stage arms no
//! faults: its history already holds whatever the plan did to it.
//!
//! Robustness rules (DESIGN.md §12):
//!
//! - A manifest written by a different `(options, fault plan, input)`
//!   triple — the fingerprint mismatch — is ignored wholesale and
//!   overwritten.
//! - A *corrupt* artifact never fails the flow: the stage recomputes,
//!   audited as a `"checkpoint"` → `"recomputed"` degradation, and the
//!   stale checkpoint suffix is discarded.
//! - Only real I/O trouble (unwritable directory) errors, as
//!   [`MapError::Checkpoint`].

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use crate::cover::MapStats;
use crate::error::MapError;
use crate::flow::{stats_json, Degradation, FlowMapper, FlowOptions, Rung};
use crate::json::{array, f64_from_hex, hex_f64, Json, JsonObject};
use crate::stage::{
    placement_setup, FlowContext, LegalPlacement, Mapping, PadPlan, PlacedDesign, RouteFigures,
    StageArtifact, SubjectImage, TimingArtifact,
};
use lily_cells::{CellId, Library, MappedCell, MappedNetwork, SignalSource};
use lily_fault::FaultPlan;
use lily_netlist::fnv::Fnv1a;
use lily_netlist::{LifeCycleStats, Network, SubjectGraph, SubjectKind, SubjectNodeId};
use lily_place::legalize::Legalized;
use lily_place::{Point, Rect, SubjectPlacement};
use lily_timing::{Arrival, StaResult};

/// The eight stage names in pipeline order — the valid values of
/// a store's interrupt stage (and `lily-check --kill-after`).
pub use lily_fault::STAGE_NAMES;

/// Resolves a stored degradation entry onto the canonical statics. An
/// unknown name means the manifest was not written by this code (or was
/// corrupted) and is treated as torn.
fn intern_degradation(
    flow: &str,
    stage: &str,
    fallback: &str,
    detail: &str,
) -> Result<Degradation, String> {
    let flow = [FlowMapper::Mis, FlowMapper::Lily, FlowMapper::Cut]
        .map(FlowMapper::tag)
        .into_iter()
        .chain(["shared"])
        .find(|t| *t == flow)
        .ok_or_else(|| format!("unknown flow `{flow}`"))?;
    let (stage, fallback) = Rung::ALL
        .iter()
        .map(|r| r.names())
        .find(|names| *names == (stage, fallback))
        .ok_or_else(|| format!("unknown degradation `{stage}` → `{fallback}`"))?;
    Ok(Degradation { flow, stage, fallback, detail: detail.to_string() })
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/// FNV-1a 64 over the flow configuration, the fault plan, and the
/// input's coarse shape. A checkpoint directory whose manifest carries
/// a different fingerprint belongs to a different run and is ignored
/// wholesale. (The per-node artifact replay below catches finer
/// divergence: a restored subject graph is rebuilt node by node and any
/// mismatch discards the checkpoint.) An empty plan adds nothing, so
/// fault-free fingerprints are those of directories written before
/// plans were part of it.
pub(crate) fn fingerprint(net: &Network, options: &FlowOptions, plan: &FaultPlan) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{options:?}").as_bytes());
    h.write(net.name().as_bytes());
    h.write(&(net.input_count() as u64).to_le_bytes());
    h.write(&(net.output_count() as u64).to_le_bytes());
    h.write(&(net.node_count() as u64).to_le_bytes());
    if !plan.is_empty() {
        h.write(format!("{plan:?}").as_bytes());
    }
    h.finish()
}

// ---------------------------------------------------------------------
// f64 / geometry helpers
// ---------------------------------------------------------------------

fn hex_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(f64_from_hex)
        .ok_or_else(|| format!("bad hex float field `{key}`"))
}

fn hex_at(items: &[Json], i: usize) -> Result<f64, String> {
    items
        .get(i)
        .and_then(Json::as_str)
        .and_then(f64_from_hex)
        .ok_or_else(|| format!("bad hex float at index {i}"))
}

/// Encodes a flat list of f64s as a JSON array of bit-hex strings.
fn hex_array(values: impl IntoIterator<Item = f64>) -> String {
    array(values.into_iter().map(|x| format!("\"{}\"", hex_f64(x))))
}

fn decode_hex_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let items =
        v.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing hex array `{key}`"))?;
    (0..items.len()).map(|i| hex_at(items, i)).collect()
}

fn encode_points(points: &[Point]) -> String {
    hex_array(points.iter().flat_map(|p| [p.x, p.y]))
}

/// Decodes a flat hex array of `(a, b)` pairs through `pair`.
fn decode_pairs<T>(v: &Json, key: &str, pair: impl Fn(f64, f64) -> T) -> Result<Vec<T>, String> {
    let flat = decode_hex_array(v, key)?;
    if flat.len() % 2 != 0 {
        return Err(format!("odd pair array `{key}`"));
    }
    Ok(flat.chunks_exact(2).map(|c| pair(c[0], c[1])).collect())
}

fn decode_points(v: &Json, key: &str) -> Result<Vec<Point>, String> {
    decode_pairs(v, key, Point::new)
}

fn encode_rect(r: Rect) -> String {
    hex_array([r.llx, r.lly, r.urx, r.ury])
}

fn decode_rect(v: &Json, key: &str) -> Result<Rect, String> {
    let c = decode_hex_array(v, key)?;
    match c.as_slice() {
        [llx, lly, urx, ury] if llx <= urx && lly <= ury => {
            Ok(Rect { llx: *llx, lly: *lly, urx: *urx, ury: *ury })
        }
        _ => Err(format!("bad rectangle `{key}`")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string field `{key}`"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key).and_then(Json::as_usize).ok_or_else(|| format!("missing uint field `{key}`"))
}

fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing array field `{key}`"))
}

// ---------------------------------------------------------------------
// Artifact codecs
// ---------------------------------------------------------------------

/// How a stage artifact is stored in a checkpoint. Every artifact type
/// a stage produces implements it for that stage's input `In`, so
/// [`FlowContext::run`] can save and restore any stage.
pub trait Codec<In>: Sized {
    /// Serializes the artifact (every `f64` as its bit pattern).
    fn encode(&self, lib: &Library) -> String;

    /// Rebuilds the artifact from its stored form. Pure functions of
    /// the stage input or the library are recomputed from `input` and
    /// `lib` rather than stored.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field; the stage then
    /// recomputes.
    fn decode(v: &Json, input: &In, lib: &Library) -> Result<Self, String>;
}

impl<'a> Codec<&'a Network> for Arc<SubjectGraph> {
    fn encode(&self, _lib: &Library) -> String {
        let nodes = array(self.kinds().iter().map(|k| {
            let body = match k {
                SubjectKind::Input(_) => "i".to_string(),
                SubjectKind::Nand2(a, b) => format!("n:{}:{}", a.index(), b.index()),
                SubjectKind::Inv(a) => format!("v:{}", a.index()),
            };
            format!("\"{body}\"")
        }));
        let outputs = array(self.outputs().iter().map(|o| {
            JsonObject::new()
                .string("name", &o.name)
                .uint("driver", o.driver.index() as u64)
                .finish()
        }));
        JsonObject::new()
            .string("name", self.name())
            .raw(
                "input_names",
                &array(
                    self.input_names().iter().map(|n| format!("\"{}\"", crate::json::escape(n))),
                ),
            )
            .raw("nodes", &nodes)
            .raw("outputs", &outputs)
            .finish()
    }

    /// Rebuilds a subject graph by *replaying* its construction: every
    /// node is re-created through the canonical `add_input`/`nand2`/`inv`
    /// builders and must land on its stored index. Structural hashing and
    /// double-inverter cancellation make those builders non-injective, so
    /// an index mismatch means the stored node list was never produced by
    /// them — i.e. the file is corrupt — and the decode fails.
    fn decode(v: &Json, _net: &&'a Network, _lib: &Library) -> Result<Self, String> {
        let name = str_field(v, "name")?;
        let input_names: Vec<&str> = array_field(v, "input_names")?
            .iter()
            .map(|n| n.as_str().ok_or_else(|| "bad input name".to_string()))
            .collect::<Result<_, _>>()?;
        let nodes = array_field(v, "nodes")?;
        let mut g = SubjectGraph::new(name);
        let mut inputs_seen = 0usize;
        for (i, node) in nodes.iter().enumerate() {
            let spec = node.as_str().ok_or_else(|| format!("bad node {i}"))?;
            let id = if spec == "i" {
                let name = input_names
                    .get(inputs_seen)
                    .ok_or_else(|| format!("input {inputs_seen} unnamed"))?;
                inputs_seen += 1;
                g.add_input(*name)
            } else if let Some(rest) = spec.strip_prefix("n:") {
                let (a, b) = rest.split_once(':').ok_or_else(|| format!("bad nand node {i}"))?;
                let a: usize = a.parse().map_err(|_| format!("bad nand fanin at node {i}"))?;
                let b: usize = b.parse().map_err(|_| format!("bad nand fanin at node {i}"))?;
                if a >= i || b >= i {
                    return Err(format!("forward fanin at node {i}"));
                }
                g.nand2(SubjectNodeId::from_index(a), SubjectNodeId::from_index(b))
            } else if let Some(rest) = spec.strip_prefix("v:") {
                let a: usize = rest.parse().map_err(|_| format!("bad inv fanin at node {i}"))?;
                if a >= i {
                    return Err(format!("forward fanin at node {i}"));
                }
                g.inv(SubjectNodeId::from_index(a))
            } else {
                return Err(format!("unknown node spec `{spec}`"));
            };
            if id.index() != i {
                return Err(format!("node {i} replayed to index {}", id.index()));
            }
        }
        if inputs_seen != input_names.len() {
            return Err("input name count mismatch".to_string());
        }
        for o in array_field(v, "outputs")? {
            let name = str_field(o, "name")?;
            let driver = usize_field(o, "driver")?;
            if driver >= nodes.len() {
                return Err(format!("output `{name}` drives missing node {driver}"));
            }
            g.set_output(name, SubjectNodeId::from_index(driver));
        }
        Ok(Arc::new(g))
    }
}

impl<'a> Codec<&'a SubjectGraph> for PadPlan {
    fn encode(&self, _lib: &Library) -> String {
        JsonObject::new()
            .string("est_area", &hex_f64(self.est_area))
            .raw("core", &encode_rect(self.core))
            .raw("pads", &encode_points(&self.pads))
            .finish()
    }

    /// The stored pad plan carries the measured fields; the placement
    /// problem is a pure deterministic function of the subject graph and is
    /// recomputed rather than stored.
    fn decode(v: &Json, g: &&'a SubjectGraph, _lib: &Library) -> Result<Self, String> {
        let est_area = hex_field(v, "est_area")?;
        let core = decode_rect(v, "core")?;
        let pads = decode_points(v, "pads")?;
        let placement = SubjectPlacement::new(g);
        if pads.len() != g.inputs().len() + g.outputs().len() {
            return Err("pad count does not match the subject graph".to_string());
        }
        Ok(PadPlan { est_area, core, placement, pads })
    }
}

impl<'a> Codec<(&'a SubjectGraph, &'a PadPlan)> for SubjectImage {
    fn encode(&self, _lib: &Library) -> String {
        let mut o = JsonObject::new();
        o = match &self.positions {
            Some(points) => o.raw("positions", &encode_points(points)),
            None => o.raw("positions", "null"),
        };
        match &self.failure {
            Some(f) => o.string("failure", f),
            None => o.raw("failure", "null"),
        }
        .finish()
    }

    fn decode(
        v: &Json,
        _input: &(&'a SubjectGraph, &'a PadPlan),
        _lib: &Library,
    ) -> Result<Self, String> {
        let positions = match v.get("positions") {
            Some(Json::Null) => None,
            Some(_) => Some(decode_points(v, "positions")?),
            None => return Err("missing positions".to_string()),
        };
        let failure = match v.get("failure") {
            Some(Json::Null) => None,
            Some(f) => Some(f.as_str().ok_or_else(|| "bad failure field".to_string())?.to_string()),
            None => return Err("missing failure".to_string()),
        };
        Ok(SubjectImage { positions, failure })
    }
}

fn encode_source(s: &SignalSource) -> String {
    match s {
        SignalSource::Input(i) => format!("i:{i}"),
        SignalSource::Cell(c) => format!("c:{}", c.index()),
    }
}

fn decode_source(spec: &str, inputs: usize, cells: usize) -> Result<SignalSource, String> {
    if let Some(rest) = spec.strip_prefix("i:") {
        let i: usize = rest.parse().map_err(|_| format!("bad source `{spec}`"))?;
        if i >= inputs {
            return Err(format!("source input {i} out of range"));
        }
        Ok(SignalSource::Input(i))
    } else if let Some(rest) = spec.strip_prefix("c:") {
        let c: usize = rest.parse().map_err(|_| format!("bad source `{spec}`"))?;
        if c >= cells {
            return Err(format!("source cell {c} out of range"));
        }
        Ok(SignalSource::Cell(CellId::from_index(c)))
    } else {
        Err(format!("unknown source `{spec}`"))
    }
}

fn encode_mapped(mapped: &MappedNetwork, lib: &Library) -> String {
    let cells = array(mapped.cells().iter().map(|c| {
        JsonObject::new()
            .string("gate", lib.gate(c.gate).name())
            .raw("fanins", &array(c.fanins.iter().map(|s| format!("\"{}\"", encode_source(s)))))
            .raw("pos", &hex_array([c.position.0, c.position.1]))
            .finish()
    }));
    let outputs = array(mapped.outputs.iter().map(|(name, source)| {
        JsonObject::new().string("name", name).string("source", &encode_source(source)).finish()
    }));
    JsonObject::new()
        .string("name", mapped.name())
        .raw(
            "input_names",
            &array(mapped.input_names.iter().map(|n| format!("\"{}\"", crate::json::escape(n)))),
        )
        .raw(
            "input_positions",
            &hex_array(mapped.input_positions.iter().flat_map(|&(x, y)| [x, y])),
        )
        .raw(
            "output_positions",
            &hex_array(mapped.output_positions.iter().flat_map(|&(x, y)| [x, y])),
        )
        .raw("cells", &cells)
        .raw("outputs", &outputs)
        .finish()
}

/// Gates are stored by *name* and re-resolved against the live library,
/// so a checkpoint written against a different library is rejected
/// instead of silently mapping onto the wrong cells.
fn decode_mapped(v: &Json, lib: &Library) -> Result<MappedNetwork, String> {
    let name = str_field(v, "name")?;
    let input_names: Vec<String> = array_field(v, "input_names")?
        .iter()
        .map(|n| n.as_str().map(str::to_string).ok_or_else(|| "bad input name".to_string()))
        .collect::<Result<_, _>>()?;
    let n_inputs = input_names.len();
    let mut mapped = MappedNetwork::new(name, input_names);
    let cells = array_field(v, "cells")?;
    let n_cells = cells.len();
    for (i, cell) in cells.iter().enumerate() {
        let gate_name = str_field(cell, "gate")?;
        let gate = lib
            .find(gate_name)
            .ok_or_else(|| format!("gate `{gate_name}` not in library `{}`", lib.name()))?;
        let fanins = array_field(cell, "fanins")?
            .iter()
            .map(|f| {
                f.as_str()
                    .ok_or_else(|| format!("bad fanin on cell {i}"))
                    .and_then(|s| decode_source(s, n_inputs, n_cells))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pos = decode_hex_array(cell, "pos")?;
        let position = match pos.as_slice() {
            [x, y] => (*x, *y),
            _ => return Err(format!("bad position on cell {i}")),
        };
        mapped.add_cell(MappedCell { gate, fanins, position });
    }
    for o in array_field(v, "outputs")? {
        let name = str_field(o, "name")?;
        let source = decode_source(str_field(o, "source")?, n_inputs, n_cells)?;
        mapped.add_output(name, source);
    }
    mapped.input_positions = decode_pairs(v, "input_positions", |x, y| (x, y))?;
    mapped.output_positions = decode_pairs(v, "output_positions", |x, y| (x, y))?;
    if mapped.input_positions.len() != n_inputs
        || mapped.output_positions.len() != mapped.outputs.len()
    {
        return Err("pad position count mismatch".to_string());
    }
    Ok(mapped)
}

fn decode_stats(v: &Json) -> Result<MapStats, String> {
    Ok(MapStats {
        lifecycle: LifeCycleStats {
            hatched: usize_field(v, "hatched")?,
            doves: usize_field(v, "doves")?,
            hawks: usize_field(v, "hawks")?,
            reincarnations: usize_field(v, "reincarnations")?,
        },
        matches_enumerated: usize_field(v, "matches_enumerated")?,
        scopes: usize_field(v, "scopes")?,
        // Optional fields are absent (or `null` in older checkpoints)
        // when unset.
        ordering_cost: match v.get("ordering_cost") {
            Some(Json::Null) | None => None,
            Some(c) => Some(c.as_usize().ok_or_else(|| "bad ordering_cost".to_string())?),
        },
        cuts: match v.get("cuts") {
            Some(Json::Null) | None => None,
            Some(c) => Some(lily_netlist::CutStats {
                nodes: usize_field(c, "nodes")?,
                kept: usize_field(c, "kept")?,
                pruned_width: usize_field(c, "pruned_width")?,
                pruned_dominated: usize_field(c, "pruned_dominated")?,
                pruned_overflow: usize_field(c, "pruned_overflow")?,
                max_per_node: usize_field(c, "max_per_node")?,
            }),
        },
    })
}

impl<'a> Codec<(&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>)> for Mapping {
    fn encode(&self, lib: &Library) -> String {
        JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("stats", &stats_json(&self.stats))
            .raw("constructive", if self.constructive { "true" } else { "false" })
            .finish()
    }

    fn decode(
        v: &Json,
        _input: &(&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>),
        lib: &Library,
    ) -> Result<Self, String> {
        let mapped =
            decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
        let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
        let constructive = v
            .get("constructive")
            .and_then(Json::as_bool)
            .ok_or_else(|| "missing constructive".to_string())?;
        Ok(Mapping { mapped, stats, constructive })
    }
}

impl<'a> Codec<(&'a PadPlan, Mapping)> for LegalPlacement {
    fn encode(&self, lib: &Library) -> String {
        let mut o = JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("core", &encode_rect(self.core))
            .raw("stats", &stats_json(&self.stats));
        o = match &self.legal {
            Some(legal) => o.raw(
                "legal",
                &JsonObject::new()
                    .raw("positions", &encode_points(&legal.positions))
                    .raw(
                        "rows",
                        &array(
                            legal.rows.iter().map(|row| array(row.iter().map(|c| c.to_string()))),
                        ),
                    )
                    .raw("row_y", &hex_array(legal.row_y.iter().copied()))
                    .finish(),
            ),
            None => o.raw("legal", "null"),
        };
        o.finish()
    }

    /// Widths, the placement problem, and the fixed pad list are all pure
    /// functions of the restored netlist and library; only the measured
    /// pieces (netlist, core, stats, legalized rows) are stored.
    fn decode(v: &Json, _input: &(&'a PadPlan, Mapping), lib: &Library) -> Result<Self, String> {
        let mapped =
            decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
        let core = decode_rect(v, "core")?;
        let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
        let legal = match v.get("legal") {
            Some(Json::Null) => None,
            Some(l) => {
                let positions = decode_points(l, "positions")?;
                let rows = array_field(l, "rows")?
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .ok_or_else(|| "bad row".to_string())?
                            .iter()
                            .map(|c| c.as_usize().ok_or_else(|| "bad row cell".to_string()))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let row_y = decode_hex_array(l, "row_y")?;
                if positions.len() != mapped.cell_count() {
                    return Err("legalized position count mismatch".to_string());
                }
                if rows.iter().flatten().any(|&c| c >= mapped.cell_count()) {
                    return Err("legalized row references missing cell".to_string());
                }
                Some(Legalized { positions, rows, row_y })
            }
            None => return Err("missing legal".to_string()),
        };
        let (widths, problem, fixed) = placement_setup(&mapped, lib);
        Ok(LegalPlacement { mapped, core, stats, widths, problem, fixed, legal })
    }
}

impl Codec<LegalPlacement> for PlacedDesign {
    fn encode(&self, lib: &Library) -> String {
        JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("core", &encode_rect(self.core))
            .raw("stats", &stats_json(&self.stats))
            .finish()
    }

    fn decode(v: &Json, _input: &LegalPlacement, lib: &Library) -> Result<Self, String> {
        let mapped =
            decode_mapped(v.get("mapped").ok_or_else(|| "missing mapped".to_string())?, lib)?;
        let core = decode_rect(v, "core")?;
        let stats = decode_stats(v.get("stats").ok_or_else(|| "missing stats".to_string())?)?;
        Ok(PlacedDesign { mapped, core, stats })
    }
}

impl<'a> Codec<&'a PlacedDesign> for RouteFigures {
    fn encode(&self, _lib: &Library) -> String {
        JsonObject::new()
            .string("wire_length", &hex_f64(self.wire_length))
            .string("instance_area", &hex_f64(self.instance_area))
            .string("chip_area", &hex_f64(self.chip_area))
            .string("chip_area_channeled", &hex_f64(self.chip_area_channeled))
            .string("peak_congestion", &hex_f64(self.peak_congestion))
            .uint("nets", self.nets as u64)
            .finish()
    }

    fn decode(v: &Json, _placed: &&'a PlacedDesign, _lib: &Library) -> Result<Self, String> {
        Ok(RouteFigures {
            wire_length: hex_field(v, "wire_length")?,
            instance_area: hex_field(v, "instance_area")?,
            chip_area: hex_field(v, "chip_area")?,
            chip_area_channeled: hex_field(v, "chip_area_channeled")?,
            peak_congestion: hex_field(v, "peak_congestion")?,
            nets: usize_field(v, "nets")?,
        })
    }
}

impl<'a> Codec<&'a PlacedDesign> for TimingArtifact {
    fn encode(&self, _lib: &Library) -> String {
        JsonObject::new()
            .raw(
                "cell_arrival",
                &hex_array(self.sta.cell_arrival.iter().flat_map(|a| [a.rise, a.fall])),
            )
            .raw(
                "output_arrival",
                &hex_array(self.sta.output_arrival.iter().flat_map(|a| [a.rise, a.fall])),
            )
            .string("critical_delay", &hex_f64(self.sta.critical_delay))
            .uint("critical_output", self.sta.critical_output as u64)
            .raw(
                "critical_path",
                &array(self.sta.critical_path.iter().map(|c| c.index().to_string())),
            )
            .raw("cell_slack", &hex_array(self.sta.cell_slack.iter().copied()))
            .uint("cells", self.cells as u64)
            .finish()
    }

    fn decode(v: &Json, _placed: &&'a PlacedDesign, _lib: &Library) -> Result<Self, String> {
        let critical_path = array_field(v, "critical_path")?
            .iter()
            .map(|c| {
                c.as_usize().map(CellId::from_index).ok_or_else(|| "bad critical path".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TimingArtifact {
            sta: StaResult {
                cell_arrival: decode_pairs(v, "cell_arrival", |rise, fall| Arrival { rise, fall })?,
                output_arrival: decode_pairs(v, "output_arrival", |rise, fall| Arrival {
                    rise,
                    fall,
                })?,
                critical_delay: hex_field(v, "critical_delay")?,
                critical_output: usize_field(v, "critical_output")?,
                critical_path,
                cell_slack: decode_hex_array(v, "cell_slack")?,
            },
            cells: usize_field(v, "cells")?,
        })
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// One completed stage in the manifest: where its artifact lives plus
/// the observable history the stage produced (wall time and the
/// degradation/retry deltas), so restoring the stage replays exactly
/// what running it recorded. The record's size and unit come from the
/// restored artifact itself.
#[derive(Debug, Clone)]
struct ManifestEntry {
    stage: String,
    file: String,
    wall_ns: u64,
    retries: u32,
    deadline_hits: u32,
    degradations: Vec<Degradation>,
}

impl ManifestEntry {
    fn to_json(&self) -> String {
        JsonObject::new()
            .string("stage", &self.stage)
            .string("file", &self.file)
            .uint("wall_ns", self.wall_ns)
            .uint("retries", u64::from(self.retries))
            .uint("deadline_hits", u64::from(self.deadline_hits))
            .raw("degradations", &array(self.degradations.iter().map(Degradation::to_json)))
            .finish()
    }

    /// An entry naming a degradation this code cannot record is as
    /// undecodable as a torn one.
    fn from_json(v: &Json) -> Result<Self, String> {
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("missing count `{key}`"))
        };
        let degradations = array_field(v, "degradations")?
            .iter()
            .map(|d| {
                intern_degradation(
                    str_field(d, "flow")?,
                    str_field(d, "stage")?,
                    str_field(d, "fallback")?,
                    str_field(d, "detail")?,
                )
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            stage: str_field(v, "stage")?.to_string(),
            file: str_field(v, "file")?.to_string(),
            wall_ns: v.get("wall_ns").and_then(Json::as_u64).ok_or("missing wall_ns")?,
            retries: count("retries")?,
            deadline_hits: count("deadline_hits")?,
            degradations,
        })
    }
}

/// The checkpoint policy of a flow: a directory holding the manifest of
/// completed stages, a cursor tracking how far the current run has
/// aligned with it, and an optional stage to stop after. Install it with
/// [`FlowContext::with_checkpoints`]; the flow driver opens it against
/// the network before the first stage runs.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// The stage after which the flow stops with
    /// [`MapError::Interrupted`].
    pub(crate) interrupt_after: Option<String>,
    /// The run's fingerprint, once opened.
    fingerprint: Option<u64>,
    entries: Vec<ManifestEntry>,
    /// How many stages of the current run have been matched (restored
    /// or re-saved) against `entries`.
    cursor: usize,
    /// Whether the stored prefix is still usable: any decode failure or
    /// stage-name mismatch permanently drops to live recomputation (and
    /// truncates the stale suffix at the next save).
    live: bool,
}

impl CheckpointStore {
    /// A store over `dir` (created when the flow opens it). With
    /// `interrupt_after`, the flow stops with [`MapError::Interrupted`]
    /// right after that stage is safely on disk (restored or saved) — a
    /// deliberate kill for resume drills.
    pub fn new(dir: impl Into<PathBuf>, interrupt_after: Option<&str>) -> Self {
        Self {
            dir: dir.into(),
            interrupt_after: interrupt_after.map(str::to_string),
            fingerprint: None,
            entries: Vec::new(),
            cursor: 0,
            live: false,
        }
    }

    /// Opens (creating if needed) the directory for a run with the given
    /// fingerprint. A manifest from a different fingerprint — or no
    /// manifest at all — starts fresh silently. Returns whether the
    /// manifest existed but was torn (unparsable JSON or undecodable
    /// entries, the signature of a write cut short by a crash): a fresh
    /// start too, but one the flow audits.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] when the directory cannot be created.
    pub(crate) fn open(&mut self, fingerprint: u64) -> Result<bool, MapError> {
        let dir = &self.dir;
        fs::create_dir_all(dir).map_err(|e| MapError::Checkpoint {
            context: "open",
            message: format!("cannot create `{}`: {e}", dir.display()),
        })?;
        let stored = fs::read_to_string(dir.join("manifest.json")).ok().map(|text| {
            let m = Json::parse(&text).ok()?;
            // A manifest always carries a fingerprint; a parsable
            // object without one is torn too.
            let fp = m
                .get("fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())?;
            if fp != fingerprint {
                // A different run's manifest: silent fresh start.
                return Some(Vec::new());
            }
            m.get("entries")?.as_array()?.iter().map(|e| ManifestEntry::from_json(e).ok()).collect()
        });
        let (entries, torn) = match stored {
            // No manifest: a genuinely fresh directory.
            None => (Vec::new(), false),
            Some(Some(entries)) => (entries, false),
            Some(None) => (Vec::new(), true),
        };
        self.fingerprint = Some(fingerprint);
        self.live = !entries.is_empty();
        self.entries = entries;
        self.cursor = 0;
        Ok(torn)
    }

    fn opened(&self) -> Result<u64, MapError> {
        self.fingerprint.ok_or_else(|| MapError::Checkpoint {
            context: "open",
            message: format!(
                "checkpoint store `{}` was never opened (run the flow through `run_flow_with`)",
                self.dir.display()
            ),
        })
    }

    /// Tries to restore the next stage from the stored prefix. On a hit
    /// the stage's observable history (metrics record, degradation
    /// audit, retry counters) is replayed into `ctx` and the decoded
    /// artifact returned. On a miss — cursor past the prefix, stage
    /// mismatch, unreadable or corrupt artifact — the checkpoint goes
    /// dead, a corrupt artifact is audited as `"checkpoint"` →
    /// `"recomputed"`, and `None` asks the caller to run the stage.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] when the store was never opened.
    pub(crate) fn restore<In, T: Codec<In> + StageArtifact>(
        &mut self,
        ctx: &mut FlowContext<'_>,
        name: &'static str,
        input: &In,
    ) -> Result<Option<T>, MapError> {
        self.opened()?;
        if !self.live {
            return Ok(None);
        }
        let entry = match self.entries.get(self.cursor) {
            Some(e) if e.stage == name => e.clone(),
            _ => {
                self.live = false;
                return Ok(None);
            }
        };
        let restored = fs::read_to_string(self.dir.join(&entry.file))
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|v| T::decode(&v, input, ctx.lib));
        match restored {
            Ok(artifact) => {
                ctx.stages.record(name, entry.wall_ns, artifact.size(), artifact.unit());
                ctx.degradations.extend(entry.degradations);
                ctx.retries += entry.retries;
                ctx.deadline_hits += entry.deadline_hits;
                self.cursor += 1;
                Ok(Some(artifact))
            }
            Err(why) => {
                self.live = false;
                ctx.degrade(
                    Rung::Recomputed,
                    format!("stage `{name}` checkpoint unusable ({why})"),
                );
                Ok(None)
            }
        }
    }

    /// Persists a freshly computed stage: artifact file first, then the
    /// manifest, both atomically (write-to-temp + rename), truncating
    /// any stale suffix left from a dead prefix. `mark` is the context's
    /// `(degradations, retries, deadline_hits)` before the stage ran, so
    /// the entry stores exactly the history the stage added.
    ///
    /// # Errors
    ///
    /// [`MapError::Checkpoint`] on I/O failure or an unopened store.
    pub(crate) fn save<In, T: Codec<In>>(
        &mut self,
        ctx: &FlowContext<'_>,
        name: &'static str,
        artifact: &T,
        mark: (usize, u32, u32),
    ) -> Result<(), MapError> {
        let fingerprint = self.opened()?;
        self.entries.truncate(self.cursor);
        let file = format!("{:02}-{name}.json", self.cursor);
        self.write_atomic(&file, &artifact.encode(ctx.lib))?;
        let (degradations, retries, deadline_hits) = mark;
        self.entries.push(ManifestEntry {
            stage: name.to_string(),
            file,
            wall_ns: ctx.stages.get(name).map_or(1, |r| r.wall_ns),
            degradations: ctx.degradations.get(degradations..).unwrap_or_default().to_vec(),
            retries: ctx.retries - retries,
            deadline_hits: ctx.deadline_hits - deadline_hits,
        });
        self.cursor += 1;
        self.live = true;
        let manifest = JsonObject::new()
            .string("fingerprint", &format!("{fingerprint:016x}"))
            .raw("entries", &array(self.entries.iter().map(ManifestEntry::to_json)))
            .finish();
        self.write_atomic("manifest.json", &manifest)
    }

    fn write_atomic(&self, file: &str, body: &str) -> Result<(), MapError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let target = self.dir.join(file);
        fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, &target)).map_err(|e| {
            MapError::Checkpoint {
                context: "save",
                message: format!("cannot write `{}`: {e}", target.display()),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow_with, FlowMetrics, FlowResult};
    use lily_fault::{FaultKind, FaultReport};
    use lily_workloads::structured::flow_fixture;
    use std::path::Path;

    /// One flow run under a fault plan with checkpoints in `dir`.
    fn faulted(
        net: &Network,
        lib: &Library,
        options: &FlowOptions,
        plan: &FaultPlan,
        dir: &Path,
        interrupt_after: Option<&str>,
    ) -> (Result<FlowResult, MapError>, FaultReport) {
        let ctx = FlowContext::new(lib, *options)
            .with_faults(plan.clone())
            .with_checkpoints(CheckpointStore::new(dir, interrupt_after));
        let log = ctx.fault_log();
        (run_flow_with(ctx, net), log.report())
    }

    fn checkpointed(
        net: &Network,
        lib: &Library,
        options: &FlowOptions,
        dir: &Path,
        interrupt_after: Option<&str>,
    ) -> Result<FlowResult, MapError> {
        faulted(net, lib, options, &FaultPlan::new(), dir, interrupt_after).0
    }

    /// Everything a metrics record says except wall times: the stage
    /// table's names and sizes, and the JSON of all other fields.
    fn shape(m: &FlowMetrics) -> (Vec<(&'static str, usize)>, String) {
        let stages = m.stages.records().iter().map(|r| (r.stage, r.size)).collect();
        (stages, FlowMetrics { stages: Default::default(), ..m.clone() }.to_json())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lily-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cut_flow_checkpoints_round_trip_cut_stats() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::cut_area();
        let dir = temp_dir("cutstats");
        let full = options.run_detailed(&net, &lib).unwrap();
        let full_cuts = full.metrics.stats.cuts.expect("cut flow records cut stats");
        // Kill after the mapper so the resumed run decodes the map
        // artifact — including the nested cut-stats object — from disk.
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "map" })));
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert_eq!(resumed.metrics.stats.cuts, Some(full_cuts));
        assert_eq!(shape(&full.metrics), shape(&resumed.metrics));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_flow_resumes_bit_exactly() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("resume");
        let full = options.run_detailed(&net, &lib).unwrap();
        // Kill after the mapper; four stages are on disk.
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "map" })));
        // Resume: the first four stages restore, the rest compute.
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        // Metrics agree on everything but wall time (no checkpoint
        // audit either), and the final netlists are byte-identical.
        assert_eq!(shape(&full.metrics), shape(&resumed.metrics));
        assert_eq!(encode_mapped(&full.mapped, &lib), encode_mapped(&resumed.mapped, &lib));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_recomputes_with_audit() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("corrupt");
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Truncate the mapper artifact mid-file.
        let map_file = dir.join("03-map.json");
        let text = fs::read_to_string(&map_file).unwrap();
        fs::write(&map_file, &text[..text.len() / 2]).unwrap();
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        let audited: Vec<_> = resumed
            .metrics
            .degradations
            .iter()
            .filter(|d| d.stage == "checkpoint" && d.fallback == "recomputed")
            .collect();
        assert_eq!(audited.len(), 1, "{:?}", resumed.metrics.degradations);
        // Recomputation still lands on the uninterrupted answer.
        let plain = options.run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), resumed.metrics.wire_length.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_is_skipped_with_audit_not_a_startup_failure() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        let dir = temp_dir("torn-manifest");
        let killed = checkpointed(&net, &lib, &options, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // Tear the manifest itself mid-file, as a crash inside a
        // non-atomic writer would: truncated JSON cannot parse.
        let manifest = dir.join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        // The resume must not fail startup: it discards the prefix,
        // audits the torn manifest once, and recomputes to the same
        // answer as an uninterrupted run.
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        let audited: Vec<_> = resumed
            .metrics
            .degradations
            .iter()
            .filter(|d| d.stage == "checkpoint" && d.fallback == "recomputed")
            .collect();
        assert_eq!(audited.len(), 1, "{:?}", resumed.metrics.degradations);
        assert!(audited[0].detail.contains("manifest torn"));
        let plain = options.run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), resumed.metrics.wire_length.to_bits());
        // A second resume runs against the healed (re-written) manifest
        // with no audit entry at all.
        let healed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert!(healed.metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_starts_fresh() {
        let lib = Library::big();
        let net = flow_fixture();
        let dir = temp_dir("fingerprint");
        let killed = checkpointed(&net, &lib, &FlowOptions::lily_area(), &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { .. })));
        // A different configuration must not adopt the stored prefix.
        let mis = checkpointed(&net, &lib, &FlowOptions::mis_area(), &dir, None).unwrap();
        assert!(mis.metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        let plain = FlowOptions::mis_area().run_detailed(&net, &lib).unwrap();
        assert_eq!(plain.metrics.wire_length.to_bits(), mis.metrics.wire_length.to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_degradation_survives_resume() {
        // The tree-partition rung is recorded inside `map`; a resume
        // after `legalize` must restore it from the manifest rather than
        // reject the map checkpoint as corrupt and recompute it.
        let lib = Library::big();
        let net = flow_fixture();
        let mut options = FlowOptions::cut_area();
        options.physical.cone_partition_max_nodes = 1;
        let dir = temp_dir("map-rung");
        let full = options.run_detailed(&net, &lib).unwrap();
        assert!(full.metrics.degradations.iter().any(|d| d.fallback == "tree-partition"));
        let killed = checkpointed(&net, &lib, &options, &dir, Some("legalize"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "legalize" })));
        let resumed = checkpointed(&net, &lib, &options, &dir, None).unwrap();
        assert_eq!(full.metrics.degradations, resumed.metrics.degradations);
        assert_eq!(shape(&full.metrics), shape(&resumed.metrics));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_flow_resumes_under_its_plan() {
        let lib = Library::big();
        let net = flow_fixture();
        let options = FlowOptions::lily_area();
        // A retried fault inside the restored prefix and a degrading one
        // after the kill point.
        let mut plan = FaultPlan::new();
        plan.push("map", 0, FaultKind::StageError);
        plan.push("legalize", 0, FaultKind::NanPoison);
        let (full, _) = faulted(&net, &lib, &options, &plan, &temp_dir("f-full"), None);
        let full = full.unwrap();
        assert!(full.metrics.retries >= 1);
        assert!(full.metrics.degradations.iter().any(|d| d.fallback == "core-center-seed"));
        let dir = temp_dir("f-resume");
        let (killed, _) = faulted(&net, &lib, &options, &plan, &dir, Some("map"));
        assert!(matches!(killed, Err(MapError::Interrupted { stage: "map" })));
        let (resumed, report) = faulted(&net, &lib, &options, &plan, &dir, None);
        // Restored stages arm nothing: only the legalize fault fires.
        assert_eq!(report.fired.len(), 1, "{report:?}");
        assert_eq!(shape(&full.metrics), shape(&resumed.unwrap().metrics));
        // A different plan is a different run: nothing is reused, so a
        // fault aimed at the first stage fires.
        let mut other = FaultPlan::new();
        other.push("decompose", 0, FaultKind::StageError);
        let (fresh, report) = faulted(&net, &lib, &options, &other, &dir, None);
        assert_eq!(report.error_class(), 1, "{report:?}");
        assert!(fresh.unwrap().metrics.degradations.iter().all(|d| d.stage != "checkpoint"));
        for tag in ["f-full", "f-resume"] {
            let _ = fs::remove_dir_all(temp_dir(tag));
        }
    }

    #[test]
    fn subject_codec_replays_exactly() {
        let (lib, net) = (Library::big(), flow_fixture());
        let g = Arc::new(
            lily_netlist::decompose::decompose(
                &net,
                lily_netlist::decompose::DecomposeOrder::Balanced,
            )
            .unwrap(),
        );
        let encoded = g.encode(&lib);
        let decoded = Arc::<SubjectGraph>::decode(&Json::parse(&encoded).unwrap(), &&net, &lib);
        let decoded = decoded.unwrap();
        assert_eq!(g.node_count(), decoded.node_count());
        assert_eq!(g.kinds(), decoded.kinds());
        assert_eq!(decoded.encode(&lib), encoded);
    }
}
