//! The batch workloads: fixed sets of flow jobs driven through the
//! public flow entry points (`compare_flows`, `run_flow`), and, in the
//! traced run, through `FlowContext::run` stage by stage with the named
//! kernels timed on the same inputs beside their stage.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lily_cells::Library;
use lily_core::flow::{compare_flows, run_flow, FlowMapper, FlowMetrics, FlowOptions};
use lily_core::matching::MatchIndex;
use lily_core::stage::{
    AssignPads, Decompose, DetailedPlace, FlowContext, Legalize, Map, PadPlan, RouteEstimate, Sta,
    StageMetrics, SubjectImage, SubjectPlace,
};
use lily_core::{cut_matches, CutIndex, MapStats};
use lily_fault::CancelToken;
use lily_netlist::sim::XorShift64;
use lily_netlist::{CutConfig, Network, NodeId, SubjectGraph};
use lily_par::ParOptions;
use lily_place::multilevel::{try_multilevel_place_cancel, MultilevelOptions};
use lily_place::{try_global_place_cancel, GlobalOptions, PlacementProblem};
use lily_workloads::circuits;
use lily_workloads::scale::{random_dag, RandomDagOptions};

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{proc_status_kb, verify};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Every Table 1 circuit through `compare_flows` in area mode and
    /// the Table 2 subset in delay mode, at 2 threads.
    PaperCompare,
    /// `count` random DAGs of `nodes` nodes through `cut-area`.
    DagCut {
        /// Network nodes per circuit.
        nodes: usize,
        /// Circuits per run.
        count: usize,
        /// `LILY_THREADS` for the run.
        threads: usize,
    },
}

impl Batch {
    fn threads(self) -> usize {
        match self {
            Batch::PaperCompare => 2,
            Batch::DagCut { threads, .. } => threads,
        }
    }
}

/// One flow job: an input network and the flow(s) to run on it.
struct Job {
    name: String,
    net: Network,
    lib: usize,
    options: FlowOptions,
    compare: bool,
}

/// Everything set-up builds: the libraries, the jobs, and the warm-up
/// job's fingerprint.
struct Setup {
    libs: Vec<Library>,
    jobs: Vec<Job>,
    warm: Vec<Qor>,
}

fn mix(seed: u64, i: u64) -> u64 {
    XorShift64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1)).next_u64()
}

/// Generator seed of the `i`-th random DAG of a `dag-*` workload. The
/// circuits are the same for every run seed; the run seed only relabels
/// them (see [`relabel`]), so each run does the same work.
const DAG_POOL_SEED: u64 = 0x00DA_6C17;

/// The `i`-th circuit of a run with its primary inputs declared in an
/// order drawn from the run `seed` (unchanged for seed 0). The circuit
/// is the same; its pad order, and with it placement, wire and delay,
/// move a little from seed to seed, while the work a flow does on it
/// stays nearly the same.
pub fn relabel(net: &Network, seed: u64, i: usize) -> Network {
    if seed == 0 {
        return net.clone();
    }
    let mut order: Vec<NodeId> = net.inputs().to_vec();
    let mut rng = XorShift64::new(mix(seed, i as u64));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let mut out = Network::new(net.name());
    let mut map: Vec<Option<NodeId>> = vec![None; net.node_count()];
    for id in order {
        map[id.index()] = Some(out.add_input(net.node(id).name.clone()));
    }
    let at = |map: &[Option<NodeId>], id: NodeId| map[id.index()].expect("nodes are topological");
    for id in net.node_ids() {
        let node = net.node(id);
        if !node.is_input() {
            let fanins = node.fanins.iter().map(|&f| at(&map, f)).collect();
            let new = out.add_node(node.name.clone(), node.func.clone(), fanins);
            map[id.index()] = Some(new.expect("a copy of a valid network is valid"));
        }
    }
    for o in net.outputs() {
        out.add_output(o.name.clone(), at(&map, o.driver));
    }
    out
}

/// Builds the workload's inputs from `seed`: a fixed circuit set (every
/// Table 1 circuit and the Table 2 subset, or a fixed pool of random
/// DAGs) with each circuit's inputs in a seeded order. `--seed 0` runs
/// the circuits exactly as the repository defines them.
fn jobs(batch: Batch, seed: u64) -> Vec<Job> {
    match batch {
        Batch::PaperCompare => {
            let area =
                circuits::circuit_names().into_iter().map(|n| (n, 0, FlowOptions::lily_area()));
            let delay =
                circuits::table2_names().into_iter().map(|n| (n, 1, FlowOptions::lily_delay()));
            area.chain(delay)
                .enumerate()
                .map(|(i, (n, lib, options))| Job {
                    name: format!("{}/{n}", if lib == 0 { "area" } else { "delay" }),
                    net: relabel(&circuits::circuit(n), seed, i),
                    lib,
                    options,
                    compare: true,
                })
                .collect()
        }
        Batch::DagCut { nodes, count, .. } => (0..count)
            .map(|i| {
                let net = random_dag(RandomDagOptions {
                    target_nodes: nodes,
                    seed: DAG_POOL_SEED + i as u64,
                    ..RandomDagOptions::default()
                });
                Job {
                    name: format!("random-dag/{nodes}/{i}"),
                    net: relabel(&net, seed, i),
                    lib: 0,
                    options: FlowOptions::cut_area(),
                    compare: false,
                }
            })
            .collect(),
    }
}

/// A small job of the workload's own kind, run untimed in every set-up
/// to fault in code and allocator pools; its results must repeat
/// bit-for-bit across the set-up repetitions.
fn warm_job(batch: Batch, seed: u64) -> Job {
    match batch {
        Batch::PaperCompare => Job {
            name: "warm/misex1".into(),
            net: circuits::circuit("misex1"),
            lib: 0,
            options: FlowOptions::lily_area(),
            compare: true,
        },
        Batch::DagCut { .. } => Job {
            name: "warm/random-dag".into(),
            net: random_dag(RandomDagOptions {
                target_nodes: 300,
                seed: mix(seed, 1 << 32),
                ..RandomDagOptions::default()
            }),
            lib: 0,
            options: FlowOptions::cut_area(),
            compare: false,
        },
    }
}

fn setup(batch: Batch, seed: u64) -> Result<Setup, String> {
    let libs = vec![Library::big(), Library::big_1u()];
    for lib in &libs {
        // The NPN index is built lazily on first use; build it here.
        std::hint::black_box(lib.npn());
    }
    let jobs = jobs(batch, seed);
    let warm = warm_job(batch, seed);
    let (results, _) = run_job(&warm, &libs)?;
    Ok(Setup { libs, jobs, warm: fingerprint(&results) })
}

/// The mapped outcome of one pipeline, as the gate and the determinism
/// guard need it.
struct Mapped {
    flow: FlowMapper,
    metrics: Qor,
    mapped: lily_cells::MappedNetwork,
    options: FlowOptions,
}

/// The deterministic figures of one pipeline.
#[derive(Debug, Clone, PartialEq)]
struct Qor {
    cells: usize,
    instance_area: f64,
    chip_area: f64,
    wire_length: f64,
    critical_delay: f64,
    degradations: Vec<String>,
    stages: Vec<(String, usize)>,
    matches: usize,
    cuts: Option<lily_netlist::CutStats>,
}

impl Qor {
    fn from_metrics(m: &FlowMetrics) -> Self {
        Self {
            cells: m.cells,
            instance_area: m.instance_area,
            chip_area: m.chip_area,
            wire_length: m.wire_length,
            critical_delay: m.critical_delay,
            degradations: m.degradations.iter().map(ToString::to_string).collect(),
            stages: stage_sizes(&m.stages),
            matches: m.stats.matches_enumerated,
            cuts: m.stats.cuts,
        }
    }
}

fn stage_sizes(s: &StageMetrics) -> Vec<(String, usize)> {
    s.records().iter().map(|r| (r.stage.to_string(), r.size)).collect()
}

/// Every deterministic figure of a job's pipelines. Two of them are
/// equal exactly when every float matches bit for bit (a NaN never
/// matches, which is a defect of its own).
fn fingerprint(results: &[Mapped]) -> Vec<Qor> {
    results.iter().map(|r| r.metrics.clone()).collect()
}

/// Runs one job through the public drivers; returns its pipelines and
/// the flow wall time in seconds.
fn run_job(job: &Job, libs: &[Library]) -> Result<(Vec<Mapped>, f64), String> {
    let lib = &libs[job.lib];
    let t0 = Instant::now();
    let out = if job.compare {
        let c = compare_flows(&job.net, lib, &job.options).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        let side = |flow, r: lily_core::flow::FlowResult| Mapped {
            flow,
            metrics: Qor::from_metrics(&r.metrics),
            mapped: r.mapped,
            options: FlowOptions { mapper: flow, ..job.options },
        };
        (vec![side(FlowMapper::Mis, c.mis), side(FlowMapper::Lily, c.lily)], wall)
    } else {
        let r = run_flow(&job.net, lib, &job.options).map_err(|e| e.to_string())?;
        let wall = t0.elapsed().as_secs_f64();
        let m = Mapped {
            flow: job.options.mapper,
            metrics: Qor::from_metrics(&r.metrics),
            mapped: r.mapped,
            options: job.options,
        };
        (vec![m], wall)
    };
    Ok(out)
}

/// One pass over every job: per-job latency, fingerprint and gate.
struct Pass {
    ok_jobs: usize,
    latencies: Vec<f64>,
    fingerprints: Vec<Vec<Qor>>,
    qor: Vec<Qor>,
    failures: Vec<String>,
}

fn untraced_pass(setup: &Setup, seed: u64) -> Pass {
    let mut pass = Pass {
        ok_jobs: 0,
        latencies: Vec::new(),
        fingerprints: Vec::new(),
        qor: Vec::new(),
        failures: Vec::new(),
    };
    for job in &setup.jobs {
        match run_job(job, &setup.libs) {
            Ok((results, wall)) => {
                pass.latencies.push(wall);
                let before = pass.failures.len();
                gate(job, &results, &setup.libs, seed, &mut pass.failures);
                if pass.failures.len() == before {
                    pass.ok_jobs += 1;
                }
                pass.fingerprints.push(fingerprint(&results));
                pass.qor.extend(results.into_iter().map(|r| r.metrics));
            }
            Err(e) => {
                pass.failures.push(format!("{}: flow failed: {e}", job.name));
                pass.fingerprints.push(Vec::new());
            }
        }
    }
    pass
}

/// The correctness gate for one job (never inside a timed region).
fn gate(job: &Job, results: &[Mapped], libs: &[Library], seed: u64, failures: &mut Vec<String>) {
    for r in results {
        if let Err(e) = verify::check_result(&job.net, &r.mapped, &libs[job.lib], &r.options, seed)
        {
            failures.push(format!("{} [{:?}]: {e}", job.name, r.flow));
        }
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Counters the traced run collects beside the spans.
#[derive(Debug, Default, Clone)]
struct Counts {
    subject_nodes: usize,
    cuts_kept: usize,
    cuts_dominated: usize,
    cuts_attempted: usize,
    matches: usize,
    nets: usize,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.subject_nodes += o.subject_nodes;
        self.cuts_kept += o.cuts_kept;
        self.cuts_dominated += o.cuts_dominated;
        self.cuts_attempted += o.cuts_attempted;
        self.matches += o.matches;
        self.nets += o.nets;
    }
}

fn stage_err(job: &Job, e: lily_core::MapError) -> String {
    format!("{}: flow failed: {e}", job.name)
}

/// The post-`SubjectPlace` tail of one pipeline, stage by stage in the
/// order `run_flow` uses.
fn traced_tail<'l>(
    t: &mut Trace,
    mut ctx: FlowContext<'l>,
    g: &SubjectGraph,
    plan: &PadPlan,
    image: Option<&SubjectImage>,
    job: &Job,
) -> Result<Mapped, String> {
    let mapping = t
        .time("stage.map", None, || ctx.run(&Map, (g, plan, image)))
        .map_err(|e| stage_err(job, e))?;
    let stats: MapStats = mapping.stats;
    let legal = t
        .time("stage.legalize", None, || ctx.run(&Legalize, (plan, mapping)))
        .map_err(|e| stage_err(job, e))?;
    let placed = t
        .time("stage.detailed_place", None, || ctx.run(&DetailedPlace, legal))
        .map_err(|e| stage_err(job, e))?;
    let route = t
        .time("stage.route_estimate", None, || ctx.run(&RouteEstimate, &placed))
        .map_err(|e| stage_err(job, e))?;
    let timing =
        t.time("stage.sta", None, || ctx.run(&Sta, &placed)).map_err(|e| stage_err(job, e))?;
    let metrics = Qor {
        cells: placed.mapped.cell_count(),
        instance_area: route.instance_area,
        chip_area: route.chip_area,
        wire_length: route.wire_length,
        critical_delay: timing.sta.critical_delay,
        degradations: ctx.degradations.iter().map(ToString::to_string).collect(),
        stages: stage_sizes(&ctx.stages),
        matches: stats.matches_enumerated,
        cuts: stats.cuts,
    };
    let options = ctx.options;
    Ok(Mapped { flow: options.mapper, metrics, mapped: placed.mapped, options })
}

/// Times the map kernels of one pipeline on its subject graph, and the
/// per-net Steiner kernel on its placed netlist.
fn tail_kernels(
    t: &mut Trace,
    g: &SubjectGraph,
    lib: &Library,
    mapper: FlowMapper,
    placed: &lily_cells::MappedNetwork,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    if mapper == FlowMapper::Cut {
        let index = t
            .time("kernel.cut_enum", None, || CutIndex::build(g, &CutConfig::default()))
            .map_err(|e| e.to_string())?;
        let idx = t
            .time("kernel.cut_match", None, || cut_matches(g, lib, &index))
            .map_err(|e| e.to_string())?;
        let s = index.stats;
        c.cuts_kept = s.kept;
        c.cuts_dominated = s.pruned_dominated;
        c.cuts_attempted = s.kept + s.pruned_width + s.pruned_dominated + s.pruned_overflow;
        c.matches = idx.total();
    } else {
        let idx = t
            .time("kernel.match_build", None, || MatchIndex::build(g, lib))
            .map_err(|e| e.to_string())?;
        c.matches = idx.total();
    }
    let nets = placed.nets();
    let total = t.time("kernel.rsmt", None, || {
        nets.iter()
            .map(|n| lily_route::rsmt_length(&lily_timing::load::net_points(placed, n)))
            .sum::<f64>()
    });
    std::hint::black_box(total);
    c.nets = nets.len();
    Ok(c)
}

/// Times the global-placement kernel `SubjectPlace` used, on its input.
fn place_kernel(t: &mut Trace, plan: &PadPlan, options: &FlowOptions) -> Result<(), String> {
    let problem = PlacementProblem { fixed: plan.pads.clone(), ..plan.placement.problem.clone() };
    let never = CancelToken::never();
    if problem.movable >= options.physical.multilevel_threshold {
        t.time("kernel.multilevel", None, || {
            try_multilevel_place_cancel(&problem, &MultilevelOptions::for_region(plan.core), &never)
                .map(|_| ())
        })
    } else {
        t.time("kernel.cg", None, || {
            try_global_place_cancel(&problem, &GlobalOptions::for_region(plan.core), &never)
                .map(|_| ())
        })
    }
    .map_err(|e| e.to_string())
}

/// One traced job: `job` → `flow` (the stages) and `job` → `probes`
/// (the kernels, timed after the flow on the same inputs and with the
/// same thread layout the stages had).
fn traced_job(t: &mut Trace, job: &Job, libs: &[Library]) -> Result<(Vec<Mapped>, Counts), String> {
    let lib = &libs[job.lib];
    let job_span = t.open("job", None);
    let flow_span = t.open("flow", Some(job_span));
    let base = job.options;
    let shared_opts =
        if job.compare { FlowOptions { mapper: FlowMapper::Lily, ..base } } else { base };
    let mut shared = FlowContext::new(lib, shared_opts);
    if job.compare {
        shared = shared.with_flow("shared");
    }
    let g: Arc<SubjectGraph> = t
        .time("stage.decompose", Some(flow_span), || shared.run(&Decompose, &job.net))
        .map_err(|e| stage_err(job, e))?;
    if g.base_gate_count() == 0 || g.outputs().is_empty() {
        return Err(format!("{}: degenerate input (no logic to map)", job.name));
    }
    let plan = t
        .time("stage.assign_pads", Some(flow_span), || shared.run(&AssignPads, &*g))
        .map_err(|e| stage_err(job, e))?;
    let wants_image = job.compare || Map::wants_image(lib, &shared.options);
    let image = if wants_image {
        Some(
            t.time("stage.subject_place", Some(flow_span), || {
                shared.run(&SubjectPlace, (&*g, &plan))
            })
            .map_err(|e| stage_err(job, e))?,
        )
    } else {
        None
    };
    let origin = t.origin();
    let origin_trace = || Trace::new(origin);
    let results = if job.compare {
        let mut mis = FlowContext::new(lib, FlowOptions { mapper: FlowMapper::Mis, ..base });
        let mut lily = FlowContext::new(lib, FlowOptions { mapper: FlowMapper::Lily, ..base });
        mis.adopt(&shared);
        lily.adopt(&shared);
        let (mut tm, mut tl) = (origin_trace(), origin_trace());
        let (a, b) = lily_par::join(
            &ParOptions::current(),
            || traced_tail(&mut tm, mis, &g, &plan, image.as_ref(), job),
            || traced_tail(&mut tl, lily, &g, &plan, image.as_ref(), job),
        );
        t.absorb(tm, Some(flow_span));
        t.absorb(tl, Some(flow_span));
        vec![a?, b?]
    } else {
        let mut tt = origin_trace();
        let r = traced_tail(&mut tt, shared, &g, &plan, image.as_ref(), job);
        t.absorb(tt, Some(flow_span));
        vec![r?]
    };
    t.close(flow_span);

    let probes = t.open("probes", Some(job_span));
    if wants_image {
        let mut tp = origin_trace();
        let r = place_kernel(&mut tp, &plan, &base);
        t.absorb(tp, Some(probes));
        r?;
    }
    let mut counts = Counts { subject_nodes: g.node_count(), ..Counts::default() };
    let tails: Vec<(Trace, Result<Counts, String>)> = if let [a, b] = &results[..] {
        let (mut ta, mut tb) = (origin_trace(), origin_trace());
        let (ra, rb) = lily_par::join(
            &ParOptions::current(),
            || tail_kernels(&mut ta, &g, lib, a.flow, &a.mapped),
            || tail_kernels(&mut tb, &g, lib, b.flow, &b.mapped),
        );
        vec![(ta, ra), (tb, rb)]
    } else {
        let mut ta = origin_trace();
        let r = tail_kernels(&mut ta, &g, lib, results[0].flow, &results[0].mapped);
        vec![(ta, r)]
    };
    for (tr, r) in tails {
        t.absorb(tr, Some(probes));
        counts.add(&r?);
    }
    t.close(probes);
    t.close(job_span);
    Ok((results, counts))
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Runs `batch` once: set-up (repeated, median reported), the untraced
/// pass, the gate, and with `trace` the traced pass.
pub fn run(batch: Batch, seed: u64, trace: bool, report: &mut Report) {
    lily_par::set_threads(Some(batch.threads()));
    let mut setup_times = Vec::new();
    let mut built = None;
    let mut warm_prints = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition's set-up before timing the next.
        drop(built.take());
        let t0 = Instant::now();
        let s = setup(batch, seed);
        setup_times.push(t0.elapsed().as_secs_f64());
        match s {
            Ok(s) => {
                warm_prints.push(s.warm.clone());
                built = Some(s);
            }
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return;
            }
        }
    }
    let setup = built.expect("at least one set-up repetition");
    if warm_prints.windows(2).any(|w| w[0] != w[1]) {
        report.fail("determinism: the warm-up job differed between set-up repetitions".into());
    }
    report.attempted(setup.jobs.len());
    report.note(format!(
        "setup: median of {} repetitions {:?}",
        setup_times.len(),
        setup_times.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));

    let rss_before = proc_status_kb(None, "VmRSS").unwrap_or(0);
    let pass = untraced_pass(&setup, seed);
    let hwm = proc_status_kb(None, "VmHWM");
    for f in &pass.failures {
        report.fail(f.clone());
    }
    let wall: f64 = pass.latencies.iter().sum();
    let n = pass.latencies.len();
    report.note(format!("wall_s {wall:.4} over {n} jobs (flow time only; checks excluded)"));

    report.set("setup_s", median(&setup_times).unwrap_or(0.0));
    report.set("wall_s", wall);
    report.set("success_rate", pass.ok_jobs as f64 / setup.jobs.len() as f64);
    match hwm {
        Some(kb) => report.set("peak_rss_mb", kb as f64 / 1024.0),
        None => report.fail("peak RSS unavailable (no /proc/self/status)".into()),
    }
    let sum = |f: fn(&Qor) -> f64| pass.qor.iter().map(f).sum::<f64>();
    report.set("cells", sum(|q| q.cells as f64));
    report.set("area_mm2", sum(|q| q.chip_area) / 1e6);
    report.set("wire_mm", sum(|q| q.wire_length) / 1e3);
    report.set("critical_delay_ns", sum(|q| q.critical_delay));
    report.note(format!("QoR totals over {} mapped results", pass.qor.len()));

    // Per-layer figures that need no spans.
    report.set_layer("count.jobs", n as f64);
    report.set_layer(
        "degradations",
        pass.qor.iter().map(|q| q.degradations.len()).sum::<usize>() as f64,
    );
    // Every batch workload runs at least 20 jobs, so the median has 10
    // samples beyond it.
    if let Some(p) = percentile(&pass.latencies, 50.0) {
        report.set_layer("latency_p50_s", p.value);
        report.note(format!("latency_p50_s {:.4} over {} jobs", p.value, p.samples));
    }
    if batch == Batch::PaperCompare {
        ratios(&pass.qor, report);
    }
    let est = setup
        .jobs
        .iter()
        .map(|j| {
            let per = lily_core::mem::estimate_peak_bytes(j.net.node_count() as u64);
            if j.compare {
                per.saturating_mul(2)
            } else {
                per
            }
        })
        .max()
        .unwrap_or(0);
    if let Some(h) = hwm {
        let measured = h.saturating_sub(rss_before).max(1) * 1024;
        report.set_layer("mem.estimate_ratio", est as f64 / measured as f64);
        report.note(format!(
            "mem: estimate {est} B vs measured flow peak {measured} B (VmHWM − VmRSS before)"
        ));
    }

    if !trace {
        return;
    }
    let origin = Instant::now();
    let mut t = Trace::new(origin);
    let mut counts = Counts::default();
    let mut traced_prints = Vec::new();
    for job in &setup.jobs {
        match traced_job(&mut t, job, &setup.libs) {
            Ok((results, c)) => {
                let mut fails = Vec::new();
                gate(job, &results, &setup.libs, seed, &mut fails);
                for f in fails {
                    report.fail(format!("traced: {f}"));
                }
                traced_prints.push(fingerprint(&results));
                counts.add(&c);
            }
            Err(e) => {
                report.fail(format!("traced: {e}"));
                traced_prints.push(Vec::new());
            }
        }
    }
    for (i, (a, b)) in pass.fingerprints.iter().zip(&traced_prints).enumerate() {
        if a != b {
            report.fail(format!(
                "determinism: {} differs between the untraced and traced runs\n  untraced: {a:?}\n  traced:   {b:?}",
                setup.jobs[i].name
            ));
        }
    }
    layer_metrics(&t, &counts, wall, report);
}

/// Geomean Lily/MIS ratios (Table 1: chip and wire; Table 2: delay).
fn ratios(qor: &[Qor], report: &mut Report) {
    // Results come in (MIS, Lily) pairs, area jobs first, then delay.
    let pairs: Vec<(&Qor, &Qor)> = qor.chunks(2).map(|c| (&c[0], &c[1])).collect();
    let n_area = circuits::circuit_names().len();
    let geo = |rows: &[(&Qor, &Qor)], f: fn(&Qor) -> f64| {
        let logs: Vec<f64> = rows
            .iter()
            .filter(|(m, l)| f(m) > 0.0 && f(l) > 0.0)
            .map(|(m, l)| (f(l) / f(m)).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    };
    let (area, delay) = pairs.split_at(n_area.min(pairs.len()));
    report.set_layer("lily_chip_ratio", geo(area, |q| q.chip_area));
    report.set_layer("lily_wire_ratio", geo(area, |q| q.wire_length));
    report.set_layer("lily_delay_ratio", geo(delay, |q| q.critical_delay));
    report.note(format!(
        "ratios: geomean Lily/MIS over {} Table 1 and {} Table 2 circuits",
        area.len(),
        delay.len()
    ));
}

const STAGES: [&str; 8] = [
    "decompose",
    "assign_pads",
    "subject_place",
    "map",
    "legalize",
    "detailed_place",
    "route_estimate",
    "sta",
];

fn layer_metrics(t: &Trace, c: &Counts, untraced_wall: f64, report: &mut Report) {
    let mut flow_total = 0u64;
    let mut flow_covered = 0u64;
    for (i, s) in t.spans().iter().enumerate() {
        if s.name == "flow" {
            flow_total += s.duration();
            flow_covered += s.duration() - t.self_time(i);
        }
    }
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for st in STAGES {
        let key = format!("stage.{st}");
        by_name.insert(format!("{key}_s"), t.total_s(&key));
        report.note(format!("{key}_s {:.4} over {} spans", t.total_s(&key), t.count(&key)));
    }
    for k in ["cut_enum", "cut_match", "match_build", "multilevel", "cg", "rsmt"] {
        let key = format!("kernel.{k}");
        by_name.insert(format!("{key}_s"), t.total_s(&key));
        report.note(format!("{key}_s {:.4} over {} spans", t.total_s(&key), t.count(&key)));
    }
    let cover = by_name["stage.map_s"]
        - by_name["kernel.cut_enum_s"]
        - by_name["kernel.cut_match_s"]
        - by_name["kernel.match_build_s"];
    by_name.insert("kernel.cover_s".into(), cover);
    for (k, v) in by_name {
        report.set_layer(k, v);
    }
    let flow_s = flow_total as f64 / 1e9;
    report.set_layer("trace.attributed_ratio", flow_covered as f64 / flow_total.max(1) as f64);
    report.set_layer("trace.overhead_s", flow_s - untraced_wall);
    report.note(format!(
        "trace: {:.4} s of {:.4} s flow wall in named stage spans; untraced wall {:.4} s",
        flow_covered as f64 / 1e9,
        flow_s,
        untraced_wall
    ));
    report.set_layer("count.subject_nodes", c.subject_nodes as f64);
    report.set_layer("count.cuts_kept", c.cuts_kept as f64);
    report.set_layer("count.cuts_dominated", c.cuts_dominated as f64);
    report.set_layer(
        "ratio.cuts_kept",
        if c.cuts_attempted > 0 { c.cuts_kept as f64 / c.cuts_attempted as f64 } else { 0.0 },
    );
    report.set_layer("count.matches", c.matches as f64);
    report.set_layer("count.nets", c.nets as f64);
}
