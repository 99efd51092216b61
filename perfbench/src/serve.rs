//! The `serve-mixed` workload: the `lily-serve` binary as a subprocess,
//! driven open-loop over TCP at a fixed ladder of offered rates with a
//! seeded mix of paper-circuit jobs. Every request is timed from the
//! moment it was due, whether or not the generator sent it on time.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lily_cells::Library;
use lily_core::flow::{compare_flows, run_flow, FlowOptions};
use lily_core::json::Json;
use lily_netlist::sim::XorShift64;
use lily_netlist::{blif, Network};
use lily_par::ParOptions;
use lily_serve::wire::{read_frame, write_frame, ABSOLUTE_MAX_FRAME};
use lily_serve::{Event, FaultSpec, MapRequest, Source, StatsSnapshot};
use lily_workloads::circuits;

use crate::report::Report;
use crate::stats::{median, percentile, slo_rate, Step};
use crate::trace::Trace;
use crate::{proc_status_kb, verify};

/// Offered rates (requests/s) and requests per rung. Fixed here, never
/// derived at run time; 100 requests per rung leave 10 beyond its p90.
pub const LADDER: [(f64, usize); 3] = [(5.0, 100), (15.0, 100), (30.0, 100)];
/// The rung whose p50/p90 are reported as the workload's latency: the
/// clean-traffic operating point, at about a quarter of capacity, where
/// the median request rarely waits behind a slow one.
pub const NOMINAL: usize = 0;
/// The p90 latency limit a rung must meet to count towards `slo_rps`.
pub const LIMIT_S: f64 = 1.0;
/// Per-request deadline sent to the server; a miss is a failure.
const DEADLINE_MS: u64 = 20_000;
/// Server shape: two workers on two threads, a queue deep enough for
/// the top rung's backlog, and a memory budget that admits it.
const SERVER_ARGS: [&str; 8] =
    ["--workers", "2", "--threads", "2", "--queue", "128", "--memory-budget", "4g"];
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How long any single blocking step may take before the run fails.
const STALL: Duration = Duration::from_secs(60);

/// The circuit menu with draw weights: service times from a few ms
/// (9symml) to about half a second (C499, C1908) at one thread.
const MENU: [(&str, u32); 9] = [
    ("9symml", 4),
    ("misex1", 4),
    ("b9", 4),
    ("C432", 3),
    ("apex7", 3),
    ("e64", 2),
    ("C880", 2),
    ("C499", 1),
    ("C1908", 1),
];

/// What one request asks for (its reference is keyed by this).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Kind {
    circuit: &'static str,
    flow: &'static str,
    compare: bool,
    blif: bool,
}

impl Kind {
    fn library(&self) -> &'static str {
        if self.flow.ends_with("-delay") {
            "big-1u"
        } else {
            "big"
        }
    }
}

/// One scheduled request and what the client saw of it.
#[derive(Debug, Clone)]
struct Req {
    id: u64,
    step: usize,
    due: f64,
    kind: Kind,
    checkpoint: bool,
    /// When the generator sent it, seconds from the schedule's start.
    sent: f64,
    /// Its frames, once a terminal one arrived.
    out: Option<Outcome>,
}

/// A `stage` frame: flow tag, stage name, wall time in ns.
type StageFrame = (String, String, u64);

/// The frames of one request, timed on arrival.
#[derive(Debug, Clone, Default)]
struct Outcome {
    accepted: Option<f64>,
    stages: Vec<StageFrame>,
    /// Arrival of the terminal frame.
    done: f64,
    /// `done`, `error` or `rejected`.
    terminal: String,
    /// The `done` frame's body.
    body: Option<Json>,
}

impl Outcome {
    /// The flow tag of the longer pipeline tail and its summed stage
    /// time: a compare job's two tails run at once and each repeats the
    /// shared prefix, so the longer one is the job's service time.
    fn longest_tail(&self) -> Option<(&str, u64)> {
        let mut per_flow: BTreeMap<&str, u64> = BTreeMap::new();
        for (flow, _, ns) in &self.stages {
            *per_flow.entry(flow.as_str()).or_default() += ns;
        }
        per_flow.into_iter().max_by_key(|&(_, ns)| ns)
    }
}

/// A request's shape: flow, compare, checkpointed, inline BLIF.
type Shape = (&'static str, bool, bool, bool);

/// The `i`-th request shape of a rung, in fixed proportions per 20:
/// flows 35% lily-area, 25% mis-area, 25% cut-area, 15% lily-delay;
/// 15% compare both pipelines (Lily flows only), 15% are checkpointed
/// (single flows only) and 20% send inline BLIF.
fn shape(i: usize) -> Shape {
    let k = i % 20;
    let flow = match k {
        0..=6 => "lily-area",
        7..=11 => "mis-area",
        12..=16 => "cut-area",
        _ => "lily-delay",
    };
    (flow, matches!(k, 0 | 3 | 17), matches!(k, 1 | 7 | 12), i % 5 == 2)
}

/// Draws the seeded schedule: rung by rung, evenly spaced due times.
/// Every rung holds the same 100 (circuit, shape) pairs — the menu's
/// circuits in their weight proportions, the shapes in theirs — so every
/// seed offers the same work; the seed decides their order.
fn schedule(seed: u64) -> Vec<Req> {
    let mut rng = XorShift64::new(seed ^ 0x5E2F_E000);
    let slots: Vec<&'static str> =
        MENU.iter().flat_map(|&(c, w)| std::iter::repeat_n(c, w as usize)).collect();
    let mut reqs = Vec::new();
    let mut t = 0.0;
    for (step, &(rate, count)) in LADDER.iter().enumerate() {
        let mut pairs: Vec<(&'static str, Shape)> =
            (0..count).map(|i| (slots[i % slots.len()], shape(i))).collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_index(i + 1));
        }
        for (i, (circuit, (flow, compare, checkpoint, blif))) in pairs.into_iter().enumerate() {
            reqs.push(Req {
                id: reqs.len() as u64 + 1,
                step,
                due: t + i as f64 / rate,
                kind: Kind { circuit, flow, compare, blif },
                checkpoint,
                sent: 0.0,
                out: None,
            });
        }
        t += count as f64 / rate;
    }
    reqs
}

fn frame(req: &Req, blifs: &BTreeMap<&'static str, String>) -> String {
    let source = if req.kind.blif {
        Source::Blif(blifs[req.kind.circuit].clone())
    } else {
        Source::Circuit(req.kind.circuit.to_string())
    };
    MapRequest {
        id: req.id,
        source,
        library: req.kind.library().to_string(),
        flow: req.kind.flow.to_string(),
        compare: req.kind.compare,
        deadline_ms: Some(DEADLINE_MS),
        stage_deadline_ms: None,
        stage_retries: None,
        faults: FaultSpec::None,
        checkpoint: req.checkpoint.then(|| format!("job-{}", req.id)),
        kill_after: None,
    }
    .to_json()
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

struct Server {
    child: Child,
    addr: String,
    state: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(bin: &str, state: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(state).map_err(|e| format!("state dir: {e}"))?;
        let journal = state.join("journal");
        let ckpt = state.join("checkpoints");
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(SERVER_ARGS)
            .arg("--journal-dir")
            .arg(&journal)
            .arg("--checkpoint-root")
            .arg(&ckpt)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{bin}`: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let read = reader.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(a)) => a.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address (got `{}`)", line.trim()));
            }
        };
        // Keep draining stdout so the server never blocks on it; the
        // thread ends at the server's exit.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        let server = Self { child, addr, state: state.to_path_buf(), drain: Some(drain) };
        server.call("{\"id\":0,\"method\":\"ping\"}", "pong")?;
        Ok(server)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(STALL)).ok();
        Ok(s)
    }

    /// Sends one inline request and waits for the reply event.
    fn call(&self, payload: &str, want: &str) -> Result<Event, String> {
        let mut s = self.connect()?;
        write_frame(&mut s, payload, ABSOLUTE_MAX_FRAME).map_err(|e| e.to_string())?;
        let text = read_frame(&mut s, ABSOLUTE_MAX_FRAME).map_err(|e| e.to_string())?;
        let e = Event::parse(&text).map_err(|e| e.to_string())?;
        if e.event == want {
            Ok(e)
        } else {
            Err(format!("expected `{want}`, got `{text}`"))
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.call("{\"id\":0,\"method\":\"shutdown\"}", "ok");
        let t0 = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if t0.elapsed() < STALL => std::thread::sleep(Duration::from_millis(5)),
                _ => break Err("server did not exit after shutdown".to_string()),
            }
        };
        self.reap();
        match (asked, status?) {
            (Err(e), _) => Err(format!("shutdown: {e}")),
            (Ok(_), s) if !s.success() => Err(format!("server exited with {s}")),
            _ => Ok(()),
        }
    }

    /// Kills the server if it is still running, waits for it, and joins
    /// the stdout drain.
    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leave the daemon running, on any path.
        self.reap();
    }
}

fn dir_bytes(p: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(p) else { return 0 };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------

/// Connections the generator spreads requests over.
const CONNECTIONS: usize = 2;

/// Sends every request at its due time (round-robin over the
/// connections) while one reader per connection collects the frames.
/// Returns the requests and when the last terminal frame arrived.
fn drive(
    server: &Server,
    mut reqs: Vec<Req>,
    blifs: &BTreeMap<&'static str, String>,
) -> Result<(Vec<Req>, f64), String> {
    let streams: Vec<TcpStream> =
        (0..CONNECTIONS).map(|_| server.connect()).collect::<Result<_, _>>()?;
    let payloads: Vec<String> = reqs.iter().map(|r| frame(r, blifs)).collect();
    let index: BTreeMap<u64, usize> = reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_secs_f64();
    let seen: Result<Vec<Vec<(usize, Outcome)>>, String> = std::thread::scope(|s| {
        let mut readers = Vec::new();
        for (c, stream) in streams.iter().enumerate() {
            let mut rd = stream.try_clone().map_err(|e| e.to_string())?;
            let expect = (c..reqs.len()).step_by(CONNECTIONS).count();
            let index = &index;
            readers.push(s.spawn(move || -> Result<Vec<(usize, Outcome)>, String> {
                let mut open: BTreeMap<usize, Outcome> = BTreeMap::new();
                let mut finished = Vec::new();
                while finished.len() < expect {
                    let text = read_frame(&mut rd, ABSOLUTE_MAX_FRAME)
                        .map_err(|e| format!("read: {e}"))?;
                    let at = now();
                    let e = Event::parse(&text).map_err(|e| e.to_string())?;
                    let Some(&i) = index.get(&e.id) else { continue };
                    let o = open.entry(i).or_default();
                    match e.event.as_str() {
                        "accepted" => o.accepted = Some(at),
                        "stage" => {
                            let f =
                                |k| e.body.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                            let ns = e.body.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
                            o.stages.push((f("flow"), f("stage"), ns));
                        }
                        "done" | "error" | "rejected" => {
                            let mut o = open.remove(&i).unwrap_or_default();
                            o.done = at;
                            o.body = (e.event == "done").then_some(e.body);
                            o.terminal = e.event;
                            finished.push((i, o));
                        }
                        _ => {}
                    }
                }
                Ok(finished)
            }));
        }
        let mut writers: Vec<TcpStream> = streams
            .iter()
            .map(TcpStream::try_clone)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for (i, r) in reqs.iter_mut().enumerate() {
            let wait = r.due - now();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            r.sent = now();
            write_frame(&mut writers[i % CONNECTIONS], &payloads[i], ABSOLUTE_MAX_FRAME)
                .map_err(|e| format!("send: {e}"))?;
        }
        readers.into_iter().map(|h| h.join().map_err(|_| "reader panicked".to_string())?).collect()
    });
    let mut end: f64 = 0.0;
    for (i, o) in seen?.into_iter().flatten() {
        end = end.max(o.done);
        reqs[i].out = Some(o);
    }
    Ok((reqs, end))
}

// ---------------------------------------------------------------------
// Verification against in-process references
// ---------------------------------------------------------------------

/// The deterministic figures the server reports for one pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Figures {
    cells: u64,
    instance_area: f64,
    chip_area: f64,
    wire: f64,
    delay: f64,
}

impl Figures {
    fn from_json(m: &Json) -> Option<Self> {
        let f = |k| m.get(k).and_then(Json::as_f64);
        Some(Self {
            cells: m.get("cells").and_then(Json::as_u64)?,
            instance_area: f("instance_area_um2")?,
            chip_area: f("chip_area_um2")?,
            wire: f("wire_length_um")?,
            delay: f("critical_delay_ns")?,
        })
    }

    fn from_metrics(m: &lily_core::flow::FlowMetrics) -> Self {
        Self {
            cells: m.cells as u64,
            instance_area: m.instance_area,
            chip_area: m.chip_area,
            wire: m.wire_length,
            delay: m.critical_delay,
        }
    }
}

fn flow_options(flow: &str) -> FlowOptions {
    let mut o = match flow {
        "lily-area" => FlowOptions::lily_area(),
        "mis-area" => FlowOptions::mis_area(),
        "cut-area" => FlowOptions::cut_area(),
        _ => FlowOptions::lily_delay(),
    };
    o.verify = false;
    o
}

/// The reference a request is checked against. A BLIF request whose
/// text parses back to exactly the named circuit shares that circuit's
/// reference.
fn ref_key(k: &Kind, blif_is_circuit: &BTreeMap<&str, bool>) -> Kind {
    Kind { blif: k.blif && !blif_is_circuit[k.circuit], ..k.clone() }
}

/// Runs every distinct request kind in-process, gates each mapped
/// netlist against its input network, and returns the figures a
/// correct server must report for it.
fn references(
    kinds: &[Kind],
    blifs: &BTreeMap<&'static str, String>,
    seed: u64,
) -> BTreeMap<Kind, Result<Vec<Figures>, String>> {
    let libs: BTreeMap<&str, Library> =
        [("big", Library::big()), ("big-1u", Library::big_1u())].into();
    let outs = lily_par::par_map(&ParOptions::current(), kinds, |k| {
        let lib = &libs[k.library()];
        let net: Network = if k.blif {
            match blif::parse(&blifs[k.circuit]) {
                Ok(n) => n,
                Err(e) => return Err(format!("BLIF does not parse: {e}")),
            }
        } else {
            circuits::circuit(k.circuit)
        };
        let options = flow_options(k.flow);
        (|| {
            let results = if k.compare {
                let c = compare_flows(&net, lib, &options).map_err(|e| e.to_string())?;
                vec![
                    (c.mis, FlowOptions { mapper: lily_core::flow::FlowMapper::Mis, ..options }),
                    (c.lily, options),
                ]
            } else {
                vec![(run_flow(&net, lib, &options).map_err(|e| e.to_string())?, options)]
            };
            let mut figs = Vec::new();
            for (r, o) in &results {
                verify::check_result(&net, &r.mapped, lib, o, seed)?;
                figs.push(Figures::from_metrics(&r.metrics));
            }
            Ok(figs)
        })()
    });
    kinds.iter().cloned().zip(outs).collect()
}

/// The figures a `done` frame reports (one per pipeline).
fn reported(body: &Json, compare: bool) -> Option<Vec<Figures>> {
    if compare {
        Some(vec![Figures::from_json(body.get("mis")?)?, Figures::from_json(body.get("lily")?)?])
    } else {
        Some(vec![Figures::from_json(body.get("metrics")?)?])
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Warms the server with one compare job per library (C880, mid-sized,
/// so set-up time is mostly work rather than process start-up jitter),
/// one after the other so no race between them shapes the timing. Both
/// library cache entries exist before the ladder starts. Returns the
/// jobs' figures, which must repeat across set-up repetitions.
fn warm_up(server: &Server) -> Result<String, String> {
    let mut c = server.connect()?;
    let mut prints = Vec::new();
    for (i, (lib, flow)) in [("big", "lily-area"), ("big-1u", "lily-delay")].into_iter().enumerate()
    {
        let req = MapRequest {
            id: 1_000_000 + i as u64,
            source: Source::Circuit("C880".into()),
            library: lib.to_string(),
            flow: flow.to_string(),
            compare: true,
            deadline_ms: Some(DEADLINE_MS),
            stage_deadline_ms: None,
            stage_retries: None,
            faults: FaultSpec::None,
            checkpoint: None,
            kill_after: None,
        };
        write_frame(&mut c, &req.to_json(), ABSOLUTE_MAX_FRAME).map_err(|e| e.to_string())?;
        loop {
            let text = read_frame(&mut c, ABSOLUTE_MAX_FRAME).map_err(|e| e.to_string())?;
            let e = Event::parse(&text).map_err(|e| e.to_string())?;
            match e.event.as_str() {
                "done" => {
                    let f = reported(&e.body, true).ok_or("warm-up done frame lacks metrics")?;
                    prints.push(format!("{f:?}"));
                    break;
                }
                "error" | "rejected" => return Err(format!("warm-up job failed: {text}")),
                _ => {}
            }
        }
    }
    Ok(prints.join(";"))
}

/// Runs `serve-mixed` once.
pub fn run(bin: &str, seed: u64, trace: bool, report: &mut Report) {
    lily_par::set_threads(Some(2));
    let root = PathBuf::from(".bench_state").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(bin, seed, trace, &root, report);
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = result {
        report.fail(e);
    }
}

fn run_in(
    bin: &str,
    seed: u64,
    trace: bool,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let reqs = schedule(seed);
    report.attempted(reqs.len());
    // Inline BLIF carries each circuit with its inputs in a seeded order,
    // so those requests' QoR moves a little from seed to seed.
    let blifs: BTreeMap<&'static str, String> = MENU
        .iter()
        .enumerate()
        .map(|(i, &(c, _))| {
            (c, blif::write(&crate::batch::relabel(&circuits::circuit(c), seed, i)))
        })
        .collect();
    let blif_is_circuit: BTreeMap<&str, bool> = blifs
        .iter()
        .map(|(&c, text)| (c, blif::parse(text).is_ok_and(|n| n == circuits::circuit(c))))
        .collect();

    // Set-up: start a server on fresh state, ping it, warm its cache.
    let mut setup_times = Vec::new();
    let mut warm_prints = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let t0 = Instant::now();
        let s = Server::start(bin, &root.join(format!("rep{rep}")))?;
        warm_prints.push(warm_up(&s)?);
        setup_times.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up repetition");
    let warm_hwm = proc_status_kb(Some(server.pid()), "VmHWM").unwrap_or(0);
    if warm_prints.windows(2).any(|w| w[0] != w[1]) {
        report.fail("determinism: warm-up results differed between set-up repetitions".into());
    }
    report.note(format!(
        "setup: median of {} repetitions {:?}",
        setup_times.len(),
        setup_times.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));

    let (reqs, end) = drive(&server, reqs, &blifs)?;
    let stats = server
        .call("{\"id\":0,\"method\":\"stats\"}", "stats")
        .map(|e| StatsSnapshot::from_event(&e));
    let hwm = proc_status_kb(Some(server.pid()), "VmHWM");
    let journal_bytes = dir_bytes(&server.state.join("journal"));
    let ckpt_bytes = dir_bytes(&server.state.join("checkpoints"));
    Server::stop(server)?;
    let stats = stats?;

    // The gate, after the timed region.
    let kinds: Vec<Kind> = {
        let mut k: Vec<Kind> = reqs.iter().map(|r| ref_key(&r.kind, &blif_is_circuit)).collect();
        k.sort();
        k.dedup();
        k
    };
    let t_refs = Instant::now();
    let refs = references(&kinds, &blifs, seed);
    report.note(format!(
        "gate: {} reference runs in {:.1} s; server VmHWM {} kB after warm-up, {} kB at the end",
        kinds.len(),
        t_refs.elapsed().as_secs_f64(),
        warm_hwm,
        hwm.unwrap_or(0)
    ));
    let mut ok = vec![false; reqs.len()];
    let mut qor = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let what = format!("request {} ({:?}, checkpoint={})", r.id, r.kind, r.checkpoint);
        let Some(body) = r.out.as_ref().and_then(|o| o.body.as_ref()) else {
            let terminal = r.out.as_ref().map_or("nothing", |o| o.terminal.as_str());
            report.fail(format!("{what}: ended with `{terminal}`"));
            continue;
        };
        match (&refs[&ref_key(&r.kind, &blif_is_circuit)], reported(body, r.kind.compare)) {
            (Err(e), _) => report.fail(format!("{what}: reference failed: {e}")),
            (_, None) => report.fail(format!("{what}: done frame lacks metrics")),
            (Ok(want), Some(got)) if want != &got => {
                report.fail(format!("{what}: served {got:?}, reference {want:?}"))
            }
            (Ok(_), Some(got)) => {
                ok[i] = true;
                qor.extend(got);
            }
        }
    }

    // End-to-end metrics.
    let first_due = reqs.first().map_or(0.0, |r| r.due);
    report.set("setup_s", median(&setup_times).unwrap_or(0.0));
    report.set("wall_s", end - first_due);
    report.set("success_rate", ok.iter().filter(|&&o| o).count() as f64 / reqs.len() as f64);
    match hwm {
        Some(kb) => report.set("peak_rss_mb", kb as f64 / 1024.0),
        None => report.fail("server peak RSS unavailable (no /proc/<pid>/status)".into()),
    }
    report.set("cells", qor.iter().map(|f| f.cells as f64).sum());
    report.set("area_mm2", qor.iter().map(|f| f.chip_area).sum::<f64>() / 1e6);
    report.set("wire_mm", qor.iter().map(|f| f.wire).sum::<f64>() / 1e3);
    report.set("critical_delay_ns", qor.iter().map(|f| f.delay).sum());
    report.note(format!(
        "wall_s {:.4}: first due to last terminal frame over {} requests; QoR totals over {} served results",
        end - first_due,
        reqs.len(),
        qor.len()
    ));

    // Per-rung latency, from each request's due time. A failed request
    // counts as missing the limit.
    let latency = |r: &Req, i: usize| match (&r.out, ok[i]) {
        (Some(o), true) => o.done - r.due,
        _ => f64::INFINITY,
    };
    let mut steps = Vec::new();
    for (k, &(rate, _)) in LADDER.iter().enumerate() {
        let idx: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].step == k).collect();
        let lat: Vec<f64> = idx.iter().map(|&i| latency(&reqs[i], i)).collect();
        let start = idx.first().map_or(0.0, |&i| reqs[i].due);
        let stop = idx.last().map_or(0.0, |&i| reqs[i].due);
        let outstanding = |t: f64| {
            reqs.iter().filter(|r| r.due <= t && r.out.as_ref().is_none_or(|o| o.done > t)).count()
        };
        let p50 = percentile(&lat, 50.0);
        let p90 = percentile(&lat, 90.0);
        let step = Step {
            rate,
            p90: p90.map(|p| p.value),
            backlog_start: outstanding(start),
            backlog_end: outstanding(stop),
            all_ok: idx.iter().all(|&i| ok[i]),
        };
        report.note(format!(
            "rung {rate}/s: p50 {} p90 {} over {} requests; backlog {} -> {}; meets {LIMIT_S} s: {}",
            p50.map_or("n/a".into(), |p| format!("{:.4}", p.value)),
            p90.map_or("n/a".into(), |p| format!("{:.4}", p.value)),
            lat.len(),
            step.backlog_start,
            step.backlog_end,
            step.meets(LIMIT_S)
        ));
        if k == NOMINAL {
            // A failed request counts as an infinite latency (the run is
            // then incorrect); it prints as the largest finite float.
            let finite = |p: Option<crate::stats::Pct>| p.map_or(0.0, |p| p.value).min(f64::MAX);
            report.set_layer("latency_p50_s", finite(p50));
            report.set_layer("latency_p90_s", finite(p90));
            report.set_layer("loadgen.backlog", step.backlog_end as f64);
        }
        steps.push(step);
    }
    report.set_layer("slo_rps", slo_rate(&steps, LIMIT_S));
    if !trace {
        return Ok(());
    }

    // Spans from the client's view: request (due -> terminal) holding
    // late (due -> sent), admit (sent -> accepted) and run (accepted ->
    // terminal), whose children are the reported stages laid back to
    // back ending at the terminal frame.
    let built = Instant::now();
    let mut t = Trace::new(built);
    let ns = |s: f64| (s.max(0.0) * 1e9) as u64;
    let mut stage_s: BTreeMap<String, f64> = BTreeMap::new();
    for r in &reqs {
        let Some(o) = &r.out else { continue };
        let Some(acc) = o.accepted else { continue };
        let req = t.push("request", None, ns(r.due), ns(o.done));
        t.push("late", Some(req), ns(r.due), ns(r.sent));
        t.push("admit", Some(req), ns(r.sent), ns(acc));
        let run = t.push("run", Some(req), ns(acc), ns(o.done));
        let longest = o.longest_tail().map(|(f, _)| f);
        let mut end = ns(o.done);
        for (flow, stage, n) in o.stages.iter().rev() {
            if Some(flow.as_str()) == longest {
                let start = end.saturating_sub(*n);
                t.push(format!("stage.{}", stage.replace('-', "_")), Some(run), start, end);
                end = start;
            }
        }
        for (_, stage, n) in &o.stages {
            *stage_s.entry(format!("stage.{}_s", stage.replace('-', "_"))).or_default() +=
                *n as f64 / 1e9;
        }
    }
    let spans = t.spans();
    let of = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.duration() as f64 / 1e9).collect()
    };
    let queue: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "run")
        .map(|(i, _)| t.self_time(i) as f64 / 1e9)
        .collect();
    let service: Vec<f64> = reqs
        .iter()
        .filter_map(|r| r.out.as_ref()?.longest_tail())
        .map(|(_, ns)| ns as f64 / 1e9)
        .collect();
    let p50 = |v: &[f64], name: &str, report: &mut Report| {
        let p = percentile(v, 50.0);
        report.note(format!(
            "{name} {} over {} samples",
            p.map_or("n/a".into(), |p| format!("{:.5}", p.value)),
            v.len()
        ));
        report.set_layer(name, p.map_or(0.0, |p| p.value));
    };
    p50(&of("admit"), "serve.admit_p50_s", report);
    p50(&queue, "serve.queue_p50_s", report);
    p50(&service, "serve.service_p50_s", report);
    let late: Vec<f64> = reqs.iter().map(|r| r.sent - r.due).collect();
    let late_p90 = percentile(&late, 90.0).map_or(0.0, |p| p.value);
    report.set_layer("loadgen.late_p90_s", late_p90);
    report.note(format!("loadgen.late_p90_s {late_p90:.6} over {} samples", late.len()));
    for (k, v) in stage_s {
        report.set_layer(k, v);
    }
    report.set_layer("serve.stage_total_s", service.iter().sum());
    report.set_layer("serve.max_queue_wait_s", stats.max_queue_wait_ns as f64 / 1e9);
    report.set_layer("serve.journal_bytes", journal_bytes as f64);
    report.set_layer("serve.checkpoint_bytes", ckpt_bytes as f64);
    let lookups = stats.cache_hits + stats.cache_misses;
    report.set_layer("serve.cache_hit_ratio", stats.cache_hits as f64 / lookups.max(1) as f64);
    let ended = |what: &str| {
        reqs.iter().filter(|r| r.out.as_ref().is_some_and(|o| o.terminal == what)).count()
    };
    report.set_layer("serve.rejected", ended("rejected") as f64);
    report.set_layer("serve.errors", ended("error") as f64);
    report.set_layer("serve.completed", stats.completed as f64);
    report.set_layer("loadgen.sent", reqs.len() as f64);
    report.set_layer("count.jobs", reqs.len() as f64);
    report.set_layer("trace.overhead_s", built.elapsed().as_secs_f64());
    // The share of server-side time (accepted -> terminal) the reported
    // stages cover; the rest is queueing.
    let covered: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "run")
        .map(|(i, s)| s.duration() - t.self_time(i))
        .sum();
    let total: u64 = spans.iter().filter(|s| s.name == "run").map(|s| s.duration()).sum();
    report.set_layer("trace.attributed_ratio", covered as f64 / total.max(1) as f64);
    Ok(())
}
