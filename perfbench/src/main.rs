//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1 [--server-bin PATH]
//! ```
//!
//! Each workload does a fixed amount of work per run (never
//! time-boxed; `--seconds` is the nominal run length and only printed),
//! checks every output, and prints one JSON result line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. See `README.md`.

mod batch;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use std::process::ExitCode;
use std::time::Instant;

use batch::Batch;
use report::Report;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["paper-compare", "dag-2k-cut", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--server-bin" => server_bin = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin,
    })
}

/// Reads a `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`
/// (`None` = this process). `None` where procfs is unavailable.
pub fn proc_status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    line[field.len() + 1..].trim().trim_end_matches("kB").trim().parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-compare" => batch::run(Batch::PaperCompare, args.seed, args.trace, &mut report),
        "dag-2k-cut" => batch::run(
            Batch::DagCut { nodes: 2_000, count: 20, threads: 1 },
            args.seed,
            args.trace,
            &mut report,
        ),
        _ => match &args.server_bin {
            Some(bin) => serve::run(bin, args.seed, args.trace, &mut report),
            None => {
                eprintln!("perfbench: serve-mixed needs --server-bin");
                return ExitCode::from(2);
            }
        },
    }
    let elapsed = t0.elapsed().as_secs_f64();
    report.note(format!(
        "run took {elapsed:.1} s (nominal {} s; the work is fixed, not time-boxed)",
        args.seconds
    ));
    let (out, correct) = report.finish(args.trace);
    print!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
