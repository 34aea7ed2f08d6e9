//! End-to-end benchmark of the MVE reproduction.
//!
//! ```text
//! mve-e2e-bench --workload reproduce_paper|serve_hit|serve_miss --seed N
//!               --seconds N --trace 0|1 --serve-bin PATH
//! mve-e2e-bench --print-digests
//! ```
//!
//! `--trace 0` measures one workload and prints its end-to-end metrics.
//! `--trace 1` measures the workload untraced, then all three workloads
//! traced (the difference on its own workload is the tracing overhead),
//! and times every layer from outside; it prints the per-layer metrics
//! and writes a Chrome trace of the run into [`OUT_DIR`]. The last line of
//! standard output is the JSON result. See README.md.

mod affinity;
mod gen;
mod layers;
mod report;
mod reproduce;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mve_obs::ChromeTrace;

use report::{moves, result_line, Measured, Metrics};
use serve::Mix;

/// Set-ups per measured workload; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where traced runs write their Chrome trace, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub serve_bin: PathBuf,
    /// The reply the daemon owes for each artefact at test scale.
    pub artefact_replies: Vec<String>,
}

/// The traced run's Chrome trace: slices on `(pid, tid)` tracks, in µs
/// since the benchmark started.
pub struct Spans {
    trace: ChromeTrace,
    epoch: Instant,
}

impl Spans {
    fn new(epoch: Instant) -> Spans {
        let mut trace = ChromeTrace::new();
        trace.name_thread(1, 1, "reproduce_paper: paper-scale renders");
        let layer_tracks = [
            "kernels: run_mve",
            "core.sim: simulate",
            "coresim + memsim: Neon",
            "baselines: RVV and GPU",
            "energy",
            "core.engine: hot paths",
            "serve: protocol and cache",
        ];
        for (tid, name) in (1..).zip(layer_tracks) {
            trace.name_thread(2, tid, name);
        }
        Spans { trace, epoch }
    }

    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn slice(
        &mut self,
        name: &str,
        cat: &str,
        start: Instant,
        end: Instant,
        pid: u64,
        tid: u64,
    ) {
        let ts = self.offset_us(start);
        let dur = (end - start).as_secs_f64() * 1e6;
        self.trace.complete(name, cat, ts, dur, pid, tid, &[]);
    }

    pub fn name_track(&mut self, pid: u64, tid: u64, name: &str) {
        self.trace.name_thread(pid, tid, name);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReproducePaper,
    ServeHit,
    ServeMiss,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ReproducePaper,
        Workload::ServeHit,
        Workload::ServeMiss,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ReproducePaper => "reproduce_paper",
            Workload::ServeHit => "serve_hit",
            Workload::ServeMiss => "serve_miss",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        })
    };
    let workload = match value("--workload") {
        Some(name) => Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?,
        None => return Err("--workload is required".to_owned()),
    };
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let traced = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds,
        traced,
        serve_bin: value("--serve-bin").map(PathBuf::from),
    })
}

fn measure(
    ctx: &Ctx,
    w: Workload,
    traced: bool,
    setups: usize,
    spans: &mut Option<Spans>,
) -> Result<Measured, String> {
    match w {
        Workload::ReproducePaper => Ok(reproduce::run(ctx.seconds, traced, setups, spans)),
        Workload::ServeHit => serve::run(ctx, Mix::Hit, traced, setups, spans),
        Workload::ServeMiss => serve::run(ctx, Mix::Miss, traced, setups, spans),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let epoch = Instant::now();
    let needs_daemon = args.traced || args.workload != Workload::ReproducePaper;
    let serve_bin = match (&args.serve_bin, needs_daemon) {
        (Some(p), _) => p.clone(),
        (None, false) => PathBuf::new(),
        (None, true) => return Err("--serve-bin is required for this run".to_owned()),
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        serve_bin,
        artefact_replies: if needs_daemon {
            serve::expected_artefact_replies()
        } else {
            Vec::new()
        },
    };

    let w = args.workload;
    let untraced = measure(&ctx, w, false, SETUPS, &mut None)?;
    untraced.window.print(w.name(), false);
    let mut attempted = untraced.window.attempted;
    let mut failed = untraced.window.failed;
    if !args.traced {
        let metrics = untraced.window.metrics();
        println!("{}", result_line(failed == 0, attempted, failed, &metrics));
        return Ok(());
    }

    // Every traced run measures all three workloads traced, so it prints
    // every per-layer metric whatever its own workload; only its own
    // workload repeats the full set-up, for the overhead comparison.
    let mut spans = Some(Spans::new(epoch));
    let mut all = Metrics::default();
    let mut traced = None;
    for x in Workload::ALL {
        let setups = if x == w { SETUPS } else { 1 };
        let m = measure(&ctx, x, true, setups, &mut spans)?;
        attempted += m.window.attempted;
        failed += m.window.failed;
        all.0.extend(m.layers.0);
        if x == w {
            m.window.print(w.name(), true);
            traced = Some(m.window);
        }
    }
    let (layer_pass, layer_failed) = layers::run(&mut spans);
    failed += layer_failed;
    all.0.extend(layer_pass.0);
    let traced = traced.expect("the run's own workload is in Workload::ALL");
    for (u, t) in untraced.window.metrics().0.iter().zip(traced.metrics().0) {
        all.push(format!("overhead.{}", t.name), t.unit, t.value - u.value);
    }

    println!("== per-layer metrics (traced run; each with what it should move)");
    for m in &all.0 {
        println!(
            "  {:<40} {:>16.6e} {:<6} -> {}",
            m.name,
            m.value,
            m.unit,
            moves(&m.name)
        );
    }
    let spans = spans.expect("traced runs record spans");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", w.name(), args.seed));
    std::fs::write(&path, spans.trace.render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());
    println!("{}", result_line(failed == 0, attempted, failed, &all));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-digests") {
        reproduce::print_digests();
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mve-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mve-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
