//! The one command-line front-end for the paper artefacts: regenerates
//! every table, figure and ablation into `results/` (paper scale) through
//! the shared artefact registry (`mve_bench::artefacts`) — the same render
//! functions the `serve` daemon caches, so both front-ends are
//! byte-identical by construction.
//!
//! ```text
//! reproduce [--smoke] [--only NAME]... [--jobs [N]] [--stdout]
//!           [--kernel NAME]... [--dsl]
//! reproduce --json
//! reproduce --profile [--paper]
//! ```
//!
//! Any other argument exits 2 with this flag list.
//!
//! `--smoke` runs the same pipeline at test scale into `results-smoke/`,
//! in seconds instead of minutes — used by CI so this entry point cannot
//! silently rot.
//!
//! `--only NAME` (repeatable) renders a subset; an unknown name exits
//! non-zero with the sorted artefact vocabulary.
//!
//! `--stdout` prints the renders to stdout instead, concatenated in
//! `--only` order at any job count, and creates no results directory:
//! `reproduce --smoke --only fig7 --stdout` prints one artefact.
//!
//! `--kernel NAME` (repeatable, only together with `--only ext_pumice`)
//! restricts the PUMICE extension study to named kernels from the
//! selected set. An unknown name exits 2 with the registry's sorted kernel
//! vocabulary — the same message the `serve` daemon replies with.
//!
//! `--jobs N` renders on N worker threads (a work queue over
//! `std::thread::scope`; `--jobs` alone uses the available parallelism).
//! Every artefact renders independently, so the results are
//! byte-identical to a serial run at any job count — CI asserts exactly
//! that.
//!
//! `--dsl` additionally compiles and runs the committed `.mvel` corpus
//! (`mve_bench::dslcorpus`) through the full mve-lang pipeline — parse →
//! lower → schedule → allocate → execute → check → simulate — writing one
//! `dsl_<name>.txt` render per kernel. The same bytes are committed as
//! `crates/bench/corpus/<name>.golden.txt` and served by the daemon's
//! `compile` op.
//!
//! `--json` instead times the engine and service hot-path micro-benchmarks
//! (`mve_bench::perf`) and writes the machine-readable trajectory file
//! `BENCH_engine.json` into the current directory, so each PR records the
//! functional engine's throughput. `MVE_BENCH_FAST=1` shrinks the timing
//! budgets for CI.
//!
//! `--profile` instead profiles the selected kernel set
//! (`mve_bench::profiling`): the deterministic per-opcode-class report
//! plus the per-source-line profiles of the DSL corpus go to
//! `PROFILE_engine.txt` (committed, byte-diffed in CI) and a Chrome
//! trace-event export — real wall-clock slices per kernel plus
//! cycle-denominated per-line slices per DSL kernel — goes to
//! `PROFILE_engine.chrome.json` (gitignored). `--paper` raises the scale.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mve_bench::{artefacts, figures};
use mve_kernels::registry::{kernel_by_name, selected_kernels};
use mve_kernels::Scale;

const USAGE: &str = "valid flags: --smoke, --only NAME, --jobs [N], --stdout, --kernel NAME \
                     (with --only ext_pumice), --dsl, --json, --profile, --paper";

/// Prints `msg` and exits 2, the status of every argument error.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[derive(Default)]
struct Args {
    smoke: bool,
    stdout: bool,
    dsl: bool,
    json: bool,
    profile: bool,
    paper: bool,
    /// Worker threads; 0 without `--jobs`, which renders serially.
    jobs: usize,
    only: Vec<&'static str>,
    kernels: Vec<String>,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args::default();
    let mut i = 0;
    while i < raw.len() {
        let a = raw[i].as_str();
        i += 1;
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_owned())),
            _ => (a, None),
        };
        // The flag's value: inline after `=`, else the next argument
        // unless that is itself a flag.
        let mut value = || {
            inline.clone().or_else(|| {
                let next = raw.get(i).filter(|v| !v.starts_with("--"))?;
                i += 1;
                Some(next.clone())
            })
        };
        match a {
            "--smoke" => args.smoke = true,
            "--stdout" => args.stdout = true,
            "--dsl" => args.dsl = true,
            "--json" => args.json = true,
            "--profile" => args.profile = true,
            "--paper" => args.paper = true,
            _ => match flag {
                "--jobs" => {
                    args.jobs = match value() {
                        Some(v) => match v.parse() {
                            Ok(n) if n > 0 => n,
                            _ => fail(format!("--jobs needs a positive integer, got `{v}`")),
                        },
                        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    };
                }
                "--only" => {
                    let name = value().unwrap_or_else(|| fail("--only needs an artefact name"));
                    match artefacts::NAMES.iter().find(|&&n| n == name) {
                        Some(&name) => args.only.push(name),
                        None => fail(artefacts::unknown_artefact_message(&name)),
                    }
                }
                "--kernel" => {
                    let name = value().unwrap_or_else(|| fail("--kernel needs a kernel name"));
                    args.kernels.push(name);
                }
                _ => fail(format!("unknown argument `{a}`; {USAGE}")),
            },
        }
    }
    if !args.kernels.is_empty() {
        if !args.only.contains(&"ext_pumice") {
            fail("--kernel applies only to the PUMICE study; add --only ext_pumice");
        }
        let selected = selected_kernels();
        for name in &args.kernels {
            // O(1) vocabulary check first: a typo gets the full sorted list.
            if let Err(unknown) = kernel_by_name(name) {
                fail(unknown);
            }
            if !selected.iter().any(|k| k.info().name == *name) {
                let names: Vec<&str> = selected.iter().map(|k| k.info().name).collect();
                fail(format!(
                    "kernel `{name}` is not in the selected extension-study set; \
                     selected kernels: {}",
                    names.join(", ")
                ));
            }
        }
    }
    if args.stdout && args.dsl {
        fail("--dsl writes files; it cannot be combined with --stdout");
    }
    args
}

/// Renders one artefact; `kernels` (when non-empty) restricts the PUMICE
/// study to those selected kernels.
fn render(name: &str, scale: Scale, kernels: &[String]) -> String {
    if name == "ext_pumice" && !kernels.is_empty() {
        let mut selected = selected_kernels();
        selected.retain(|k| kernels.iter().any(|n| n == k.info().name));
        return figures::ext_pumice_report(scale, &selected);
    }
    artefacts::render(name, scale).expect("validated artefact name")
}

/// Calls `f(i)` for every `i < n` on `jobs` worker threads. Each worker
/// claims the next unstarted index; a panicking call panics its worker
/// and the scope propagates it, so the run still exits non-zero.
fn run_jobs(n: usize, jobs: usize, f: impl Fn(usize) + Sync) {
    if jobs <= 1 {
        (0..n).for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

fn profile(scale: Scale) {
    // Engine profiling over the selected kernel set: the committed,
    // deterministic per-class report plus a Chrome trace-event export
    // (wall-clock; never committed — load it in chrome://tracing).
    let profiles = mve_bench::profiling::profile_selected(scale);
    for p in &profiles {
        eprintln!(
            "  {:12} {:>9} events  {:>11} cycles  run {:>8.1?}  sim {:>8.1?}",
            p.name,
            p.sink.total_events(),
            p.total_cycles,
            p.run_wall,
            p.sim_wall
        );
    }
    let dsl = mve_bench::profiling::profile_dsl_corpus();
    for p in &dsl {
        eprintln!(
            "  dsl {:9} {:>9} cycles over {} attributed lines",
            p.name,
            p.report.total_cycles,
            p.report.lines.iter().filter(|l| l.cycles > 0).count()
        );
    }
    let mut report = mve_bench::profiling::render_report(&profiles, scale);
    report.push_str(&mve_bench::profiling::render_dsl_lines(&dsl));
    fs::write("PROFILE_engine.txt", report.as_bytes()).expect("write PROFILE_engine.txt");
    let chrome = mve_bench::profiling::chrome_trace(&profiles, &dsl);
    fs::write("PROFILE_engine.chrome.json", chrome.as_bytes())
        .expect("write PROFILE_engine.chrome.json");
    eprintln!(
        "wrote PROFILE_engine.txt ({} kernels + {} dsl per-line profiles) \
         and PROFILE_engine.chrome.json",
        profiles.len(),
        dsl.len()
    );
}

fn bench_json() {
    let results = mve_bench::perf::run_engine_hot();
    for r in &results {
        eprintln!(
            "  {:28} {:>12.1} ns/iter  {:>10.1} Melem/s",
            r.name, r.median_ns, r.melems_per_s
        );
    }
    let json = mve_bench::perf::to_json(&results);
    fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    print!("{json}");
    eprintln!("wrote BENCH_engine.json ({} benches)", results.len());
}

fn main() {
    let args = parse_args();
    if args.profile {
        profile(if args.paper {
            Scale::Paper
        } else {
            Scale::Test
        });
        return;
    }
    if args.json {
        bench_json();
        return;
    }
    let scale = if args.smoke {
        Scale::Test
    } else {
        Scale::Paper
    };
    let names = if args.only.is_empty() {
        artefacts::NAMES.to_vec()
    } else {
        args.only.clone()
    };
    let jobs = args.jobs.clamp(1, names.len());

    if args.stdout {
        let texts: Vec<OnceLock<String>> = names.iter().map(|_| OnceLock::new()).collect();
        run_jobs(names.len(), jobs, |i| {
            let _ = texts[i].set(render(names[i], scale, &args.kernels));
        });
        for text in texts {
            print!("{}", text.get().expect("every artefact rendered"));
        }
        return;
    }

    let out_dir = if args.smoke {
        "results-smoke"
    } else {
        "results"
    };
    fs::create_dir_all(out_dir).expect("create results dir");
    if args.dsl {
        for (name, _) in mve_bench::dslcorpus::CORPUS {
            eprintln!("compiling dsl corpus kernel {name}...");
            let text = mve_bench::dslcorpus::render(name)
                .expect("corpus name")
                .unwrap_or_else(|e| panic!("corpus kernel {name} failed to compile: {e}"));
            let path = format!("{out_dir}/dsl_{name}.txt");
            fs::write(&path, text.as_bytes())
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            eprintln!("  -> {path} ({} bytes)", text.len());
        }
    }
    run_jobs(names.len(), jobs, |i| {
        let name = names[i];
        eprintln!("running {name}...");
        let text = render(name, scale, &args.kernels);
        let path = format!("{out_dir}/{name}.txt");
        fs::write(&path, text.as_bytes()).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        eprintln!("  -> {path} ({} bytes)", text.len());
    });
    eprintln!(
        "done: {} artefacts under {out_dir}/ ({jobs} jobs)",
        names.len()
    );
}
