//! The serve workloads: the real `serve` binary as a child process with
//! default options, driven closed-loop by [`CONNECTIONS`] client threads,
//! one connection each. A connection sends its next request only after
//! the previous reply has arrived, the way `mve-client` and replay callers
//! behave.
//!
//! `serve_hit` places the daemon on one CPU and the client threads on
//! another for its timed window. Left to the kernel, the daemon's event
//! loop and workers land on one CPU in some runs and on two in others, and
//! a hit costs about twice as much with the cross-CPU hand-offs, so the
//! same run reads 5 s or 10 s. `serve_miss` is not placed: its workers
//! execute kernels in parallel on both CPUs, and its times are steady.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mve_bench::artefacts::NAMES;
use mve_bench::dslcorpus::CORPUS;
use mve_core::sim::simulate;
use mve_kernels::common::EngineArraysGuard;
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;
use mve_obs::log::FieldValue;
use mve_serve::protocol::{encode_request, ok_artefact, ok_sim, report_to_json};
use mve_serve::{Json, Request};

use crate::affinity;
use crate::gen::{hit_stream, miss_stream, Planned, Rng};
use crate::report::{Measured, Metrics, Window};
use crate::stats::{self, Pct};
use crate::{Ctx, Spans};

/// Client threads, one connection each.
const CONNECTIONS: usize = 2;
/// Trace-ring capacity of the traced daemon (the CLI's maximum).
const TRACE_RING: usize = 65_536;
/// Requests per connection per second of `--seconds`: fixed, so both
/// commits of a comparison send identical sequences. On a 2-core host
/// today a `serve_miss` window lasts about `--seconds`, a `serve_hit`
/// window about half of it: each hit costs more the more requests the
/// daemon has served, and with larger counts the end of the window (and so
/// p99) varied twice as much from run to run.
const HIT_RATE_PER_CONN: usize = 2_000;
const MISS_RATE_PER_CONN: usize = 700;
/// `serve_miss` replies recomputed in-process after the window closes.
const MISS_SAMPLE: usize = 48;
/// Requests per session exported to the Chrome trace, from each end.
const CHROME_REQUESTS: usize = 500;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hit,
    Miss,
}

impl Mix {
    /// Metric-name prefix of this session's layer metrics.
    fn prefix(self) -> &'static str {
        match self {
            Mix::Hit => "hit",
            Mix::Miss => "miss",
        }
    }

    /// The seeded request sequence of every connection.
    fn plans(self, seed: u64, seconds: u64) -> Vec<Vec<Planned>> {
        let rate = match self {
            Mix::Hit => HIT_RATE_PER_CONN,
            Mix::Miss => MISS_RATE_PER_CONN,
        };
        let len = rate * seconds as usize;
        (0..CONNECTIONS)
            .map(|c| {
                let mut rng = Rng::stream(seed, c);
                match self {
                    Mix::Hit => hit_stream(&mut rng, len),
                    Mix::Miss => miss_stream(&mut rng, len),
                }
            })
            .collect()
    }
}

/// A running daemon. Dropping it kills the process if it is still up
/// and always waits for it, so no run leaves one behind.
struct Daemon {
    child: Child,
    _stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    port: u16,
    /// When the process was spawned: the zero of its trace timestamps,
    /// to within its start-up time.
    spawned: Instant,
}

impl Daemon {
    fn spawn(bin: &Path, traced: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0"]);
        if traced {
            cmd.args(["--trace-ring", &TRACE_RING.to_string()]);
        }
        // stdin stays open for the daemon's life: if this process dies,
        // the pipe closes and the daemon shuts itself down.
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon pipes missing".to_owned());
        };
        let mut daemon = Daemon {
            child,
            _stdin: stdin,
            stdout: BufReader::new(stdout),
            port: 0,
            spawned,
        };
        let mut banner = String::new();
        daemon
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the daemon banner: {e}"))?;
        daemon.port = banner
            .split("127.0.0.1:")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.port).map_err(|e| format!("connecting to the daemon: {e}"))
    }

    /// VmHWM of the daemon process, MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    fn control(&self, req: &Request) -> Result<Json, String> {
        let mut conn = self.connect()?;
        let mut reply = String::new();
        conn.roundtrip(&format!("{}\n", encode_request(req)), &mut reply)
            .map_err(|e| format!("control request: {e}"))?;
        mve_serve::protocol::parse_response(&reply)
    }

    /// The `stats` counter snapshot.
    fn stats(&self) -> Result<Json, String> {
        self.control(&Request::Stats)?
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply lacks `stats`".to_owned())
    }

    /// Graceful shutdown through the protocol; the process must exit
    /// within ten seconds.
    fn stop(mut self) -> Result<(), String> {
        self.control(&Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 10 s of shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One blocking JSON-lines connection that hands back raw reply lines.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one newline-terminated line and reads one reply line into
    /// `reply`, without its newline.
    fn roundtrip(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(())
    }
}

/// The exact reply the daemon owes for each artefact at test scale,
/// built from an in-process render.
pub fn expected_artefact_replies() -> Vec<String> {
    (0..NAMES.len())
        .map(|i| expected_reply(&Planned::Artefact(i)).expect("artefacts render"))
        .collect()
}

/// Spawns a daemon and renders the 16 artefacts through it, checking
/// each reply. Returns the warm daemon, the seconds this took, and the
/// number of bad replies.
fn start_session(ctx: &Ctx, traced: bool) -> Result<(Daemon, f64, u64), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(&ctx.serve_bin, traced)?;
    let mut conn = daemon.connect()?;
    let mut reply = String::new();
    let mut bad = 0;
    for (i, want) in ctx.artefact_replies.iter().enumerate() {
        conn.roundtrip(&Planned::Artefact(i).line(), &mut reply)
            .map_err(|e| format!("warm render of {}: {e}", NAMES[i]))?;
        if reply != *want {
            eprintln!(
                "warm render of {} differs from the in-process render",
                NAMES[i]
            );
            bad += 1;
        }
    }
    Ok((daemon, start.elapsed().as_secs_f64(), bad))
}

/// What the closed loop should do with one reply.
enum Verdict {
    Ok,
    /// Correct so far; keep the reply for a check after the window.
    Keep,
    Fail,
}

/// The raw outcome of one closed-loop window.
struct Drive {
    window: Window,
    /// `(connection, index, reply)` of every kept reply.
    kept: Vec<(usize, usize, String)>,
}

/// Runs every connection's sequence to completion, closed loop.
fn drive(
    port: u16,
    plans: &[Vec<Planned>],
    client_cpu: Option<usize>,
    verdict: &(dyn Fn(usize, usize, &str) -> Verdict + Sync),
) -> Result<Drive, String> {
    let barrier = Barrier::new(plans.len());
    let per_conn: Vec<Result<_, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let lines: Vec<String> = plan.iter().map(Planned::line).collect();
                    let conn = Conn::open(port);
                    let pinned = client_cpu.map_or(Ok(()), |cpu| affinity::pin_thread(0, cpu));
                    barrier.wait();
                    let mut conn = conn.map_err(|e| format!("connection {c}: {e}"))?;
                    pinned.map_err(|e| format!("placing connection {c}: {e}"))?;
                    let mut lat = Vec::with_capacity(lines.len());
                    let mut done = Vec::with_capacity(lines.len());
                    let mut kept = Vec::new();
                    let mut failed = 0u64;
                    let mut reply = String::new();
                    let t0 = Instant::now();
                    for (i, line) in lines.iter().enumerate() {
                        let sent = Instant::now();
                        if let Err(e) = conn.roundtrip(line, &mut reply) {
                            eprintln!("connection {c} lost at request {i}: {e}");
                            failed += (lines.len() - i) as u64;
                            break;
                        }
                        let now = Instant::now();
                        lat.push((now - sent).as_secs_f64());
                        done.push((now - t0).as_secs_f64());
                        match verdict(c, i, &reply) {
                            Verdict::Ok => {}
                            Verdict::Keep => kept.push((c, i, reply.clone())),
                            Verdict::Fail => failed += 1,
                        }
                    }
                    Ok((lat, done, kept, failed, lines.len() as u64))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Drive {
        window: Window::default(),
        kept: Vec::new(),
    };
    for r in per_conn {
        let (lat, done, kept, failed, attempted) = r?;
        let w = &mut out.window;
        w.wall_s = done.iter().copied().fold(w.wall_s, f64::max);
        w.latencies_s.extend(lat);
        w.completions_s.push(done);
        w.failed += failed;
        w.attempted += attempted;
        out.kept.extend(kept);
    }
    Ok(out)
}

/// Counters from one `stats` reply.
fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Runs one serve workload: `setups` daemons are started and warmed (the
/// set-up is timed each time; all but the last are shut down), then the
/// last one serves the timed window.
pub fn run(
    ctx: &Ctx,
    mix: Mix,
    traced: bool,
    setups: usize,
    spans: &mut Option<Spans>,
) -> Result<Measured, String> {
    let plans = mix.plans(ctx.seed, ctx.seconds);
    let mut setup_times = Vec::new();
    let mut setup_failed = 0;
    let mut warm = None;
    for _ in 0..setups {
        if let Some(previous) = warm.take() {
            Daemon::stop(previous)?;
        }
        let (daemon, seconds, bad) = start_session(ctx, traced)?;
        setup_times.push(seconds);
        setup_failed += bad;
        warm = Some(daemon);
    }
    let daemon = warm.expect("at least one set-up");

    // Placement happens after set-up, when every daemon thread exists.
    let cpus = affinity::allowed().map_err(|e| format!("reading CPU affinity: {e}"))?;
    let client_cpu = match (mix, cpus.first(), cpus.last()) {
        (Mix::Hit, Some(&first), Some(&last)) if first != last => {
            affinity::pin_process(daemon.child.id(), first)
                .map_err(|e| format!("placing the daemon: {e}"))?;
            Some(last)
        }
        _ => None,
    };
    let sampled = sample_mask(ctx.seed, &plans);
    let before = daemon.stats()?;
    let drive = match mix {
        Mix::Hit => {
            let want = &ctx.artefact_replies;
            let verdict = |c: usize, i: usize, reply: &str| {
                let Planned::Artefact(a) = plans[c][i] else {
                    unreachable!("hit plans hold artefacts")
                };
                if reply == want[a] {
                    Verdict::Ok
                } else {
                    Verdict::Fail
                }
            };
            drive(daemon.port, &plans, client_cpu, &verdict)?
        }
        Mix::Miss => {
            let verdict = |c: usize, i: usize, reply: &str| {
                if !reply.starts_with("{\"ok\":true") {
                    eprintln!("serve_miss request failed: {reply}");
                    Verdict::Fail
                } else if sampled[c][i]
                    || (traced && matches!(plans[c][i], Planned::Compile { .. }))
                {
                    Verdict::Keep
                } else {
                    Verdict::Ok
                }
            };
            drive(daemon.port, &plans, client_cpu, &verdict)?
        }
    };
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let after = daemon.stats()?;
    let traces = if traced {
        match daemon.control(&Request::Trace)?.get("traces") {
            Some(Json::Arr(items)) => items.clone(),
            _ => return Err("trace reply lacks `traces`".to_owned()),
        }
    } else {
        Vec::new()
    };
    let spawned = daemon.spawned;
    daemon.stop()?;

    let Drive { mut window, kept } = drive;
    window.setup_s = stats::median(&setup_times);
    window.peak_rss_mb = peak_rss_mb;
    window.attempted += NAMES.len() as u64 * setups as u64;
    window.failed += setup_failed;
    if mix == Mix::Miss {
        let checked: Vec<_> = kept.iter().filter(|(c, i, _)| sampled[*c][*i]).collect();
        window.attempted += checked.len() as u64;
        window.failed += check_miss_replies(&plans, &checked);
    }

    let mut layers = Metrics::default();
    if traced {
        let prefix = mix.prefix();
        let delta = |key: &str| counter(&after, key) - counter(&before, key);
        let records = timed_records(mix, &traces);
        if records.len() < window.latencies_s.len() {
            eprintln!(
                "trace ring kept {} of {} timed requests; phase metrics cover the retained ones",
                records.len(),
                window.latencies_s.len()
            );
        }
        phase_metrics(&mut layers, prefix, &records);
        if let Some(spans) = spans {
            chrome_slices(spans, mix, spawned, &records);
        }
        if mix == Mix::Miss {
            let fetches = delta("hits") + delta("misses") + delta("waits");
            layers.push(
                "miss.cache.hit_ratio",
                "frac",
                (delta("hits") + delta("waits")) / fetches,
            );
            layers.push("miss.cache.evictions", "count", delta("evictions"));
            layers.push("miss.cache.waits", "count", delta("waits"));
            layers.push("miss.scheduler.batches", "count", delta("batches"));
            layers.push("miss.scheduler.joined", "count", delta("joined"));
            layers.push(
                "miss.scheduler.sims_per_batch",
                "count",
                delta("batched_sims") / delta("batches"),
            );
            compile_phase_metrics(&mut layers, &plans, &kept);
        }
        layers.push(
            format!("{prefix}.admission.sheds"),
            "count",
            counter(&after, "sheds"),
        );
        layers.push(
            format!("{prefix}.admission.peak_in_flight"),
            "units",
            counter(&after, "peak_in_flight"),
        );
    }
    Ok(Measured { window, layers })
}

/// The seeded sample of `serve_miss` requests recomputed in-process.
fn sample_mask(seed: u64, plans: &[Vec<Planned>]) -> Vec<Vec<bool>> {
    let mut mask: Vec<Vec<bool>> = plans.iter().map(|p| vec![false; p.len()]).collect();
    let mut rng = Rng::new(seed ^ 0x5A3D_1E00);
    for _ in 0..MISS_SAMPLE {
        let c = rng.below(plans.len());
        let i = rng.below(plans[c].len());
        mask[c][i] = true;
    }
    mask
}

/// Recomputes each kept `serve_miss` reply in-process; returns how many
/// differ. A `sim` reply must equal, byte for byte, the reply built from
/// `simulate(run_mve(..).trace, spec.to_config())`; a `compile` reply's
/// text must equal `mve_lang::compile_and_render`.
fn check_miss_replies(plans: &[Vec<Planned>], kept: &[&(usize, usize, String)]) -> u64 {
    let mut expected: HashMap<String, Result<String, String>> = HashMap::new();
    let mut bad = 0;
    for (c, i, reply) in kept {
        let plan = &plans[*c][*i];
        let want = expected
            .entry(plan.line())
            .or_insert_with(|| expected_reply(plan));
        let got = match plan {
            Planned::Compile { .. } => Json::parse(reply)
                .ok()
                .and_then(|doc| doc.get("bytes").and_then(Json::as_str).map(str::to_owned)),
            _ => Some(reply.clone()),
        };
        if got.as_ref() != want.as_ref().ok() {
            eprintln!(
                "serve_miss reply to {} differs from the in-process result",
                plan.line().trim_end()
            );
            bad += 1;
        }
    }
    bad
}

/// The in-process answer to one planned request (see
/// [`check_miss_replies`] for what is compared).
pub fn expected_reply(plan: &Planned) -> Result<String, String> {
    match plan {
        Planned::Artefact(i) => {
            let text = mve_bench::artefacts::render(NAMES[*i], Scale::Test).expect("registered");
            Ok(ok_artefact(NAMES[*i], &text))
        }
        Planned::Sim { kernel, spec } => {
            let cfg = spec.to_config();
            let k = kernel_by_name(kernel).map_err(|e| e.to_string())?;
            let _arrays = EngineArraysGuard::new(cfg.geometry.arrays);
            let run = k.run_mve(Scale::Test);
            if !run.checked.ok() {
                return Err(format!("{kernel}: functional check failed"));
            }
            let report = simulate(&run.trace, &cfg);
            Ok(ok_sim(kernel, &report_to_json(&report).encode()))
        }
        Planned::Compile { index, spec } => {
            mve_lang::compile_and_render(CORPUS[*index].1, &spec.to_config())
                .map_err(|d| d.message.clone())
        }
    }
}

/// The phase timestamps of one daemon trace record, µs.
#[derive(Debug, Clone, Copy)]
struct Record {
    conn: u64,
    stamps: [u64; 6],
}

const PHASES: [&str; 5] = [
    "server.parse_us",
    "admission.decide_us",
    "server.queue_wait_us",
    "server.exec_us",
    "server.flush_us",
];

/// The timed window's records from a `trace` reply, in completion order:
/// cache hits of artefacts for `serve_hit`, every sim and compile for
/// `serve_miss` (set-up renders and control ops are left out).
fn timed_records(mix: Mix, traces: &[Json]) -> Vec<Record> {
    let keys = [
        "received_us",
        "parsed_us",
        "admitted_us",
        "dispatched_us",
        "executed_us",
        "flushed_us",
    ];
    let mut out: Vec<Record> = traces
        .iter()
        .filter(|t| {
            let op = t.get("op").and_then(Json::as_str);
            match mix {
                Mix::Hit => {
                    op == Some("artefact") && t.get("cache").and_then(Json::as_str) == Some("hit")
                }
                Mix::Miss => matches!(op, Some("sim" | "compile")),
            }
        })
        .map(|t| Record {
            conn: t.get("conn").and_then(Json::as_u64).unwrap_or(0),
            stamps: keys.map(|k| t.get(k).and_then(Json::as_u64).unwrap_or(0)),
        })
        .collect();
    out.sort_by_key(|r| r.stamps[5]);
    out
}

/// p50/p99 of each phase, and the reply rate of the first and last fifth.
fn phase_metrics(layers: &mut Metrics, prefix: &str, records: &[Record]) {
    if records.is_empty() {
        return;
    }
    for (p, name) in PHASES.iter().enumerate() {
        let mut d: Vec<f64> = records
            .iter()
            .map(|r| (r.stamps[p + 1] - r.stamps[p]) as f64)
            .collect();
        d.sort_by(f64::total_cmp);
        layers.push(
            format!("{prefix}.{name}.p50"),
            "us",
            stats::percentile(&d, Pct::P50),
        );
        layers.push(
            format!("{prefix}.{name}.p99"),
            "us",
            stats::percentile(&d, Pct::P99),
        );
    }
    let n = records.len();
    let k = n.div_ceil(5);
    let flushed = |i: usize| records[i].stamps[5] as f64;
    let first = k as f64 / ((flushed(k - 1) - records[0].stamps[0] as f64) / 1e6);
    let last_start = if n > k {
        flushed(n - k - 1)
    } else {
        records[0].stamps[0] as f64
    };
    let last = k as f64 / ((flushed(n - 1) - last_start) / 1e6);
    layers.push(
        format!("{prefix}.server.window_req_per_s.first"),
        "1/s",
        first,
    );
    layers.push(
        format!("{prefix}.server.window_req_per_s.last"),
        "1/s",
        last,
    );
}

/// Median compile-phase times over the compile misses (the replies that
/// carry `phases`; a cache hit compiles nothing and carries none).
fn compile_phase_metrics(
    layers: &mut Metrics,
    plans: &[Vec<Planned>],
    kept: &[(usize, usize, String)],
) {
    let mut per_phase: [Vec<f64>; 5] = Default::default();
    for (c, i, reply) in kept {
        if !matches!(plans[*c][*i], Planned::Compile { .. }) {
            continue;
        }
        let Ok(doc) = Json::parse(reply) else {
            continue;
        };
        let Some(phases) = doc.get("phases") else {
            continue;
        };
        for (slot, name) in per_phase
            .iter_mut()
            .zip(["lex", "parse", "lower", "schedule", "allocate"])
        {
            if let Some(us) = phases.get(&format!("{name}_us")).and_then(Json::as_f64) {
                slot.push(us);
            }
        }
    }
    for (samples, name) in per_phase
        .iter()
        .zip(["lex", "parse", "lower", "schedule", "allocate"])
    {
        let v = if samples.is_empty() {
            f64::NAN
        } else {
            stats::median(samples)
        };
        layers.push(format!("lang.compile_us.{name}"), "us", v);
    }
}

/// Exports a session's per-request phases as Chrome trace slices: the
/// first and last [`CHROME_REQUESTS`] requests, one track per connection.
fn chrome_slices(spans: &mut Spans, mix: Mix, spawned: Instant, records: &[Record]) {
    let (pid, session) = match mix {
        Mix::Hit => (3, "serve_hit"),
        Mix::Miss => (4, "serve_miss"),
    };
    let offset_us = spans.offset_us(spawned);
    let mut conns: Vec<u64> = records.iter().map(|r| r.conn).collect();
    conns.sort_unstable();
    conns.dedup();
    for conn in conns {
        spans.name_track(pid, conn, &format!("{session} daemon, connection {conn}"));
    }
    let n = records.len();
    let pick = records
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < CHROME_REQUESTS || *i + CHROME_REQUESTS >= n);
    for (_, r) in pick {
        for (p, name) in PHASES.iter().enumerate() {
            let (a, b) = (r.stamps[p], r.stamps[p + 1]);
            spans.trace.complete(
                name,
                "serve",
                offset_us + a as f64,
                (b - a) as f64,
                pid,
                r.conn,
                &[("conn", FieldValue::U64(r.conn))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_serve::protocol::ok_compile;
    use mve_serve::SimSpec;

    #[test]
    fn a_mismatched_miss_reply_is_counted_as_failed() {
        let sim = Planned::Sim {
            kernel: "csum",
            spec: SimSpec::default(),
        };
        let compile = Planned::Compile {
            index: 0,
            spec: SimSpec::default(),
        };
        let plans = vec![vec![sim.clone(), compile.clone()]];
        let good_sim = expected_reply(&sim).expect("csum simulates");
        let text = expected_reply(&compile).expect("corpus compiles");
        let good_compile = ok_compile(&text, None);
        let good = [(0, 0, good_sim.clone()), (0, 1, good_compile)];
        assert_eq!(
            check_miss_replies(&plans, &good.iter().collect::<Vec<_>>()),
            0
        );

        let bad_sim = good_sim.replacen("\"total_cycles\":", "\"total_cycles\":1", 1);
        let bad_compile = ok_compile(&text.replacen(' ', "  ", 1), None);
        let bad = [(0, 0, bad_sim), (0, 1, bad_compile)];
        assert_eq!(
            check_miss_replies(&plans, &bad.iter().collect::<Vec<_>>()),
            2
        );
    }

    #[test]
    fn phase_metrics_come_from_record_differences() {
        // Two records: phases of 1, 2, 3, 4, 5 µs and 2, 4, 6, 8, 10 µs.
        let records = [
            Record {
                conn: 1,
                stamps: [0, 1, 3, 6, 10, 15],
            },
            Record {
                conn: 2,
                stamps: [100, 102, 106, 112, 120, 130],
            },
        ];
        let mut m = Metrics::default();
        phase_metrics(&mut m, "hit", &records);
        assert_eq!(m.get("hit.server.parse_us.p50"), Some(1.0));
        assert_eq!(m.get("hit.server.parse_us.p99"), Some(2.0));
        assert_eq!(m.get("hit.server.flush_us.p99"), Some(10.0));
        // First fifth: one reply over 15 µs; last fifth: one over 115 µs.
        assert_eq!(m.get("hit.server.window_req_per_s.first"), Some(1e6 / 15.0));
        assert_eq!(m.get("hit.server.window_req_per_s.last"), Some(1e6 / 115.0));
    }
}
