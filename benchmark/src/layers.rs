//! The layer pass of a traced run: each layer timed from outside, by
//! calling its public functions on the inputs the workloads give it.

use std::hint::black_box;
use std::time::Instant;

use mve_baselines::GpuConfig;
use mve_bench::artefacts::NAMES;
use mve_bench::perf::{engine_hot_benches, measure};
use mve_bench::platform;
use mve_core::sim::{simulate, simulate_sweep};
use mve_coresim::NeonModel;
use mve_energy::{mve_energy, neon_energy, EnergyParams};
use mve_kernels::common::EngineArraysGuard;
use mve_kernels::registry::{all_kernels, selected_kernels};
use mve_kernels::Scale;
use mve_memsim::Hierarchy;
use mve_serve::cache::{Fetch, ResultCache};
use mve_serve::protocol::{artefact_key, ok_artefact, parse_request};

use crate::gen::{Planned, ARRAYS, FIG12B_KERNELS};
use crate::report::Metrics;
use crate::{stats, Spans};

/// The Figure 10/11/13 kernels, the ones the figures also run on RVV
/// and sweep over the four in-SRAM schemes.
const FIG10_KERNELS: [&str; 9] = [
    "csum", "lpack", "fir_v", "gemm", "spmm", "satd", "intra", "dct", "idct",
];

/// The engine micro-benchmarks reported, by `perf::engine_hot_benches`
/// name, with the metric suffix each becomes.
const ENGINE_BENCHES: [(&str, &str); 5] = [
    ("strided_load_8192", "strided_load"),
    ("random_load_8192", "random_load"),
    ("binop_add_8192", "binop_add"),
    ("compare_8192", "compare"),
    ("predicated_store_8192", "predicated_store"),
];

/// Times `f` over `iters` calls, five times; the median ns per call.
fn ns_per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    stats::median(&samples)
}

/// Records a layer-pass slice from `t` to now on track `tid`.
fn slice(spans: &mut Option<Spans>, name: &str, tid: u64, t: Instant) {
    if let Some(s) = spans {
        s.slice(name, "layers", t, Instant::now(), 2, tid);
    }
}

/// Runs the pass; returns its metrics and the functional-check failures.
pub fn run(spans: &mut Option<Spans>) -> (Metrics, u64) {
    let mut m = Metrics::default();
    let mut failed = 0;

    // Kernels and the timing simulator: one execution per unique
    // (kernel, scale, arrays) key that the paper-scale figures execute —
    // every kernel at the default 32 arrays, plus the Figure 12(b) five at
    // the other array counts.
    let kernels = all_kernels();
    let mut keys: Vec<(usize, usize)> = (0..kernels.len()).map(|k| (k, 32)).collect();
    for &arrays in ARRAYS.iter().filter(|&&a| a != 32) {
        for (k, kernel) in kernels.iter().enumerate() {
            if FIG12B_KERNELS.contains(&kernel.info().name) {
                keys.push((k, arrays));
            }
        }
    }
    let sweep: Vec<_> = platform::scheme_sweep()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let (mut run_s, mut events, mut sim_s, mut sweep_s) = (0.0, 0u64, 0.0, 0.0);
    let mut reports = Vec::new();
    for &(k, arrays) in &keys {
        let kernel = &kernels[k];
        let name = kernel.info().name;
        let _arrays = EngineArraysGuard::new(arrays);
        let t = Instant::now();
        let run = kernel.run_mve(Scale::Paper);
        run_s += t.elapsed().as_secs_f64();
        slice(spans, &format!("run_mve {name}@{arrays}"), 1, t);
        if !run.checked.ok() {
            eprintln!("{name} @ {arrays} arrays: functional check failed");
            failed += 1;
        }
        events += run.trace.len() as u64;
        let cfg = platform::arrays_config(arrays);
        let t = Instant::now();
        let report = simulate(&run.trace, &cfg);
        sim_s += t.elapsed().as_secs_f64();
        slice(spans, &format!("simulate {name}@{arrays}"), 2, t);
        if arrays == 32 && FIG10_KERNELS.contains(&name) {
            let t = Instant::now();
            black_box(simulate_sweep(&run.trace, &sweep));
            sweep_s += t.elapsed().as_secs_f64();
            slice(spans, &format!("simulate_sweep {name}"), 2, t);
        }
        if arrays == 32 {
            reports.push(report);
        }
    }
    m.push("kernels.run_mve_s", "s", run_s);
    m.push("kernels.run_mve_calls", "count", keys.len() as f64);
    m.push("kernels.events", "count", events as f64);
    m.push("kernels.ns_per_event", "ns", run_s * 1e9 / events as f64);
    m.push("core.sim_s", "s", sim_s);
    m.push("core.sim_ns_per_event", "ns", sim_s * 1e9 / events as f64);
    m.push("core.sim_sweep4_s", "s", sweep_s);

    // The Neon baseline: a warm pass then the timed pass, on one
    // hierarchy per kernel (Swan's steady-state method, as in the figures).
    let model = NeonModel::default();
    let (mut neon_s, mut accesses) = (0.0, 0u64);
    let mut neon = Vec::new();
    for kernel in &kernels {
        let profile = kernel.neon_profile(Scale::Paper);
        let mut hier = Hierarchy::default();
        let t = Instant::now();
        let _ = model.execute(&profile, &mut hier, 0);
        let result = model.execute(&profile, &mut hier, 1_000_000_000);
        neon_s += t.elapsed().as_secs_f64();
        slice(spans, &format!("neon {}", kernel.info().name), 3, t);
        let s = hier.stats();
        accesses += s.l1_hits + s.l1_misses + s.vector_lines_read + s.vector_lines_written;
        neon.push((profile, result));
    }
    m.push("coresim.neon_s", "s", neon_s);
    m.push("memsim.accesses", "count", accesses as f64);

    // RVV traces and the GPU model over the kernels the figures compare.
    let selected = selected_kernels();
    let t = Instant::now();
    for kernel in selected
        .iter()
        .filter(|k| FIG10_KERNELS.contains(&k.info().name))
    {
        let run = kernel
            .run_rvv(Scale::Paper)
            .expect("selected kernels have RVV");
        if !run.checked.ok() {
            eprintln!("{}: RVV functional check failed", kernel.info().name);
            failed += 1;
        }
    }
    m.push("baselines.rvv_s", "s", t.elapsed().as_secs_f64());
    slice(spans, "rvv", 4, t);
    let gpu = GpuConfig::default();
    let t = Instant::now();
    for kernel in &selected {
        let cost = kernel
            .gpu_cost(Scale::Paper)
            .expect("selected kernels have GPU costs");
        black_box(gpu.execute(&cost));
    }
    m.push("baselines.gpu_s", "s", t.elapsed().as_secs_f64());
    slice(spans, "gpu", 4, t);

    // The energy model over the Figure 7 inputs, per full pass.
    let params = EnergyParams::default();
    let reps = 1_000;
    let t = Instant::now();
    for _ in 0..reps {
        for (report, (profile, result)) in reports.iter().zip(&neon) {
            black_box(mve_energy(black_box(report), &params));
            black_box(neon_energy(black_box(profile), result, &params));
        }
    }
    m.push(
        "energy.model_s",
        "s",
        t.elapsed().as_secs_f64() / f64::from(reps),
    );
    slice(spans, "energy", 5, t);

    // The engine hot paths, through the repository's own harness.
    let mut benches = engine_hot_benches();
    for (bench, suffix) in ENGINE_BENCHES {
        let b = benches
            .iter_mut()
            .find(|b| b.name == bench)
            .expect("engine_hot_benches lists every reported bench");
        let t = Instant::now();
        let r = measure(b);
        slice(spans, bench, 6, t);
        m.push(format!("core.engine.{suffix}_ns"), "ns", r.median_ns);
    }

    // Serve's in-process hot paths, on the serve_hit request lines and
    // replies.
    let texts: Vec<String> = NAMES
        .iter()
        .map(|n| mve_bench::artefacts::render(n, Scale::Test).expect("registered"))
        .collect();
    let lines: Vec<String> = (0..NAMES.len())
        .map(|i| Planned::Artefact(i).line())
        .collect();
    let t = Instant::now();
    let parse = ns_per_call(20_000, |i| {
        black_box(parse_request(black_box(lines[i as usize % lines.len()].trim_end())).ok());
    });
    let encode = ns_per_call(5_000, |i| {
        let i = i as usize % NAMES.len();
        black_box(ok_artefact(NAMES[i], black_box(&texts[i])));
    });
    let cache = ResultCache::new(256);
    let keys: Vec<u64> = NAMES.iter().map(|n| artefact_key(n, Scale::Test)).collect();
    for (key, text) in keys.iter().zip(&texts) {
        if let Fetch::Miss = cache.fetch(*key) {
            cache.fulfill(*key, text.clone().into_bytes());
        }
    }
    let fetch = ns_per_call(100_000, |i| {
        black_box(cache.fetch(keys[i as usize % keys.len()]));
    });
    slice(spans, "protocol and cache", 7, t);
    m.push("protocol.parse_request_ns", "ns", parse);
    m.push("protocol.ok_artefact_ns", "ns", encode);
    m.push("cache.fetch_hit_ns", "ns", fetch);
    (m, failed)
}
