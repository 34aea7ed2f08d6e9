//! `reproduce_paper`: every artefact rendered at paper scale, in order, on
//! one thread — `reproduce`'s serial path without the file writes.

use std::hint::black_box;
use std::time::Instant;

use mve_bench::artefacts::{render, NAMES};
use mve_core::sim::fnv1a_64;
use mve_kernels::Scale;

use crate::report::{Measured, Metrics, Window};
use crate::{stats, Spans};

/// Per-artefact `name length fnv1a64` of the paper-scale renders,
/// recorded with `--print-digests` when the benchmark was added.
const DIGESTS: &str = include_str!("../digests.txt");

/// One pass per five seconds of `--seconds` (a pass takes about 7 s on a
/// 2-core host), at least one: fixed by the arguments, so both commits of
/// a comparison render the same passes.
const SECONDS_PER_PASS: u64 = 5;

/// `name length fnv1a64` for one render.
pub fn digest_line(name: &str, text: &str) -> String {
    format!("{name} {} {:#018x}", text.len(), fnv1a_64(text.as_bytes()))
}

/// The recorded digest line of artefact `name`.
fn recorded(name: &str) -> Option<&'static str> {
    DIGESTS
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
}

/// Renders that do not match their recorded digest.
pub fn mismatches<'a>(renders: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut bad = 0;
    for (name, text) in renders {
        let got = digest_line(name, text);
        if recorded(name) != Some(got.as_str()) {
            eprintln!("{name}: paper-scale render {got:?} does not match the recorded digest");
            bad += 1;
        }
    }
    bad
}

/// Set-up is `setups` warm passes at test scale (lazy registries, code
/// and allocator warm-up); the timed window is the paper-scale passes.
/// Traced runs add `artefacts.<name>_s` per render.
pub fn run(seconds: u64, traced: bool, setups: usize, spans: &mut Option<Spans>) -> Measured {
    let mut setup_times = Vec::new();
    for _ in 0..setups.max(1) {
        let t = Instant::now();
        for name in NAMES {
            black_box(render(name, Scale::Test));
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }

    let passes = (seconds / SECONDS_PER_PASS).max(1);
    let mut window = Window::default();
    let mut walls = Vec::new();
    let mut outputs = Vec::new();
    let mut per_artefact = vec![Vec::new(); NAMES.len()];
    let mut completions = Vec::new();
    let t0 = Instant::now();
    for _ in 0..passes {
        let pass = Instant::now();
        for (i, name) in NAMES.iter().enumerate() {
            let t = Instant::now();
            let text = render(name, Scale::Paper).expect("registered artefact");
            let end = Instant::now();
            window.latencies_s.push((end - t).as_secs_f64());
            completions.push((end - t0).as_secs_f64());
            per_artefact[i].push((end - t).as_secs_f64());
            if let Some(spans) = spans {
                spans.slice(name, "artefacts", t, end, 1, 1);
            }
            outputs.push((*name, text));
        }
        walls.push(pass.elapsed().as_secs_f64());
    }
    window.completions_s = vec![completions];
    window.wall_s = stats::median(&walls);
    window.setup_s = stats::median(&setup_times);
    window.peak_rss_mb = crate::serve::vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN);
    window.attempted = outputs.len() as u64;
    window.failed = mismatches(outputs.iter().map(|(n, t)| (*n, t.as_str())));

    let mut layers = Metrics::default();
    if traced {
        for (name, times) in NAMES.iter().zip(&per_artefact) {
            layers.push(format!("artefacts.{name}_s"), "s", stats::median(times));
        }
    }
    Measured { window, layers }
}

/// The digest file for the current tree, in [`NAMES`] order.
pub fn print_digests() {
    println!("# name length fnv1a64 of artefacts::render(name, Scale::Paper)");
    for name in NAMES {
        let text = render(name, Scale::Paper).expect("registered artefact");
        println!("{}", digest_line(name, &text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artefact_has_one_recorded_digest() {
        for name in NAMES {
            let lines: Vec<_> = DIGESTS
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(name))
                .collect();
            assert_eq!(lines.len(), 1, "{name}");
        }
    }

    #[test]
    fn a_mismatched_render_is_counted_as_failed() {
        // The cheap tables render in microseconds; their recorded digests
        // must match, and any change to the text must not.
        let t1 = render("table1", Scale::Paper).expect("table1");
        let t2 = render("table2", Scale::Paper).expect("table2");
        assert_eq!(
            mismatches([("table1", t1.as_str()), ("table2", t2.as_str())]),
            0
        );
        let edited = t1.replacen('I', "l", 1);
        assert_eq!(
            mismatches([("table1", edited.as_str()), ("table2", t2.as_str())]),
            1
        );
        assert_eq!(mismatches([("table1", t2.as_str())]), 1);
        assert_eq!(mismatches([("no_such_artefact", "x")]), 1);
    }
}
