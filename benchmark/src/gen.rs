//! Seeded request streams for the serve workloads.
//!
//! Every connection draws from its own SplitMix64 stream derived from the
//! run's `--seed`, so a seed fixes every request line a run sends and two
//! commits measured with one seed do identical work.

use mve_bench::artefacts::NAMES;
use mve_bench::dslcorpus::CORPUS;
use mve_insram::Scheme;
use mve_kernels::registry::selected_kernels;
use mve_kernels::Scale;
use mve_serve::protocol::encode_request;
use mve_serve::{Request, SimSpec};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The stream of connection `conn` under `seed`.
    pub fn stream(seed: u64, conn: usize) -> Rng {
        Rng(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

/// The Figure 12(b) kernels: the only ones a `sim` request gives an
/// `arrays` override, because only they are swept over array counts.
pub const FIG12B_KERNELS: [&str; 5] = ["gemm", "spmm", "fir_v", "fir_s", "fir_l"];
/// The Figure 12(b) array counts (32 is the Table IV default).
pub const ARRAYS: [usize; 4] = [8, 16, 32, 64];

/// One planned request: what to send, and how to recompute its answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Planned {
    /// Render artefact `NAMES[index]` at test scale.
    Artefact(usize),
    /// Time a selected kernel at test scale under `spec`.
    Sim { kernel: &'static str, spec: SimSpec },
    /// Compile and run corpus kernel `CORPUS[index]` under `spec`.
    Compile { index: usize, spec: SimSpec },
}

impl Planned {
    pub fn request(&self) -> Request {
        match self {
            Planned::Artefact(i) => Request::Artefact {
                name: NAMES[*i].to_owned(),
                scale: Scale::Test,
            },
            Planned::Sim { kernel, spec } => Request::Sim {
                kernel: (*kernel).to_owned(),
                scale: Scale::Test,
                spec: spec.clone(),
            },
            Planned::Compile { index, spec } => Request::Compile {
                source: CORPUS[*index].1.to_owned(),
                spec: spec.clone(),
            },
        }
    }

    /// The request's wire line, newline included.
    pub fn line(&self) -> String {
        let mut line = encode_request(&self.request());
        line.push('\n');
        line
    }
}

/// `serve_hit`: uniform over the 16 artefacts, all rendered in set-up.
pub fn hit_stream(rng: &mut Rng, len: usize) -> Vec<Planned> {
    (0..len)
        .map(|_| Planned::Artefact(rng.below(NAMES.len())))
        .collect()
}

/// `serve_miss`: 4 in 5 `sim` requests over the selected kernels, 1 in 5
/// `compile` requests over the corpus, in shuffled blocks of 55. Each
/// block holds every selected kernel four times (a Figure 12(b) kernel
/// once at each array count) and eleven compiles, so every stretch of the
/// stream carries the same share of the expensive kernels and seeds
/// differ in order and knobs, not in mix. The scheme and corpus kernel are
/// uniform; each flag leaves its default three times in eight, so the
/// default corner is the most requested, and with the daemon's default
/// cache cap (256) about 38% of requests hit.
pub fn miss_stream(rng: &mut Rng, len: usize) -> Vec<Planned> {
    let kernels: Vec<&'static str> = selected_kernels().iter().map(|k| k.info().name).collect();
    let mut block: Vec<Option<(&'static str, usize)>> = Vec::new();
    for &kernel in &kernels {
        for arrays in ARRAYS {
            let arrays = if FIG12B_KERNELS.contains(&kernel) {
                arrays
            } else {
                32
            };
            block.push(Some((kernel, arrays)));
        }
    }
    block.extend(std::iter::repeat_n(None, kernels.len()));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        // Fisher-Yates.
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for slot in &block {
            out.push(match *slot {
                Some((kernel, arrays)) => Planned::Sim {
                    kernel,
                    spec: spec(rng, Some(arrays).filter(|&a| a != 32)),
                },
                None => Planned::Compile {
                    index: rng.below(CORPUS.len()),
                    spec: spec(rng, None),
                },
            });
        }
    }
    out.truncate(len);
    out
}

fn spec(rng: &mut Rng, arrays: Option<usize>) -> SimSpec {
    SimSpec {
        scheme: Scheme::ALL[rng.below(Scheme::ALL.len())],
        arrays,
        ooo_dispatch: rng.chance(3, 8),
        mode_switch: !rng.chance(3, 8),
        cache_warming: !rng.chance(3, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_kernels::common::EngineArraysGuard;
    use mve_kernels::registry::kernel_by_name;
    use std::collections::BTreeSet;

    #[test]
    fn streams_are_deterministic_per_seed_and_connection() {
        let lines = |seed, conn| -> Vec<String> {
            let mut rng = Rng::stream(seed, conn);
            let mut v: Vec<String> = miss_stream(&mut rng, 200)
                .iter()
                .map(Planned::line)
                .collect();
            v.extend(hit_stream(&mut rng, 200).iter().map(Planned::line));
            v
        };
        assert_eq!(lines(7, 0), lines(7, 0));
        assert_ne!(lines(7, 0), lines(7, 1));
        assert_ne!(lines(7, 0), lines(8, 0));
        // Every line is one request the daemon's parser accepts.
        for line in lines(7, 1) {
            mve_serve::protocol::parse_request(line.trim_end()).expect("valid request line");
        }
    }

    #[test]
    fn only_registry_accepted_kernel_arrays_pairs_are_emitted() {
        let mut pairs = BTreeSet::new();
        let mut compiles = 0;
        for seed in 0..8 {
            let mut rng = Rng::stream(seed, 0);
            for p in miss_stream(&mut rng, 500) {
                match p {
                    Planned::Sim { kernel, spec } => {
                        assert!(
                            spec.arrays.is_none() || FIG12B_KERNELS.contains(&kernel),
                            "{kernel} got an arrays override"
                        );
                        pairs.insert((kernel, spec.arrays.unwrap_or(32)));
                    }
                    Planned::Compile { spec, .. } => {
                        assert_eq!(spec.arrays, None);
                        compiles += 1;
                    }
                    Planned::Artefact(_) => unreachable!("miss streams send no artefacts"),
                }
            }
        }
        // 11 kernels at the default geometry plus 5 × {8, 16, 64}.
        assert_eq!(pairs.len(), 11 + 5 * 3, "{pairs:?}");
        assert!(!pairs.contains(&("satd", 8)));
        // One compile in five, to within the last partial block.
        assert!(
            (790..=810).contains(&compiles),
            "{compiles} compiles of 4000"
        );
        // Each pair executes and passes its functional check, exactly as
        // the daemon would run it.
        for (kernel, arrays) in pairs {
            let k = kernel_by_name(kernel).expect("registered kernel");
            let _arrays = EngineArraysGuard::new(arrays);
            let run = k.run_mve(Scale::Test);
            assert!(run.checked.ok(), "{kernel} @ {arrays} arrays");
        }
    }
}
