//! Seeded input generation. Every workload draws its inputs from a
//! [`Rng`] seeded by `--seed`, so one seed always yields byte-identical
//! inputs and the runtimes under test see only the generated data.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: `salt` keeps the streams of different
    /// workloads apart when they share a seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ salt))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 output function, also used to derive per-app seeds.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for an application generator: the paper's own seed under the
/// default benchmark seed (0), a derived one otherwise.
pub fn app_seed(bench_seed: u64, paper_seed: u64) -> u64 {
    if bench_seed == crate::DEFAULT_SEED {
        paper_seed
    } else {
        mix(bench_seed ^ mix(paper_seed))
    }
}
