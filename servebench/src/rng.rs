//! Seeded random streams, one per workload.
//!
//! Every workload draws from its own stream, derived from the
//! benchmark's `--seed` argument and the workload's name, so adding or
//! changing one workload never perturbs another's request sequence. The
//! generator is a local SplitMix64 rather than a library RNG, so the
//! generated inputs cannot drift when a dependency changes.

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64: small, fast, and statistically sound for workload draws.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// The stream for `(seed, name)`: the name is hashed and mixed into
    /// the seed, so each name gets an independent sequence.
    pub fn derive(seed: u64, name: &str) -> Stream {
        let mut s = Stream {
            state: seed ^ fnv1a(FNV_OFFSET, name.as_bytes()),
        };
        // Discard one output so nearby seeds decorrelate immediately.
        s.next_u64();
        s
    }

    /// The value this stream was derived to start from (for provenance).
    pub fn state(&self) -> u64 {
        self.state
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }

    /// Exponential with mean 1.
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

/// Zipf(`s`) popularity over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Stream) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_name_separated() {
        let a: Vec<u64> = (0..4).map(|_| Stream::derive(7, "a").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Stream::derive(7, "a").next_u64(),
            Stream::derive(7, "b").next_u64()
        );
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(256, 1.0);
        let mut rng = Stream::derive(1, "zipf");
        let mut counts = [0usize; 256];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[200]);
    }
}
