//! Seeded randomness for the load generator: every input of a run is a
//! pure function of `--seed`, so the same seed replays byte-identical op
//! streams and the program under test only ever sees generated inputs.

/// SplitMix64 — tiny, fast, and good enough for workload constants.
#[derive(Clone, Debug)]
pub struct Rng(u64);

pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    /// An independent stream per `(seed, tag)`: workloads, connections
    /// and phases each take their own tag so adding a draw to one never
    /// shifts another.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(mix(seed ^ mix(tag)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Analytic probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn top_mass(&self, k: usize) -> f64 {
        self.cdf[k.min(self.cdf.len()) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, tag: u64) -> Vec<u64> {
        let mut r = Rng::new(seed, tag);
        (0..8).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn streams_are_seeded_and_independent() {
        assert_eq!(draws(1, 2), draws(1, 2));
        assert_ne!(draws(1, 2), draws(1, 3));
        assert_ne!(draws(1, 2), draws(2, 2));
    }

    #[test]
    fn zipf_top_mass_matches_its_analytic_value() {
        // explore_warm's shape: 4096 queries over a 1024-entry cache.
        let z = Zipf::new(4096, 1.1);
        let mut rng = Rng::new(42, 0);
        let draws = 400_000;
        let top = (0..draws).filter(|_| z.sample(&mut rng) < 1024).count();
        let got = top as f64 / draws as f64;
        let want = z.top_mass(1024);
        assert!(want > 0.7 && want < 0.95, "analytic mass {want}");
        assert!(
            (got - want).abs() / want < 0.01,
            "sampled {got} vs analytic {want}"
        );
    }
}
