//! The benchmark's own input generators. They live here, not in the
//! crates under test, so a change to the program cannot change the
//! inputs it is measured on.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_C0B7)
    }

    /// A generator for an independent stream derived from this seed.
    pub fn derive(seed: u64, stream: u64) -> Self {
        Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with mean `1 / rate` seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(s) over ranks `1..=n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c < u);
        i.min(self.cdf.len() - 1) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..100)
            .scan(Rng::new(7), |r, _| Some(r.below(1000)))
            .collect();
        let b: Vec<u64> = (0..100)
            .scan(Rng::new(7), |r, _| Some(r.below(1000)))
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 1000));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1 << 12, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<u64> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| (1..=1 << 12).contains(&r)));
        let ones = draws.iter().filter(|&&r| r == 1).count();
        let at_100 = draws.iter().filter(|&&r| r == 100).count();
        assert!(ones > 10 * at_100.max(1));
    }
}
