//! Small numeric helpers: order statistics and the seeded generator that
//! turns the workload seed into inputs.

/// Median of `xs` (mean of the middle two for an even count). Sorts in
/// place; `xs` must not be empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median of the means of consecutive blocks of `k` values, dropping a
/// trailing partial block. `k` is capped at `xs.len()`, so there is always
/// one block; `xs` must not be empty.
pub fn block_median(xs: &[f64], k: usize) -> f64 {
    let k = k.clamp(1, xs.len());
    let mut means: Vec<f64> = xs
        .chunks_exact(k)
        .map(|b| b.iter().sum::<f64>() / k as f64)
        .collect();
    median(&mut means)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics. Sorts in place; `xs` must not be empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// splitmix64: the benchmark's own input generator, independent of the
/// simulator's RNG so that seeding the benchmark never touches the
/// program's streams.
pub struct Seq(u64);

impl Seq {
    /// A generator for one purpose (`label`) of one workload seed.
    pub fn new(seed: u64, label: &str) -> Seq {
        Seq(seed ^ fnv1a64(label.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..lo + span`.
    pub fn range(&mut self, lo: u64, span: u64) -> u64 {
        lo + self.next() % span
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a 64-bit digest of `bytes`: the reference fingerprint of an
/// experiment's JSON where no committed golden exists.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
