//! Zipf-distributed sampling over page ranks.
//!
//! Real workloads access a small set of pages very frequently (the paper's
//! hotpages, §VII-B). A Zipf distribution with exponent `s` over page ranks
//! captures that: rank-1 pages dominate for large `s`, while `s → 0`
//! degenerates to uniform.
//!
//! A sampler's table depends only on `(n, s)`, so one process-wide memo
//! builds each distinct table once and every sampler of that shape shares it.
//! The memo keeps its tables for the life of the process.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ivl_sim_core::rng::Xoshiro256;

/// Random bits behind one uniform draw: [`Xoshiro256::next_f64`] keeps the
/// top 53 bits of a `u64` and scales them by `2^-53`.
const UNIT_BITS: u32 = 53;

/// An immutable inverse-CDF table with a guide index (Chen & Asau's indexed
/// search).
#[derive(Debug)]
struct Table {
    /// Cumulative weights, normalized to 1.0 at the end.
    cdf: Box<[f64]>,
    /// `guide[j]` is the rank drawn at `u = j / m` for the `m = 2^guide_bits`
    /// equal buckets of `[0, 1)`, and `guide[m]` is the last rank. Ranks are
    /// monotone in `u`, so a draw in bucket `j` lands in
    /// `guide[j] ..= guide[j + 1]`.
    guide: Box<[u32]>,
    guide_bits: u32,
}

impl Table {
    fn build(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // About eight ranks per bucket keeps the guide at most n/8 words
        // (plus the end entry) while a draw searches a handful of entries.
        let guide_bits = (n / 8).max(1).ilog2();
        let m = 1usize << guide_bits;
        let guide = (0..m)
            .map(|j| locate(&cdf, 0, n - 1, j as f64 / m as f64))
            .chain([n - 1])
            .map(|i| u32::try_from(i).expect("rank fits in u32"))
            .collect();
        Table {
            cdf: cdf.into_boxed_slice(),
            guide,
            guide_bits,
        }
    }
}

/// The rank `cdf.binary_search_by(..)` picks for `u`, searched only in
/// `lo ..= hi`: the last index holding exactly `u` if there is one, else the
/// first index above `u`.
///
/// Every entry before `lo` must be `<= u` and `cdf[hi]` must be `> u`; the
/// latter also means the old search's clamp to the last rank never applies.
fn locate(cdf: &[f64], lo: usize, hi: usize, u: f64) -> usize {
    let at_most = lo + cdf[lo..hi].partition_point(|&v| v <= u);
    if at_most > 0 && cdf[at_most - 1] == u {
        at_most - 1
    } else {
        at_most
    }
}

/// Tables keyed by `(n, s.to_bits())`.
type Memo = Mutex<HashMap<(usize, u64), Arc<Table>>>;

/// The table of shape `(n, s)` from the process-wide memo.
fn table(n: usize, s: f64) -> Arc<Table> {
    static TABLES: OnceLock<Memo> = OnceLock::new();
    // A build that panics inserts nothing, so a poisoned memo is still
    // whole.
    let mut tables = TABLES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // Built under the lock, so racing constructors of one shape share one
    // table.
    Arc::clone(
        tables
            .entry((n, s.to_bits()))
            .or_insert_with(|| Arc::new(Table::build(n, s))),
    )
}

/// A precomputed inverse-CDF Zipf sampler.
///
/// # Examples
///
/// ```
/// use ivl_workloads::zipf::Zipf;
/// use ivl_sim_core::rng::Xoshiro256;
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = Xoshiro256::seed_from(1);
/// let r = z.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    table: Arc<Table>,
}

impl Zipf {
    /// Builds a sampler over ranks `0..n` with exponent `s` (`s == 0` is
    /// uniform), sharing the table of any earlier sampler of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0, "exponent must be non-negative");
        Zipf { table: table(n, s) }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the sampler is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (rank 0 is the most popular).
    ///
    /// Draws one `u64`, as [`Xoshiro256::next_f64`] does, and returns the
    /// first rank whose cumulative weight reaches that uniform draw.
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        self.rank(rng.next_u64() >> (64 - UNIT_BITS))
    }

    /// The rank drawn by the uniform `bits * 2^-53`.
    fn rank(&self, bits: u64) -> usize {
        let u = bits as f64 * (1.0 / (1u64 << UNIT_BITS) as f64);
        // Bucket `j` covers `[j / m, (j + 1) / m)`; both edges are exact.
        let t = &*self.table;
        let j = (bits >> (UNIT_BITS - t.guide_bits)) as usize;
        locate(&t.cdf, t.guide[j] as usize, t.guide[j + 1] as usize, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::BENCHMARKS;

    #[test]
    fn skewed_distribution_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = Xoshiro256::seed_from(3);
        let n = 100_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(
            top10 as f64 / n as f64 > 0.4,
            "top-10 share too small: {top10}"
        );
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Xoshiro256::seed_from(4);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            let share = c as f64 / n as f64;
            assert!((share - 0.1).abs() < 0.02, "share {share}");
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(7, 0.8);
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    /// The plain binary search over the whole CDF that the guide replaces.
    fn reference(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|v| v.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Checks the guided rank of the draw with 53 random `bits`.
    fn check_bits(z: &Zipf, bits: u64) {
        let u = bits as f64 * (1.0 / (1u64 << UNIT_BITS) as f64);
        let cdf = &z.table.cdf;
        assert_eq!(z.rank(bits), reference(cdf, u), "n={} u={u:e}", cdf.len());
    }

    /// Every `(n, s)` a profile runs at, plus tiny and uniform tables and a
    /// steep exponent whose tail weights vanish into repeated CDF values.
    fn shapes() -> Vec<(usize, f64)> {
        let mut shapes: Vec<_> = BENCHMARKS
            .iter()
            .map(|b| (b.footprint_pages() as usize, b.zipf_s))
            .collect();
        for n in [1, 2, 7] {
            shapes.extend([(n, 0.0), (n, 0.8), (n, 1.2)]);
        }
        shapes.extend([(1000, 0.0), (4096, 0.0), (5000, 6.0)]);
        shapes
    }

    #[test]
    fn guided_sample_matches_binary_search() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut saw_repeat = false;
        for (n, s) in shapes() {
            let z = Zipf::new(n, s);
            let t = &*z.table;
            assert!(t.guide.len() <= (n / 8).max(1) + 1, "guide size n={n}");
            saw_repeat |= t.cdf.windows(2).any(|w| w[0] == w[1]);
            // Random draws, through `sample` itself.
            let mut twin = rng.clone();
            for _ in 0..2_000 {
                let got = z.sample(&mut rng);
                assert_eq!(got, reference(&t.cdf, twin.next_f64()), "n={n} s={s}");
            }
            // `sample` draws one `u64`, as `next_f64` does.
            assert_eq!(rng.next_u64(), twin.next_u64(), "n={n} s={s}");
            // Every bucket edge and the draw just below it.
            let m = 1u64 << t.guide_bits;
            let step = 1u64 << (UNIT_BITS - t.guide_bits);
            for j in 0..m {
                check_bits(&z, j * step);
                check_bits(&z, (j * step).saturating_sub(1));
            }
            check_bits(&z, (1 << UNIT_BITS) - 1);
            // Every CDF value below 1 and the `f64` just below it: the
            // 53-bit draws at or just under each, and the next draw up.
            for &v in t.cdf.iter().filter(|&&v| v < 1.0) {
                for w in [v, f64::from_bits(v.to_bits() - 1)] {
                    let bits = (w * (1u64 << UNIT_BITS) as f64) as u64;
                    check_bits(&z, bits);
                    check_bits(&z, (bits + 1).min((1 << UNIT_BITS) - 1));
                }
            }
        }
        assert!(saw_repeat, "the steep shape must exercise repeated values");
    }

    /// Repeated values below 1 do not arise from the weights above, so a
    /// hand-made CDF pins which of several equal entries a draw lands on.
    #[test]
    fn locate_matches_binary_search_on_repeated_values() {
        let cdf = [0.125, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0];
        for k in 0..64 {
            let u = k as f64 / 64.0;
            let got = locate(&cdf, 0, cdf.len() - 1, u);
            assert_eq!(got, reference(&cdf, u), "u={u}");
        }
    }

    #[test]
    fn tables_are_memoized_per_shape() {
        let a = Zipf::new(12_345, 0.75);
        let b = Zipf::new(12_345, 0.75);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        let c = Zipf::new(12_345, 0.76);
        assert!(!Arc::ptr_eq(&a.table, &c.table));
        let d = Zipf::new(12_346, 0.75);
        assert!(!Arc::ptr_eq(&a.table, &d.table));
        // Racing constructors of a fresh shape get one table.
        let start = std::sync::Barrier::new(2);
        let build = || {
            start.wait();
            Zipf::new(54_321, 1.05)
        };
        let (x, y) = std::thread::scope(|s| {
            let x = s.spawn(build);
            let y = s.spawn(build);
            (x.join().unwrap(), y.join().unwrap())
        });
        assert!(Arc::ptr_eq(&x.table, &y.table));
    }
}
