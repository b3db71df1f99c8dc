//! Open-loop traffic: seeded arrival processes and Zipf-skewed object
//! selection.
//!
//! Closed-loop fio keeps a fixed number of I/Os outstanding, so offered
//! load collapses to whatever the system sustains — saturation knees
//! and queueing delay are structurally invisible.  The generators here
//! produce streams of [`ArrivalOp`]s: each op carries the instant the
//! traffic source *intends* to issue it, independent of completions.
//! [`Engine::run_open_loop`](deliba_core::Engine::run_open_loop) admits
//! at exactly those instants (bounded only by the admission-queue cap)
//! and measures latency from them, so coordinated omission cannot
//! happen.
//!
//! Three arrival processes cover the traffic shapes the load-curve
//! methodology needs: homogeneous Poisson (memoryless baseline), an
//! on-off MMPP (bursty traffic — arrivals cluster in ON sojourns but
//! the long-run mean rate is preserved), and a diurnal rate envelope
//! (slow deterministic modulation around the mean, thinned from the
//! peak rate).  Object selection is Zipf-skewed by rank-frequency
//! (exact inverse-CDF, not the usual approximation), with `s = 0`
//! degenerating to uniform.

use deliba_core::engine::{ArrivalOp, TraceOp};
use deliba_core::IMAGE_BYTES;
use deliba_sim::{SimDuration, SimRng, SimTime, Xoshiro256};

/// Arrival process shaping the intended-arrival clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson: exponential interarrivals at the configured
    /// rate.
    Poisson,
    /// On-off MMPP: exponential ON/OFF sojourns; arrivals only during
    /// ON, at `rate / on_frac`, so the long-run mean rate is the
    /// configured one.
    Bursty {
        /// Long-run fraction of time in the ON state, in (0, 1].
        on_frac: f64,
        /// Mean ON-sojourn length.
        on_mean: SimDuration,
    },
    /// Nonhomogeneous Poisson under a triangle-wave rate envelope
    /// `r(t) = rate · (1 + depth · tri(t / period))`, thinned from the
    /// peak rate.  The envelope integrates to the configured mean rate
    /// over every full period (a triangle wave, not a sinusoid, so the
    /// envelope is pure arithmetic — bit-reproducible everywhere).
    Diurnal {
        /// Envelope period.
        period: SimDuration,
        /// Modulation depth in [0, 1).
        depth: f64,
    },
}

impl ArrivalKind {
    /// Stable label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty { .. } => "bursty",
            ArrivalKind::Diurnal { .. } => "diurnal",
        }
    }

    /// Parse a CLI name into the kind's default-parameter shape.
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        match s {
            "poisson" => Some(ArrivalKind::Poisson),
            "bursty" => Some(ArrivalKind::Bursty {
                on_frac: 0.25,
                on_mean: SimDuration::from_millis(5),
            }),
            "diurnal" => Some(ArrivalKind::Diurnal {
                period: SimDuration::from_millis(200),
                depth: 0.8,
            }),
            _ => None,
        }
    }
}

/// The triangle wave in [-1, 1] with period 1: 0 → 1 → -1 → 0.
fn tri(phase: f64) -> f64 {
    let p = phase - phase.floor(); // [0, 1)
    if p < 0.25 {
        4.0 * p
    } else if p < 0.75 {
        2.0 - 4.0 * p
    } else {
        4.0 * p - 4.0
    }
}

/// Exact Zipf(s) rank sampler over `n` items.
///
/// Rank `r` (0-based) is drawn with probability `(r+1)^-s / H_{n,s}` by
/// binary search over the precomputed cumulative mass — exact for any
/// `s ≥ 0` (including `s = 1`, where the usual closed-form
/// approximation breaks down), at O(n) setup.  A guide table narrows
/// each search to the ranks whose mass crosses one of `k` equal slices
/// of `[0, 1)`, so a draw probes a few neighbouring cache lines instead
/// of ≈log₂ n scattered ones, and returns the same rank as a search of
/// the whole table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose cumulative mass reaches
    /// `b / k`, for `b` in `0..=k` (`k = guide.len() - 1`, a power of
    /// two, so `u · k` and `b / k` are exact).
    guide: Vec<u32>,
}

/// Most guide slices (16 KiB of guide).  On the 2¹⁸-rank table of a
/// 1 GiB image in 4 KiB blocks this cuts the cost of 10⁵ draws by ≈60 %
/// at no measurable build cost; 2¹⁶ slices save ≈20 % more per draw but
/// add ≈4 % to the build, a loss for streams of a few thousand draws.
const MAX_GUIDE: u64 = 1 << 12;

impl Zipf {
    /// Build the sampler; `s = 0` is exactly uniform.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s >= 0.0, "Zipf skew must be nonnegative");
        assert!(n <= u32::MAX as u64, "Zipf ranks fit the guide table");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let k = n.next_power_of_two().min(MAX_GUIDE);
        let mut guide = Vec::with_capacity(k as usize + 1);
        let mut rank = 0;
        for b in 0..=k {
            let bound = b as f64 / k as f64;
            while rank < cdf.len() && cdf[rank] < bound {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of items.
    pub(crate) fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draw a 0-based rank (0 is the hottest item).
    pub fn sample<R: SimRng>(&self, rng: &mut R) -> u64 {
        let u = rng.next_f64();
        // `b / k ≤ u < (b + 1) / k`, so the first rank whose mass
        // reaches `u` lies in `guide[b]..=guide[b + 1]`.
        let b = (u * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        (idx as u64).min(self.n() - 1)
    }
}

/// Open-loop workload specification: an arrival process at a configured
/// offered rate over Zipf-selected blocks.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSpec {
    /// Offered load, thousands of intended arrivals per second.
    pub rate_kiops: f64,
    /// Intended arrivals to generate.
    pub ops: u64,
    /// Block size in bytes (must divide the image).
    pub block_size: u32,
    /// Fraction of ops that are writes.
    pub write_frac: f64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Zipf skew of block selection (`0` = uniform over the image).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec {
            rate_kiops: 8.0,
            ops: 2_000,
            block_size: 4096,
            write_frac: 0.0,
            arrival: ArrivalKind::Poisson,
            zipf_s: 0.9,
            seed: 17,
        }
    }
}

impl OpenLoopSpec {
    /// Generate the time-sorted intended-arrival stream.
    pub fn generate(&self) -> Vec<ArrivalOp> {
        assert!(self.rate_kiops > 0.0, "rate must be positive");
        assert!(
            self.block_size > 0 && IMAGE_BYTES.is_multiple_of(self.block_size as u64),
            "block size must divide image"
        );
        assert!((0.0..=1.0).contains(&self.write_frac));
        let blocks = IMAGE_BYTES / self.block_size as u64;
        let zipf = (self.zipf_s > 0.0).then(|| Zipf::new(blocks, self.zipf_s));
        // Independent streams per concern: the arrival clock is
        // unchanged by the skew or mix knobs (and vice versa).
        let mut root = Xoshiro256::seed_from_u64(self.seed);
        let mut clock_rng = root.jump();
        let mut pick_rng = root.jump();
        let mut mix_rng = root.jump();

        let mean_gap_ns = 1e6 / self.rate_kiops; // 1/(rate·10³ s⁻¹) in ns
        let mut t = SimTime::ZERO;
        // Bursty state: the current ON window's end.
        let (on_frac, on_mean) = match self.arrival {
            ArrivalKind::Bursty { on_frac, on_mean } => (on_frac, on_mean),
            _ => (1.0, SimDuration::ZERO),
        };
        let mut on_until = match self.arrival {
            ArrivalKind::Bursty { .. } => {
                assert!((0.0..=1.0).contains(&on_frac) && on_frac > 0.0);
                t + SimDuration::from_nanos(clock_rng.exp_sample(on_mean.as_nanos() as f64) as u64)
            }
            _ => t,
        };

        let mut out = Vec::with_capacity(self.ops as usize);
        for _ in 0..self.ops {
            match self.arrival {
                ArrivalKind::Poisson => {
                    t += SimDuration::from_nanos(clock_rng.exp_sample(mean_gap_ns) as u64);
                }
                ArrivalKind::Bursty { .. } => {
                    // Arrivals at rate/on_frac while ON; when a gap
                    // crosses the window end, insert an OFF sojourn and
                    // open a fresh ON window (exponential gaps are
                    // memoryless, so re-drawing after the jump is
                    // exact).
                    let off_mean = on_mean.as_nanos() as f64 * (1.0 / on_frac - 1.0);
                    loop {
                        let gap = SimDuration::from_nanos(
                            clock_rng.exp_sample(mean_gap_ns * on_frac) as u64,
                        );
                        if t + gap <= on_until {
                            t += gap;
                            break;
                        }
                        let off = SimDuration::from_nanos(clock_rng.exp_sample(off_mean) as u64);
                        t = on_until + off;
                        on_until = t
                            + SimDuration::from_nanos(
                                clock_rng.exp_sample(on_mean.as_nanos() as f64) as u64,
                            );
                    }
                }
                ArrivalKind::Diurnal { period, depth } => {
                    assert!((0.0..1.0).contains(&depth));
                    // Thinning from the peak rate: candidate gaps at
                    // rate·(1+depth), accepted with probability
                    // r(t)/peak.
                    let peak_gap = mean_gap_ns / (1.0 + depth);
                    loop {
                        t += SimDuration::from_nanos(clock_rng.exp_sample(peak_gap) as u64);
                        let phase = t.as_nanos() as f64 / period.as_nanos() as f64;
                        let accept = (1.0 + depth * tri(phase)) / (1.0 + depth);
                        if clock_rng.next_f64() < accept {
                            break;
                        }
                    }
                }
            }
            let block = match &zipf {
                Some(z) => {
                    // Scatter ranks across the image with an odd-
                    // multiplier bijection (block counts here are powers
                    // of two) so the hot set is not one contiguous
                    // extent.
                    let rank = z.sample(&mut pick_rng);
                    if blocks.is_power_of_two() {
                        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (blocks - 1)
                    } else {
                        rank
                    }
                }
                None => pick_rng.gen_range(blocks),
            };
            let offset = block * self.block_size as u64;
            let write = self.write_frac > 0.0 && mix_rng.gen_bool(self.write_frac);
            let op = if write {
                TraceOp::write(offset, self.block_size, true)
            } else {
                TraceOp::read(offset, self.block_size, true)
            };
            out.push(ArrivalOp { at: t, op });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_time_sorted_and_sized() {
        for arrival in [
            ArrivalKind::Poisson,
            ArrivalKind::parse("bursty").unwrap(),
            ArrivalKind::parse("diurnal").unwrap(),
        ] {
            let spec = OpenLoopSpec { arrival, ops: 500, ..Default::default() };
            let s = spec.generate();
            assert_eq!(s.len(), 500);
            assert!(s.windows(2).all(|w| w[0].at <= w[1].at), "{arrival:?}");
            assert!(s.iter().all(|a| a.op.offset + a.op.len as u64 <= IMAGE_BYTES));
        }
    }

    #[test]
    fn same_seed_same_stream_and_rate_changes_only_pacing() {
        let spec = OpenLoopSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.at == y.at && x.op.offset == y.op.offset));
        // Doubling the rate keeps the op sequence, only the clock moves:
        // the arrival clock, block choices and read/write coin all come
        // from independent seeded streams.
        let fast = OpenLoopSpec {
            rate_kiops: 2.0 * spec.rate_kiops,
            ..spec
        }
        .generate();
        assert!(a.iter().zip(&fast).all(|(x, y)| x.op.offset == y.op.offset));
        assert!(fast.last().unwrap().at < a.last().unwrap().at);
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(1024, 1.0);
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut top = 0u64;
        const N: u64 = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) == 0 {
                top += 1;
            }
        }
        // P(rank 0) = 1/H_1024 ≈ 0.133.
        let frac = top as f64 / N as f64;
        assert!((frac - 0.133).abs() < 0.02, "hottest-rank mass {frac}");
    }

    #[test]
    fn guided_zipf_draws_the_rank_of_a_whole_table_search() {
        let cases = [(1, 0.9), (7, 1.0), (64, 0.0), (1000, 0.9), (4096, 1.2), (1 << 18, 0.9)];
        for (n, s) in cases {
            let z = Zipf::new(n, s);
            let mut rng = Xoshiro256::seed_from_u64(n ^ 0x5A);
            let mut draws: Vec<f64> = (0..20_000).map(|_| rng.next_f64()).collect();
            // Slice bounds, cumulative masses and the ends of `[0, 1)`.
            let k = (z.guide.len() - 1) as f64;
            draws.extend([0.0, 1.0 - f64::EPSILON / 2.0, 0.5, 1.0 / k, 1.0 - 1.0 / k]);
            draws.extend(z.cdf.iter().take(64).copied());
            for u in draws.into_iter().filter(|&u| u < 1.0) {
                let want = (z.cdf.partition_point(|&c| c < u) as u64).min(n - 1);
                let mut one = Fixed(u);
                assert_eq!(z.sample(&mut one), want, "n {n} s {s} u {u}");
            }
        }
    }

    /// An RNG whose `next_f64` returns one fixed draw.
    struct Fixed(f64);

    impl SimRng for Fixed {
        fn next_u64(&mut self) -> u64 {
            unreachable!("only next_f64 is drawn")
        }

        fn next_f64(&mut self) -> f64 {
            self.0
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = Zipf::new(64, 0.0);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut counts = [0u64; 64];
        for _ in 0..64_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert!((c as f64 / 1000.0 - 1.0).abs() < 0.2, "rank {r}: {c}");
        }
    }

    #[test]
    fn write_frac_mixes_reads_and_writes() {
        let spec = OpenLoopSpec { write_frac: 0.3, ops: 4_000, ..Default::default() };
        let writes = spec.generate().iter().filter(|a| a.op.write).count();
        let frac = writes as f64 / 4_000.0;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac}");
    }
}
