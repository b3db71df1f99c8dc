//! Mixed read/write generator (fio `randrw`).

use deliba_core::engine::TraceOp;
use deliba_core::IMAGE_BYTES;
use deliba_sim::{SimRng, Xoshiro256};

/// A mixed random read/write specification.
#[derive(Debug, Clone, Copy)]
pub struct MixedSpec {
    /// Fraction of reads (0.0–1.0); fio `rwmixread`.
    pub(crate) read_fraction: f64,
    /// Block size in bytes.
    pub block_size: u32,
    /// Parallel jobs.
    pub(crate) numjobs: u32,
    /// Total operations.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
}

impl MixedSpec {
    /// The common 70/30 OLTP-style mix at 4 kB.
    pub fn rw70_30(ops: u64) -> Self {
        MixedSpec {
            read_fraction: 0.7,
            block_size: 4096,
            numjobs: 3,
            ops,
            seed: 7,
        }
    }

    /// Generate per-job op streams.
    pub fn generate(&self) -> Vec<Vec<TraceOp>> {
        assert!((0.0..=1.0).contains(&self.read_fraction));
        assert!(self.block_size > 0 && IMAGE_BYTES.is_multiple_of(self.block_size as u64));
        let blocks = IMAGE_BYTES / self.block_size as u64;
        let per_job = (self.ops / self.numjobs as u64).max(1);
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        (0..self.numjobs)
            .map(|_| {
                let mut job_rng = rng.jump();
                (0..per_job)
                    .map(|_| {
                        let offset = job_rng.gen_range(blocks) * self.block_size as u64;
                        if job_rng.gen_bool(self.read_fraction) {
                            TraceOp::read(offset, self.block_size, true)
                        } else {
                            TraceOp::write(offset, self.block_size, true)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fraction_respected() {
        let spec = MixedSpec {
            read_fraction: 0.7,
            block_size: 4096,
            numjobs: 3,
            ops: 30_000,
            seed: 1,
        };
        let jobs = spec.generate();
        assert_eq!(jobs.len(), 3);
        let all: Vec<_> = jobs.iter().flatten().collect();
        let reads = all.iter().filter(|o| !o.write).count();
        let frac = reads as f64 / all.len() as f64;
        assert!((frac - 0.7).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn offsets_aligned_and_in_range() {
        let spec = MixedSpec::rw70_30(3_000);
        for op in spec.generate().into_iter().flatten() {
            assert_eq!(op.offset % 4096, 0);
            assert!(op.offset + 4096 <= IMAGE_BYTES);
            assert!(op.random);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MixedSpec::rw70_30(900).generate();
        let b = MixedSpec::rw70_30(900).generate();
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.write, y.write);
        }
    }

    #[test]
    fn pure_mixes_degenerate_correctly() {
        let mut spec = MixedSpec::rw70_30(600);
        spec.read_fraction = 1.0;
        assert!(spec.generate().iter().flatten().all(|o| !o.write));
        spec.read_fraction = 0.0;
        assert!(spec.generate().iter().flatten().all(|o| o.write));
    }
}
