//! OLTP application model: transactional workloads.
//!
//! From the OLTP literature the paper cites (Harizopoulos et al., "OLTP
//! through the looking glass"): small random accesses against a skewed
//! working set, read-mostly with synchronous commit writes, and a large
//! fraction of the transaction spent in CPU (buffer manager, locking,
//! logging) rather than I/O.
//!
//! Each transaction: a few 4–8 kB random reads of index/heap pages
//! (skewed 80/20 toward a hot region), CPU think time, then a small
//! commit write.

use deliba_core::engine::TraceOp;
use deliba_core::IMAGE_BYTES;
use deliba_sim::{SimRng, Xoshiro256};

/// OLTP workload specification.
#[derive(Debug, Clone, Copy)]
pub struct OltpSpec {
    /// Transactions per job.
    pub(crate) transactions: u32,
    /// Page reads per transaction.
    pub(crate) reads_per_txn: u32,
    /// Page size (4 or 8 kB).
    pub(crate) page_size: u32,
    /// Fraction of accesses hitting the hot 20 % of pages.
    pub(crate) skew: f64,
    /// CPU time per transaction, ns.
    pub(crate) compute_per_txn_ns: u64,
    /// Concurrent clients (jobs).
    pub(crate) numjobs: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OltpSpec {
    fn default() -> Self {
        OltpSpec {
            transactions: 600,
            reads_per_txn: 4,
            page_size: 8192,
            skew: 0.8,
            // ≈ 500 µs of CPU per transaction: parsing, buffer manager,
            // locking, logging — the "looking glass" breakdown puts the
            // overwhelming majority of OLTP time in these components.
            compute_per_txn_ns: 500_000,
            numjobs: 3,
            seed: 13,
        }
    }
}

impl OltpSpec {
    fn pick_page(&self, rng: &mut Xoshiro256, pages: u64) -> u64 {
        let hot = pages / 5; // hot 20 %
        if rng.gen_bool(self.skew) {
            rng.gen_range(hot.max(1))
        } else {
            hot + rng.gen_range((pages - hot).max(1))
        }
    }

    /// Generate per-job op streams.
    pub fn generate(&self) -> Vec<Vec<TraceOp>> {
        assert!(IMAGE_BYTES.is_multiple_of(self.page_size as u64));
        let pages = IMAGE_BYTES / self.page_size as u64;
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        (0..self.numjobs)
            .map(|_| {
                let mut job_rng = rng.jump();
                let mut ops = Vec::new();
                for _ in 0..self.transactions {
                    // Reads, with the transaction's compute attached to
                    // the first op.
                    for r in 0..self.reads_per_txn {
                        let page = self.pick_page(&mut job_rng, pages);
                        let mut op =
                            TraceOp::read(page * self.page_size as u64, self.page_size, true);
                        if r == 0 {
                            op = op.with_think(self.compute_per_txn_ns);
                        }
                        ops.push(op);
                    }
                    // Commit write (WAL page).
                    let page = self.pick_page(&mut job_rng, pages);
                    ops.push(TraceOp::write(
                        page * self.page_size as u64,
                        self.page_size,
                        true,
                    ));
                }
                ops
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_shape() {
        let spec = OltpSpec::default();
        let jobs = spec.generate();
        assert_eq!(jobs.len(), 3);
        let job = &jobs[0];
        let per_txn = (spec.reads_per_txn + 1) as usize;
        assert_eq!(job.len(), spec.transactions as usize * per_txn);
        // Every transaction: reads then one write.
        for txn in job.chunks(per_txn) {
            assert!(txn[..txn.len() - 1].iter().all(|o| !o.write));
            assert!(txn.last().unwrap().write);
            assert!(txn[0].think_ns > 0, "compute attached to txn start");
        }
    }

    #[test]
    fn skew_concentrates_on_hot_region() {
        let spec = OltpSpec::default();
        let hot_boundary = IMAGE_BYTES / 5;
        let all: Vec<_> = spec.generate().into_iter().flatten().collect();
        let hot = all.iter().filter(|o| o.offset < hot_boundary).count();
        let frac = hot as f64 / all.len() as f64;
        assert!((frac - 0.8).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn all_accesses_random_small_pages() {
        for op in OltpSpec::default().generate().into_iter().flatten() {
            assert!(op.random);
            assert_eq!(op.len, 8192);
            assert_eq!(op.offset % 8192, 0);
            assert!(op.offset + 8192 <= IMAGE_BYTES);
        }
    }

    #[test]
    fn read_write_ratio() {
        let spec = OltpSpec::default();
        let all: Vec<_> = spec.generate().into_iter().flatten().collect();
        let reads = all.iter().filter(|o| !o.write).count() as f64;
        assert!((reads / all.len() as f64 - 0.8).abs() < 0.01, "4 reads : 1 write");
    }
}
