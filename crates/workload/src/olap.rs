//! OLAP application model: analytical queries over on-disk tables.
//!
//! Characteristics taken from the OLAP literature the paper cites
//! (Chaudhuri & Dayal): full-table scans and bulk loads dominate —
//! "applications for on-disk databases, particularly those … involving
//! full table scans or bulk data loads" is exactly why the paper's
//! methodology emphasizes large block sizes (§III-C1).
//!
//! The model runs `queries` analytical queries per job.  Each query:
//!
//! 1. scans a contiguous table segment with large sequential reads
//!    (512 kB, the paper's highlighted size);
//! 2. spends CPU time aggregating each scanned chunk (think time —
//!    OLAP is roughly half compute);
//! 3. occasionally materializes results with a bulk sequential write.

use deliba_core::engine::TraceOp;
use deliba_core::IMAGE_BYTES;
use deliba_sim::{SimRng, Xoshiro256};

/// Scan block size: 512 kB (§III-C1 methodology).
pub(crate) const SCAN_BLOCK: u32 = 512 * 1024;

/// OLAP workload specification.
#[derive(Debug, Clone, Copy)]
pub struct OlapSpec {
    /// Queries per job.
    pub(crate) queries: u32,
    /// Scan blocks per query (table segment size).
    pub(crate) blocks_per_query: u32,
    /// Fraction of queries that materialize (bulk write) results.
    pub(crate) materialize_fraction: f64,
    /// Compute time per scanned block, ns (aggregation work).
    pub(crate) compute_per_block_ns: u64,
    /// Parallel query streams.
    pub(crate) numjobs: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OlapSpec {
    fn default() -> Self {
        OlapSpec {
            queries: 24,
            blocks_per_query: 64, // 32 MiB per scan
            materialize_fraction: 0.25,
            // ≈ 1.2 ms of aggregation per 512 kB block (≈ 430 MB/s of
            // scan processing per stream): keeps the suite roughly half
            // compute-bound, matching warehouse-scan profiles.
            compute_per_block_ns: 1_200_000,
            numjobs: 2,
            seed: 11,
        }
    }
}

impl OlapSpec {
    /// Generate per-job op streams.
    pub fn generate(&self) -> Vec<Vec<TraceOp>> {
        let blocks_total = IMAGE_BYTES / SCAN_BLOCK as u64;
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        (0..self.numjobs)
            .map(|_| {
                let mut job_rng = rng.jump();
                let mut ops = Vec::new();
                for _ in 0..self.queries {
                    // Pick a table segment start.
                    let span = self.blocks_per_query as u64;
                    let max_start = blocks_total.saturating_sub(span).max(1);
                    let start = job_rng.gen_range(max_start);
                    // Scan it sequentially, thinking after each block.
                    for b in 0..span {
                        ops.push(
                            TraceOp::read((start + b) * SCAN_BLOCK as u64, SCAN_BLOCK, false)
                                .with_think(self.compute_per_block_ns),
                        );
                    }
                    // Materialize results?
                    if job_rng.gen_bool(self.materialize_fraction) {
                        let out_blocks = span / 8; // aggregates are smaller
                        let out_start = job_rng.gen_range(max_start);
                        for b in 0..out_blocks {
                            ops.push(TraceOp::write(
                                (out_start + b) * SCAN_BLOCK as u64,
                                SCAN_BLOCK,
                                false,
                            ));
                        }
                    }
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
    fn scans_are_sequential_large_blocks() {
        let jobs = OlapSpec::default().generate();
        assert_eq!(jobs.len(), 2);
        for job in &jobs {
            assert!(!job.is_empty());
            for op in job {
                assert_eq!(op.len, SCAN_BLOCK);
                assert!(!op.random, "OLAP I/O is sequential");
                assert!(op.offset + SCAN_BLOCK as u64 <= IMAGE_BYTES);
            }
        }
    }

    #[test]
    fn reads_dominate_and_think_time_present() {
        let jobs = OlapSpec::default().generate();
        let all: Vec<_> = jobs.iter().flatten().collect();
        let reads = all.iter().filter(|o| !o.write).count();
        assert!(reads as f64 / all.len() as f64 > 0.8, "scan-heavy");
        assert!(all.iter().any(|o| o.think_ns > 0), "compute modeled");
        // Writes (materialization) carry no think time.
        assert!(all.iter().filter(|o| o.write).all(|o| o.think_ns == 0));
    }

    #[test]
    fn scan_segments_are_contiguous() {
        let spec = OlapSpec {
            materialize_fraction: 0.0,
            ..OlapSpec::default()
        };
        let jobs = spec.generate();
        for job in jobs {
            for pair in job
                .chunks(spec.blocks_per_query as usize)
                .flat_map(|q| q.windows(2))
            {
                assert_eq!(
                    pair[1].offset,
                    pair[0].offset + SCAN_BLOCK as u64,
                    "within a query the scan advances sequentially"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = OlapSpec::default().generate();
        let b = OlapSpec::default().generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.offset, y.offset);
            assert_eq!(x.write, y.write);
        }
    }
}
