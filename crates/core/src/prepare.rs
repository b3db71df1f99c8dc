//! Parallel I/O prepare pipeline: the engine's `LaneCtx`/`SharedCtx`
//! split in practice.
//!
//! A closed- or open-loop run interleaves two kinds of work per write:
//!
//! * **lane-owned compute** — generating the payload bytes, hashing
//!   them (the verify checksum), and, in EC mode, running the
//!   Reed-Solomon arithmetic.  All of it is a pure function of
//!   `(stream seed, job, op index, op length)` once the RNG draws are
//!   lane-owned, so any thread can do it at any time;
//! * **shared-timeline commit** — walking the submission contexts, the
//!   PCIe pipe, the OSD busy-untils, the placement cache, the fault
//!   injectors.  These couple *every* lane (three submission contexts
//!   serve 32+ lanes; one PCIe pipe serves everything), so the commit
//!   must execute in global event order to keep reports byte-identical.
//!
//! The pipeline exploits that split: worker threads race ahead of the
//! commit loop preparing [`PreparedOp`]s (payload + checksum + EC
//! shards) into per-job slot rings, and the serial commit loop — the
//! exact event loop the serial path runs — consumes them instead of
//! computing inline.  If a slot is not ready the commit thread computes
//! the same pure function itself, so every race degrades to duplicated
//! work with identical bytes, never to divergence.
//!
//! **Determinism.**  With `DELIBA_SIM_THREADS=1` (the default) none of
//! this runs and payloads draw from the engine's own RNG exactly as
//! before.  With threads > 1, payload *content* comes from per-op
//! streams instead — report bytes cannot tell: payloads only feed
//! checksums that are recorded and re-verified within the same run,
//! and every timing model keys on `op.len`, never on payload bytes.
//! Worker count, slot timing and work duplication are all invisible by
//! construction, which the differential suite
//! (`crates/bench/tests/parallel_equivalence.rs`) pins with `cmp`
//! across `DELIBA_SIM_THREADS` ∈ {1, 2, 8}.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use deliba_ec::ReedSolomon;
use deliba_sim::rng::{SimRng, SplitMix64, Xoshiro256};
use parking_lot::Mutex;

use crate::engine::TraceOp;

/// Worker-count env var for the prepare pool. `1` (or unset) selects
/// the serial path; values above 1 enable the worker pool.
pub(crate) const THREADS_ENV: &str = "DELIBA_SIM_THREADS";

/// Worker count from [`THREADS_ENV`]: default 1, floor 1; unparsable
/// values fall back to 1 (serial) rather than erroring, so a stray
/// value can never change simulation output — only wall-clock.
pub(crate) fn threads_from_env() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// How far (in ops per job) workers may run ahead of the commit loop.
/// Bounds memory to `AHEAD × max-op-size` bytes per job and keeps the
/// prepared window hot in cache.
const AHEAD: usize = 64;

/// One fully prepared write: everything about the op that does not
/// depend on shared timelines.
pub(crate) struct PreparedOp {
    /// Deterministic payload bytes (per-op RNG stream).
    pub payload: Vec<u8>,
    /// FNV-1a checksum of `payload` (the verify-on-read sum).
    pub checksum: u64,
    /// RS shards of `payload` in EC mode (`None` in replication mode).
    pub shards: Option<Vec<Vec<u8>>>,
}

/// The shared, read-only context workers prepare against: the run's
/// payload stream seed and the EC codec parameters.  Pure data — no
/// aliasing with any engine state.
pub(crate) struct SharedCtx {
    /// Base seed for per-op payload streams, drawn once per run from
    /// the engine RNG's jump stream.
    stream_seed: u64,
    /// The codec in EC mode (same `(k, m)` as card and cluster).
    ec: Option<ReedSolomon>,
}

impl SharedCtx {
    /// A context for a run.  `ec_km` carries the codec profile when
    /// the run encodes (EC-mode writes), `None` otherwise.
    pub fn new(stream_seed: u64, ec_km: Option<(usize, usize)>) -> Self {
        SharedCtx {
            stream_seed,
            ec: ec_km.map(|(k, m)| ReedSolomon::new(k, m)),
        }
    }

    /// FNV-1a over 64-bit words (byte-wise tail) — the engine's verify
    /// checksum.  Cheap, deterministic, only ever compared against
    /// itself within one run.
    pub fn fnv_checksum(data: &[u8]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut words = data.chunks_exact(8);
        for w in words.by_ref() {
            h ^= u64::from_le_bytes(w.try_into().expect("exact chunk"));
            h = h.wrapping_mul(0x100000001b3);
        }
        for &b in words.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Prepare the write at `(job, idx)`: payload from the op's own
    /// RNG stream, its checksum, and its EC shards when encoding.
    /// Pure — workers and the commit loop compute identical bytes for
    /// the same key, which is what makes work duplication harmless.
    pub fn prepare(&self, job: usize, idx: usize, len: usize) -> PreparedOp {
        // Mix (seed, job, idx) through SplitMix64 so neighbouring keys
        // land in unrelated streams, then expand via the xoshiro
        // seeder — the same construction the engine uses for per-job
        // workload streams.
        let mut sm = SplitMix64::new(
            self.stream_seed
                ^ (job as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (idx as u64).wrapping_mul(0xC2B2AE3D27D4EB4F),
        );
        let mut rng = Xoshiro256::seed_from_u64(sm.next_u64());
        let mut payload = vec![0u8; len];
        for chunk in payload.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        let checksum = Self::fnv_checksum(&payload);
        let shards = self.ec.as_ref().map(|rs| rs.encode(&payload));
        PreparedOp { payload, checksum, shards }
    }
}

/// Where a pipeline's ops come from: per-job op lists for the closed
/// loop, the arrival stream (as one pseudo-job) for the open loop.
pub(crate) trait OpSource: Sync {
    /// Number of jobs.
    fn jobs(&self) -> usize;
    /// Number of ops in `job`.
    fn len_of(&self, job: usize) -> usize;
    /// `(len, write)` of op `idx` of `job`.
    fn op(&self, job: usize, idx: usize) -> (usize, bool);
}

/// Closed-loop source: the engine's per-job traces.
pub(crate) struct TraceSource<'a>(pub &'a [Vec<TraceOp>]);

impl OpSource for TraceSource<'_> {
    fn jobs(&self) -> usize {
        self.0.len()
    }
    fn len_of(&self, job: usize) -> usize {
        self.0[job].len()
    }
    fn op(&self, job: usize, idx: usize) -> (usize, bool) {
        let op = &self.0[job][idx];
        (op.len as usize, op.write)
    }
}

/// Open-loop source: `(len, write)` pairs of the arrival stream, in
/// stream order, as a single pseudo-job.
pub(crate) struct StreamSource(pub Vec<(u32, bool)>);

impl OpSource for StreamSource {
    fn jobs(&self) -> usize {
        1
    }
    fn len_of(&self, _job: usize) -> usize {
        self.0.len()
    }
    fn op(&self, _job: usize, idx: usize) -> (usize, bool) {
        let (len, write) = self.0[idx];
        (len as usize, write)
    }
}

/// One prepared-slot: `idx` identifies which op the data belongs to
/// (slots are reused modulo [`AHEAD`]).
struct Slot {
    idx: usize,
    data: Option<PreparedOp>,
}

/// Per-job ring of prepared slots plus the two cursors that bound the
/// racing window: `claim` (next index a worker may prepare) never runs
/// more than [`AHEAD`] past `consumed` (the commit loop's cursor).
struct JobRing {
    claim: AtomicUsize,
    consumed: AtomicUsize,
    slots: Vec<Mutex<Slot>>,
}

/// The prepare pipeline: shared context + per-job rings + stop flag.
/// Lives on the stack of the run method, outside the engine, so worker
/// borrows never alias engine state.
pub(crate) struct Pipeline<S: OpSource> {
    src: S,
    shared: SharedCtx,
    rings: Vec<JobRing>,
    stop: AtomicBool,
}

impl<S: OpSource> Pipeline<S> {
    pub fn new(src: S, shared: SharedCtx) -> Self {
        let rings = (0..src.jobs())
            .map(|j| JobRing {
                claim: AtomicUsize::new(0),
                consumed: AtomicUsize::new(0),
                slots: (0..AHEAD.min(src.len_of(j)).max(1))
                    .map(|_| Mutex::new(Slot { idx: usize::MAX, data: None }))
                    .collect(),
            })
            .collect();
        Pipeline { src, shared, rings, stop: AtomicBool::new(false) }
    }

    /// Worker loop: claim op indices inside the racing window, prepare
    /// writes, publish into slots.  Returns when [`shutdown`] fires.
    ///
    /// [`shutdown`]: Self::shutdown
    pub fn worker(&self) {
        while !self.stop.load(Ordering::Acquire) {
            let mut did_work = false;
            for (j, ring) in self.rings.iter().enumerate() {
                loop {
                    let c = ring.claim.load(Ordering::Acquire);
                    let limit = ring.consumed.load(Ordering::Acquire).saturating_add(AHEAD);
                    if c >= self.src.len_of(j) || c >= limit {
                        break;
                    }
                    if ring
                        .claim
                        .compare_exchange(c, c + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    let (len, write) = self.src.op(j, c);
                    if write {
                        let prepared = self.shared.prepare(j, c, len);
                        let mut slot = ring.slots[c % ring.slots.len()].lock();
                        // Publish only while the commit loop still wants
                        // it; a stale publish would only waste the slot
                        // for the index now mapped there.
                        if c >= ring.consumed.load(Ordering::Acquire) {
                            slot.idx = c;
                            slot.data = Some(prepared);
                        }
                        did_work = true;
                    }
                }
            }
            if !did_work {
                // Nothing claimable: the commit loop is behind (window
                // full) or the run is draining.  Sleep briefly rather
                // than spin so oversubscribed configurations (more
                // threads than cores) leave the commit thread the CPU.
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// Commit-loop accessor for the op at `(job, idx)`: publishes the
    /// consumption (unblocking the workers' window) and returns the
    /// prepared data — from the slot if the race was won, computed
    /// inline (same pure function, same bytes) if not.  Returns `None`
    /// for reads.
    pub fn fetch(&self, job: usize, idx: usize, len: usize, write: bool) -> Option<PreparedOp> {
        let ring = &self.rings[job];
        ring.consumed.store(idx + 1, Ordering::Release);
        if !write {
            return None;
        }
        let from_slot = {
            let mut slot = ring.slots[idx % ring.slots.len()].lock();
            if slot.idx == idx { slot.data.take() } else { None }
        };
        Some(from_slot.unwrap_or_else(|| self.shared.prepare(job, idx, len)))
    }

    /// Advance the consumption cursor past an op the commit loop will
    /// never execute (an open-loop admission drop).
    pub fn advance(&self, job: usize, idx: usize) {
        self.rings[job].consumed.store(idx + 1, Ordering::Release);
    }

    /// Stop the workers (idempotent).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_is_safe() {
        // Whatever the environment holds, the worker count is >= 1.
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn prepare_is_pure_and_key_sensitive() {
        let ctx = SharedCtx::new(7, Some((4, 2)));
        let a = ctx.prepare(0, 3, 4096);
        let b = ctx.prepare(0, 3, 4096);
        assert_eq!(a.payload, b.payload, "same key, same bytes");
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.checksum, SharedCtx::fnv_checksum(&a.payload));
        let c = ctx.prepare(0, 4, 4096);
        assert_ne!(a.payload, c.payload, "neighbouring ops use distinct streams");
        let d = ctx.prepare(1, 3, 4096);
        assert_ne!(a.payload, d.payload, "neighbouring jobs use distinct streams");
        assert_eq!(a.shards.as_ref().map(|s| s.len()), Some(6), "RS(4,2) = 6 shards");
    }

    #[test]
    fn replication_mode_prepares_no_shards() {
        let ctx = SharedCtx::new(7, None);
        let p = ctx.prepare(0, 0, 512);
        assert_eq!(p.payload.len(), 512);
        assert!(p.shards.is_none());
    }

    #[test]
    fn fetch_with_workers_matches_inline_compute() {
        let ops: Vec<(u32, bool)> = (0..500)
            .map(|i| (256 + (i % 7) * 512, i % 3 != 2))
            .collect();
        let reference = SharedCtx::new(99, Some((4, 2)));
        let pipe = Pipeline::new(StreamSource(ops.clone()), SharedCtx::new(99, Some((4, 2))));
        crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| pipe.worker());
            }
            for (idx, &(len, write)) in ops.iter().enumerate() {
                let got = pipe.fetch(0, idx, len as usize, write);
                match (write, got) {
                    (false, None) => {}
                    (true, Some(p)) => {
                        let want = reference.prepare(0, idx, len as usize);
                        assert_eq!(p.payload, want.payload, "op {idx}");
                        assert_eq!(p.checksum, want.checksum, "op {idx}");
                        assert_eq!(p.shards, want.shards, "op {idx}");
                    }
                    (w, g) => panic!("op {idx}: write={w}, got prepared={}", g.is_some()),
                }
            }
            pipe.shutdown();
        })
        .expect("prepare worker panicked");
    }
}
