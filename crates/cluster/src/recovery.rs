//! Recovery, backfill, and scrub as *costed* background traffic.
//!
//! Real Ceph recovery competes with foreground I/O: every backfill copy
//! and every scrub read occupies the same OSD service queues and links
//! as client traffic.  That competition (recovery storms, scrub
//! overhead, degraded-mode latency) is exactly what this module makes
//! measurable.
//!
//! Used standalone (outside the engine), recovery means a
//! [`Cluster::recovery_scan`] followed by [`Cluster::backfill_wave`]s
//! until a rescan finds nothing left to do, and a deep-scrub pass means
//! [`Cluster::scrub_tick`] until the tick reports `wrapped`.
//!
//! * [`RecoveryPolicy`] — the scheduler knobs (Ceph's
//!   `osd_max_backfills` / `osd_recovery_max_active` analogues plus the
//!   deep-scrub cadence);
//! * [`RecoveryScheduler`] — the deterministic work queue: the engine
//!   rescans after every map change, and each recovery event-queue
//!   token dispatches one *wave* of backfills through the shared OSD
//!   and network timelines;
//! * [`PgHealth`] — the coarse healthy → degraded → recovering → clean
//!   state the scheduler walks;
//! * `Cluster::{recovery_scan, backfill_wave, scrub_tick,
//!   inject_bitrot}` — the costed passes themselves.
//!
//! Everything here runs in the engine's event loop and draws only from
//! the fault plane's dedicated bit-rot stream, so arming a scheduler
//! never perturbs foreground RNG streams.

use crate::cluster::{Cluster, ACK_SAME_SERVER};
use crate::object::ObjectId;
use crate::pool::PoolKind;
use deliba_sim::{SimDuration, SimRng, SimTime, Xoshiro256};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

/// Scheduler knobs: how aggressively background traffic may compete
/// with foreground I/O.  `Copy` so it rides inside `EngineConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum backfill/rebuild operations in flight per wave (Ceph's
    /// `osd_recovery_max_active` spirit).  Clamped to ≥ 1.
    pub max_active: u32,
    /// Maximum concurrent backfill writes landing on one destination
    /// OSD per wave (Ceph's `osd_max_backfills`).  Clamped to ≥ 1.
    pub per_osd_reservation: u32,
    /// Delay between a map change and the first recovery wave (peering
    /// plus the operator-visible `osd_recovery_sleep` pacing).
    pub kick_delay: SimDuration,
    /// Period between deep-scrub ticks; `SimDuration::ZERO` disables
    /// scrub entirely.
    pub scrub_interval: SimDuration,
    /// Objects examined per scrub tick.  Clamped to ≥ 1 when scrub is
    /// enabled.
    pub scrub_chunk: u32,
}

impl Default for RecoveryPolicy {
    /// Moderate throttling: four concurrent backfills, two per
    /// destination OSD, half a millisecond of peering delay, scrub off.
    fn default() -> Self {
        RecoveryPolicy {
            max_active: 4,
            per_osd_reservation: 2,
            kick_delay: SimDuration::from_micros(500),
            scrub_interval: SimDuration::ZERO,
            scrub_chunk: 16,
        }
    }
}

impl RecoveryPolicy {
    /// Default policy with a different concurrency cap — the recovery
    /// aggressiveness sweep's single knob.
    pub fn with_max_active(max_active: u32) -> Self {
        RecoveryPolicy { max_active, ..RecoveryPolicy::default() }
    }

    /// Enable periodic deep scrub at `interval`, `chunk` objects per
    /// tick.
    pub fn with_scrub(mut self, interval: SimDuration, chunk: u32) -> Self {
        self.scrub_interval = interval;
        self.scrub_chunk = chunk;
        self
    }
}

/// Coarse placement-group health the scheduler walks (per-run, over
/// the whole cluster: the most degraded PG dominates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PgHealth {
    /// No copies missing, no recovery pending.
    #[default]
    Healthy,
    /// Copies missing/stale; recovery not yet dispatched.
    Degraded,
    /// Recovery waves in flight.
    Recovering,
    /// All backfill drained after a degraded episode.
    Clean,
}

/// Counters the scheduler accumulates across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Backfill items completed (one replica copy or one EC object
    /// rebuild each).
    pub objects_recovered: u64,
    /// Copies rewritten by scrub repair.
    pub objects_repaired: u64,
    /// Background recovery operations dispatched.
    pub recovery_ops: u64,
    /// Payload bytes moved by backfill and repair writes.
    pub background_bytes: u64,
    /// Objects examined by deep scrub.
    pub scrub_objects: u64,
    /// Corrupted copies found by deep scrub (byte/parity compare).
    pub bitrot_detected: u64,
    /// Corrupted copies rewritten from an authoritative source.
    pub bitrot_repaired: u64,
    /// Cumulative virtual time from each degraded episode's start to
    /// its return to clean, in microseconds.
    pub time_to_clean_us: f64,
}

/// One unit of pending recovery work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackfillItem {
    /// Re-copy a replicated object to one destination OSD.
    Replica { oid: ObjectId, dst: i32 },
    /// Reconstruct an EC object's missing shards (all of them).
    Ec { oid: ObjectId },
}

impl BackfillItem {
    /// Dedup key: kind tag, object, destination (−1 for whole-object
    /// EC rebuilds).
    fn key(&self) -> (u8, ObjectId, i32) {
        match *self {
            BackfillItem::Replica { oid, dst } => (0, oid, dst),
            BackfillItem::Ec { oid } => (1, oid, -1),
        }
    }
}

/// The deterministic, seeded background-work scheduler.
///
/// Owned by the engine next to the fault plane; every mutation happens
/// in the engine's event loop, so two runs with the same seed and
/// schedule replay identical waves.
#[derive(Debug)]
pub struct RecoveryScheduler {
    policy: RecoveryPolicy,
    pending: VecDeque<BackfillItem>,
    queued: BTreeSet<(u8, ObjectId, i32)>,
    unrecoverable: BTreeSet<ObjectId>,
    state: PgHealth,
    degraded_since: Option<SimTime>,
    scrub_cursor: Option<(u8, ObjectId)>,
    scrub_drain: bool,
    pass_found: u64,
    /// Accumulated counters (read by the engine's report assembly).
    pub stats: RecoveryStats,
}

impl RecoveryScheduler {
    /// A scheduler with the given policy and no pending work.
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoveryScheduler {
            policy,
            pending: VecDeque::new(),
            queued: BTreeSet::new(),
            unrecoverable: BTreeSet::new(),
            state: PgHealth::Healthy,
            degraded_since: None,
            scrub_cursor: None,
            scrub_drain: false,
            pass_found: 0,
            stats: RecoveryStats::default(),
        }
    }

    /// The configured knobs.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Backfill items awaiting dispatch.
    pub fn pending_items(&self) -> usize {
        self.pending.len()
    }

    /// Objects with missing copies and no surviving source at the last
    /// scan.
    pub fn unrecoverable_objects(&self) -> u64 {
        self.unrecoverable.len() as u64
    }

    /// Current coarse PG health.
    pub fn health(&self) -> PgHealth {
        self.state
    }

    /// Has scrub entered its end-of-run drain pass?
    pub fn scrub_draining(&self) -> bool {
        self.scrub_drain
    }

    /// Enter the end-of-run scrub drain: restart the cursor for one
    /// final complete pass so corruption injected late is still found.
    pub fn start_scrub_drain(&mut self) {
        self.scrub_drain = true;
        self.scrub_cursor = None;
        self.pass_found = 0;
    }

    fn enqueue(&mut self, item: BackfillItem) {
        if self.queued.insert(item.key()) {
            self.pending.push_back(item);
        }
    }

    fn note_work(&mut self, now: SimTime) {
        if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
        }
        if self.state != PgHealth::Recovering {
            self.state = PgHealth::Degraded;
        }
    }

    /// Mark the cluster clean: all backfill drained at `now`.
    pub fn mark_clean(&mut self, now: SimTime) {
        if let Some(since) = self.degraded_since.take() {
            self.stats.time_to_clean_us += now.saturating_since(since).as_nanos() as f64 / 1e3;
        }
        self.state = PgHealth::Clean;
    }
}

/// One scrub tick's findings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTick {
    /// Virtual time the last charged read/write of the tick completed.
    pub finish: SimTime,
    /// Objects examined this tick.
    pub objects: u64,
    /// Corrupted copies detected this tick.
    pub detected: u64,
    /// Copies rewritten this tick.
    pub repaired: u64,
    /// Did the cursor wrap (a full pass completed)?
    pub wrapped: bool,
}

impl Cluster {
    /// Rescan the object directories against the current map and
    /// registries, enqueueing backfill work for every missing or stale
    /// copy.  Returns `true` when any work is pending afterwards.
    ///
    /// Pure bookkeeping — no virtual time is charged; the costed moves
    /// happen in [`Cluster::backfill_wave`].
    pub fn recovery_scan(&self, sched: &mut RecoveryScheduler, now: SimTime) -> bool {
        let up = |osd: i32| self.osds[osd as usize].is_up();
        let present = |osd: i32, oid| self.osds[osd as usize].store().version(oid).is_some();
        // Replicated objects: each up acting member must hold a fresh
        // copy; a valid source is any up, fresh, uncorrupted holder.
        let mut acting = Vec::new();
        for (&oid, holders) in &self.replica_dir {
            let pool = self.pool(oid.pool);
            if !matches!(pool.kind, PoolKind::Replicated { .. }) {
                continue;
            }
            self.map.acting_set_into(pool.pg_of(oid), &mut acting);
            let has_source = holders.iter().any(|&h| {
                up(h)
                    && !self.stale.contains(&(h, oid))
                    && !self.corrupted.contains(&(h, oid))
                    && present(h, oid)
            });
            let needs =
                |&dst: &i32| up(dst) && (!present(dst, oid) || self.stale.contains(&(dst, oid)));
            if !acting.iter().any(needs) {
                sched.unrecoverable.remove(&oid);
                continue;
            }
            if !has_source {
                sched.unrecoverable.insert(oid);
                continue;
            }
            sched.unrecoverable.remove(&oid);
            for &dst in acting.iter().filter(|d| needs(d)) {
                sched.enqueue(BackfillItem::Replica { oid, dst });
            }
        }

        // EC objects: every placed shard must sit on an up OSD; rebuilds
        // need k readable shards.
        for (&oid, (_, placed)) in &self.shard_dir {
            let PoolKind::Erasure { k, m } = self.pool(oid.pool).kind else {
                continue;
            };
            let readable = placed
                .iter()
                .filter(|&&(osd, _)| {
                    up(osd) && !self.corrupted.contains(&(osd, oid)) && present(osd, oid)
                })
                .count();
            if readable == k + m {
                sched.unrecoverable.remove(&oid);
                continue;
            }
            if readable < k {
                sched.unrecoverable.insert(oid);
                continue;
            }
            sched.unrecoverable.remove(&oid);
            sched.enqueue(BackfillItem::Ec { oid });
        }

        let has_work = !sched.pending.is_empty();
        if has_work {
            sched.note_work(now);
        }
        has_work
    }

    /// Dispatch one wave of backfill: up to `max_active` items, at most
    /// `per_osd_reservation` landing on any destination OSD, every read,
    /// transfer and write charged on the shared OSD/network timelines.
    /// Returns the wave's completion time, or `None` when nothing could
    /// be dispatched.
    pub fn backfill_wave(
        &mut self,
        sched: &mut RecoveryScheduler,
        now: SimTime,
    ) -> Option<SimTime> {
        let max_active = sched.policy.max_active.max(1) as usize;
        let per_osd = sched.policy.per_osd_reservation.max(1) as usize;
        let mut dispatched = 0usize;
        let mut osd_load: BTreeMap<i32, usize> = BTreeMap::new();
        let mut deferred: Vec<BackfillItem> = Vec::new();
        let mut finish: Option<SimTime> = None;
        sched.state = PgHealth::Recovering;

        while dispatched < max_active {
            let Some(item) = sched.pending.pop_front() else {
                break;
            };
            // Per-OSD reservations: an item whose destination is already
            // saturated this wave waits for the next one.
            let dsts = self.backfill_dsts(&item);
            if dsts.iter().any(|d| osd_load.get(d).copied().unwrap_or(0) >= per_osd) {
                deferred.push(item);
                continue;
            }
            sched.queued.remove(&item.key());
            match self.backfill_one(item, now) {
                Some((fin, bytes)) => {
                    for d in dsts {
                        *osd_load.entry(d).or_insert(0) += 1;
                    }
                    sched.stats.recovery_ops += 1;
                    sched.stats.objects_recovered += 1;
                    sched.stats.background_bytes += bytes;
                    finish = Some(finish.map_or(fin, |f: SimTime| f.max(fin)));
                    dispatched += 1;
                }
                None => {
                    // Unservable right now (source or destination went
                    // away since the scan); the next rescan re-triages.
                }
            }
        }
        for item in deferred {
            // Deferred items keep their dedup entry and go back first.
            sched.pending.push_front(item);
        }
        finish
    }

    /// Destination OSDs an item will write to (reservation accounting).
    fn backfill_dsts(&self, item: &BackfillItem) -> Vec<i32> {
        match *item {
            BackfillItem::Replica { dst, .. } => vec![dst],
            BackfillItem::Ec { oid } => {
                let Some((_, placed)) = self.shard_dir.get(&oid) else {
                    return Vec::new();
                };
                let pool = self.pool(oid.pool);
                let pg = pool.pg_of(oid);
                let held: Vec<i32> = placed
                    .iter()
                    .filter(|&&(osd, _)| {
                        self.osds[osd as usize].is_up()
                            && self.osds[osd as usize].store().version(oid).is_some()
                    })
                    .map(|&(osd, _)| osd)
                    .collect();
                let missing = placed.len().saturating_sub(held.len())
                    + (pool.kind.width().saturating_sub(placed.len()));
                self.map
                    .acting_set(pg)
                    .into_iter()
                    .filter(|o| self.osds[*o as usize].is_up() && !held.contains(o))
                    .take(missing)
                    .collect()
            }
        }
    }

    /// Execute one backfill item with real costs.  Returns the commit
    /// time and payload bytes moved, or `None` when the item is no
    /// longer servable.
    fn backfill_one(&mut self, item: BackfillItem, now: SimTime) -> Option<(SimTime, u64)> {
        match item {
            BackfillItem::Replica { oid, dst } => {
                if !self.osds[dst as usize].is_up() {
                    return None;
                }
                let src = *self.replica_dir.get(&oid)?.iter().find(|&&h| {
                    h != dst
                        && self.osds[h as usize].is_up()
                        && !self.stale.contains(&(h, oid))
                        && !self.corrupted.contains(&(h, oid))
                        && self.osds[h as usize].store().version(oid).is_some()
                })?;
                let len = self.osds[src as usize].store().peek_len(oid)?;
                // Costed source read (media + queue on the shared OSD).
                let read_fin = self.osds[src as usize]
                    .charge_read(now, len, false)
                    .expect("source is up");
                // Push src → dst over the cluster network.
                let s_from = self.server_of(src);
                let s_to = self.server_of(dst);
                let arrive = if s_from == s_to {
                    read_fin + ACK_SAME_SERVER
                } else {
                    self.topology.server_to_server(read_fin, s_from, s_to, len as u64)
                };
                // The destination shares the source's pages.
                let (fin, from, to) = self
                    .charge_copy(src, dst, arrive, len, false)
                    .expect("destination is up");
                to.copy_from(oid, from);
                // A full-object copy makes the destination fresh.
                self.stale.remove(&(dst, oid));
                self.corrupted.remove(&(dst, oid));
                if let Some(h) = self.replica_dir.get_mut(&oid) {
                    if !h.contains(&dst) {
                        h.push(dst);
                    }
                }
                Some((fin, len as u64))
            }
            BackfillItem::Ec { oid } => {
                let (orig_len, placed) = self.shard_dir.get(&oid)?.clone();
                let pool = self.pool(oid.pool);
                let PoolKind::Erasure { k, m } = pool.kind else {
                    return None;
                };
                let pg = pool.pg_of(oid);
                // Gather k readable shards with costed reads, streamed
                // back to the client for reconstruction.
                let mut slots: Vec<Option<Vec<u8>>> = vec![None; k + m];
                let mut survivors: Vec<(i32, usize)> = Vec::new();
                let mut gather = now;
                let mut fetched = 0usize;
                for &(osd, idx) in &placed {
                    if fetched >= k {
                        break;
                    }
                    if !self.osds[osd as usize].is_up()
                        || self.corrupted.contains(&(osd, oid))
                    {
                        continue;
                    }
                    let Some(len) = self.osds[osd as usize].store().peek_len(oid) else {
                        continue;
                    };
                    let mut buf = Vec::new();
                    let fin = self.osds[osd as usize]
                        .read_object_at_into(now, oid, 0, len, false, &mut buf)
                        .expect("checked up");
                    let at_client =
                        self.topology
                            .server_to_client(fin, self.server_of(osd), len as u64);
                    gather = gather.max(at_client);
                    slots[idx] = Some(buf);
                    survivors.push((osd, idx));
                    fetched += 1;
                }
                if fetched < k {
                    return None;
                }
                let rs = self.ec_codec(oid.pool);
                rs.reconstruct(&mut slots).ok()?;
                let mut parity = std::mem::take(&mut self.parity_scratch);
                rs.encode_parity_into(&data_shards(&slots, k), &mut parity);
                let parity_len = parity.len() / m;
                // Survivors plus every other up placed holder keep their
                // shards; rebuild the rest onto fresh acting members.
                let mut held: Vec<i32> = survivors.iter().map(|&(o, _)| o).collect();
                let mut new_placed = survivors.clone();
                for &(osd, idx) in &placed {
                    if held.contains(&osd) {
                        continue;
                    }
                    if self.osds[osd as usize].is_up()
                        && !self.corrupted.contains(&(osd, oid))
                        && self.osds[osd as usize].store().version(oid).is_some()
                        && !new_placed.iter().any(|&(_, i)| i == idx)
                    {
                        held.push(osd);
                        new_placed.push((osd, idx));
                    }
                }
                let missing_idx: Vec<usize> = (0..k + m)
                    .filter(|i| !new_placed.iter().any(|&(_, idx)| idx == *i))
                    .collect();
                let targets: Vec<i32> = self
                    .map
                    .acting_set(pg)
                    .into_iter()
                    .filter(|o| self.osds[*o as usize].is_up() && !held.contains(o))
                    .collect();
                let mut targets = targets.into_iter();
                let mut fin = gather;
                let mut moved = 0u64;
                for idx in missing_idx {
                    let Some(dst) = targets.next() else { break };
                    let shard = match idx.checked_sub(k) {
                        None => slots[idx].as_deref().expect("reconstructed"),
                        Some(pi) => &parity[pi * parity_len..][..parity_len],
                    };
                    let len = shard.len() as u64;
                    let arrive =
                        self.topology
                            .client_to_server(gather, self.server_of(dst), len);
                    let w_fin = self.osds[dst as usize]
                        .write_object(arrive, oid, shard, false)
                        .expect("destination is up");
                    self.stale.remove(&(dst, oid));
                    self.corrupted.remove(&(dst, oid));
                    fin = fin.max(w_fin);
                    moved += len;
                    new_placed.push((dst, idx));
                }
                self.parity_scratch = parity;
                self.shard_dir.insert(oid, (orig_len, new_placed));
                Some((fin, moved))
            }
        }
    }

    /// One deep-scrub tick: examine up to `scrub_chunk` objects past the
    /// cursor (both pools, replica directory first), charging a full
    /// media read per readable copy, byte/parity-comparing, and pushing
    /// costed repair writes for every mismatch.
    pub fn scrub_tick(&mut self, sched: &mut RecoveryScheduler, now: SimTime) -> ScrubTick {
        let chunk = u64::from(sched.policy.scrub_chunk.max(1));
        let mut tick = ScrubTick { finish: now, ..ScrubTick::default() };

        if self.replica_dir.is_empty() && self.shard_dir.is_empty() {
            tick.wrapped = true;
            sched.pass_found = 0;
            return tick;
        }
        let mut cursor = sched.scrub_cursor;
        let mut next = self.next_scrub_key(cursor);
        while tick.objects < chunk {
            let Some((tag, oid)) = next else { break };
            let (fin, detected, repaired) = if tag == 0 {
                self.scrub_replicated_object(oid, now)
            } else {
                self.scrub_ec_object(oid, now)
            };
            tick.finish = tick.finish.max(fin);
            tick.detected += detected;
            tick.repaired += repaired;
            tick.objects += 1;
            cursor = next;
            next = self.next_scrub_key(cursor);
        }
        sched.stats.scrub_objects += tick.objects;
        sched.stats.bitrot_detected += tick.detected;
        sched.stats.bitrot_repaired += tick.repaired;
        sched.stats.objects_repaired += tick.repaired;
        sched.pass_found += tick.detected;
        if next.is_none() {
            tick.wrapped = true;
            sched.scrub_cursor = None;
        } else {
            sched.scrub_cursor = cursor;
        }
        tick
    }

    /// The scrub keyspace entry after `cursor` (from the start when
    /// `None`): replicated objects `(0, oid)` in id order, then EC
    /// objects `(1, oid)`.
    fn next_scrub_key(&self, cursor: Option<(u8, ObjectId)>) -> Option<(u8, ObjectId)> {
        fn after<V>(dir: &BTreeMap<ObjectId, V>, last: Option<ObjectId>) -> Option<ObjectId> {
            let from = last.map_or(Bound::Unbounded, Bound::Excluded);
            dir.range((from, Bound::Unbounded))
                .next()
                .map(|(oid, _)| *oid)
        }
        let replica = match cursor {
            Some((1, _)) => None,
            _ => after(&self.replica_dir, cursor.map(|(_, oid)| oid)).map(|oid| (0, oid)),
        };
        replica.or_else(|| {
            let last = cursor.filter(|&(tag, _)| tag == 1).map(|(_, oid)| oid);
            after(&self.shard_dir, last).map(|oid| (1, oid))
        })
    }

    /// Reset the per-pass found counter (call when a pass wraps to
    /// decide whether the drain loop may stop).
    pub fn scrub_pass_reset(&self, sched: &mut RecoveryScheduler) -> u64 {
        let found = sched.pass_found;
        sched.pass_found = 0;
        found
    }

    /// Stored length of `osd`'s copy of `oid` when deep scrub may read
    /// it: the OSD is up, the copy is fresh (stale copies are
    /// backfill's job, not scrub's) and present.
    fn scrub_readable_len(&self, osd: i32, oid: ObjectId) -> Option<usize> {
        let o = &self.osds[osd as usize];
        if !o.is_up() || self.stale.contains(&(osd, oid)) {
            return None;
        }
        o.store().peek_len(oid)
    }

    /// Do two OSDs hold the same bytes for `oid`?  Compared in place.
    fn same_copy(&self, a: i32, b: i32, oid: ObjectId) -> bool {
        let store = |osd: i32| self.osds[osd as usize].store();
        store(a).same_content(oid, store(b), oid)
    }

    /// Deep-scrub one replicated object: every readable fresh copy is
    /// charged a local media read and compared with the first one in
    /// place (no bytes copied, no allocation).  Only on a mismatch do
    /// the copies vote (majority, ties to the first holder); the
    /// winning bytes are materialised once and pushed to every
    /// mismatching holder over the cluster network.
    fn scrub_replicated_object(
        &mut self,
        oid: ObjectId,
        now: SimTime,
    ) -> (SimTime, u64, u64) {
        let Some(holders) = self.replica_dir.get(&oid) else {
            return (now, 0, 0);
        };
        let mut fin = now;
        let mut first: Option<i32> = None;
        let mut all_equal = true;
        for &osd in holders {
            let Some(len) = self.scrub_readable_len(osd, oid) else {
                continue;
            };
            let r_fin = self.osds[osd as usize]
                .charge_read(now, len, false)
                .expect("checked up");
            fin = fin.max(r_fin);
            match first {
                None => first = Some(osd),
                Some(f) => all_equal = all_equal && self.same_copy(f, osd, oid),
            }
        }
        // Also true with fewer than two readable copies: nothing to vote on.
        if all_equal {
            return (fin, 0, 0);
        }
        let copies: Vec<i32> = holders
            .iter()
            .copied()
            .filter(|&osd| self.scrub_readable_len(osd, oid).is_some())
            .collect();
        // Majority vote; ties go to the first (write-time primary) copy.
        let mut best: Option<(i32, usize)> = None;
        for &osd in &copies {
            let votes = copies
                .iter()
                .filter(|&&x| self.same_copy(x, osd, oid))
                .count();
            if best.map(|(_, v)| votes > v).unwrap_or(true) {
                best = Some((osd, votes));
            }
        }
        let auth_osd = best.expect("non-empty").0;
        let auth_len = self
            .scrub_readable_len(auth_osd, oid)
            .expect("readable copy");
        let mut detected = 0;
        let mut repaired = 0;
        for &osd in &copies {
            if !self.same_copy(auth_osd, osd, oid) {
                detected += 1;
                // Push the authoritative copy to the bad holder.
                let s_from = self.server_of(auth_osd);
                let s_to = self.server_of(osd);
                let arrive = if s_from == s_to {
                    fin + ACK_SAME_SERVER
                } else {
                    self.topology.server_to_server(fin, s_from, s_to, auth_len as u64)
                };
                // The repaired copy shares the authoritative pages.
                let (w_fin, from, to) = self
                    .charge_copy(auth_osd, osd, arrive, auth_len, false)
                    .expect("checked up");
                to.copy_from(oid, from);
                fin = fin.max(w_fin);
                repaired += 1;
            }
        }
        if detected > 0 {
            // The object is consistent again: drop every registry entry.
            let entries: Vec<(i32, ObjectId)> = self
                .corrupted
                .iter()
                .filter(|&&(_, o)| o == oid)
                .copied()
                .collect();
            for e in entries {
                self.corrupted.remove(&e);
            }
        }
        (fin, detected, repaired)
    }

    /// Deep-scrub one EC object: read every readable shard, re-encode
    /// the parity and compare.  Attribution of the bad shard uses the
    /// corruption registry (modeling Ceph's per-shard hinfo CRCs); the
    /// shard is reconstructed from the surviving k and rewritten.
    fn scrub_ec_object(&mut self, oid: ObjectId, now: SimTime) -> (SimTime, u64, u64) {
        let PoolKind::Erasure { k, m } = self.pool(oid.pool).kind else {
            return (now, 0, 0);
        };
        let rs = self.ec_codec(oid.pool);
        let Some((_, placed)) = self.shard_dir.get(&oid) else {
            return (now, 0, 0);
        };
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut holder_of: Vec<Option<i32>> = vec![None; k + m];
        let mut fin = now;
        for &(osd, idx) in placed {
            if !self.osds[osd as usize].is_up() {
                continue;
            }
            let Some(len) = self.osds[osd as usize].store().peek_len(oid) else {
                continue;
            };
            let mut buf = Vec::new();
            let r_fin = self.osds[osd as usize]
                .read_object_at_into(now, oid, 0, len, false, &mut buf)
                .expect("checked up");
            fin = fin.max(r_fin);
            slots[idx] = Some(buf);
            holder_of[idx] = Some(osd);
        }
        if !(0..k).all(|i| slots[i].is_some()) {
            return (fin, 0, 0); // data shards missing → recovery's job
        }
        let mut parity = std::mem::take(&mut self.parity_scratch);
        rs.encode_parity_into(&data_shards(&slots, k), &mut parity);
        let len = parity.len() / m;
        let divergent = |pi: usize| {
            slots[k + pi]
                .as_deref()
                .is_some_and(|stored| stored != &parity[pi * len..][..len])
        };
        if !(0..m).any(divergent) {
            self.parity_scratch = parity;
            return (fin, 0, 0);
        }
        // Which shard is bad?  Consult the registry (hinfo CRC model);
        // without an entry, fall back to rewriting the divergent parity.
        let bad: Vec<(i32, usize)> = placed
            .iter()
            .filter(|&&(osd, _)| self.corrupted.contains(&(osd, oid)))
            .copied()
            .collect();
        let mut detected = 0;
        let mut repaired = 0;
        if bad.is_empty() {
            for pi in (0..m).filter(|&pi| divergent(pi)) {
                if let Some(osd) = holder_of[k + pi] {
                    detected += 1;
                    let p = &parity[pi * len..][..len];
                    let arrive =
                        self.topology
                            .client_to_server(fin, self.server_of(osd), p.len() as u64);
                    let w_fin = self.osds[osd as usize]
                        .write_object(arrive, oid, p, false)
                        .expect("checked up");
                    fin = fin.max(w_fin);
                    repaired += 1;
                }
            }
        } else {
            for (osd, idx) in bad {
                detected += 1;
                // Reconstruct the registered shard from the others.
                let registered = slots[idx].take();
                if rs.reconstruct(&mut slots).is_err() {
                    slots[idx] = registered;
                    continue; // not enough good shards — unrepairable now
                }
                if idx >= k {
                    rs.encode_parity_into(&data_shards(&slots, k), &mut parity);
                    slots[idx] = Some(parity[(idx - k) * len..][..len].to_vec());
                }
                let good = slots[idx].as_deref().expect("reconstructed");
                let arrive = self.topology.client_to_server(
                    fin,
                    self.server_of(osd),
                    good.len() as u64,
                );
                let w_fin = self.osds[osd as usize]
                    .write_object(arrive, oid, good, false)
                    .expect("checked up");
                fin = fin.max(w_fin);
                self.corrupted.remove(&(osd, oid));
                repaired += 1;
            }
        }
        self.parity_scratch = parity;
        (fin, detected, repaired)
    }

    /// Fire a `deliba_fault::FaultKind::BitRot` event: flip
    /// one stored byte in up to `copies` distinct objects' copies, drawn
    /// deterministically from the plane's dedicated bit-rot stream.
    /// At most one copy per object ever carries rot (until repaired), so
    /// majority vote and EC reconstruction always have a good quorum.
    /// Returns how many copies were corrupted.
    pub fn inject_bitrot(&mut self, copies: u32, rng: &mut Xoshiro256) -> u64 {
        let rotten_oids: BTreeSet<ObjectId> =
            self.corrupted.iter().map(|&(_, o)| o).collect();
        let mut pool: Vec<(i32, ObjectId)> = Vec::new();
        for (oid, holders) in &self.replica_dir {
            if rotten_oids.contains(oid) {
                continue;
            }
            for &h in holders {
                if self.osds[h as usize].is_up()
                    && !self.stale.contains(&(h, *oid))
                    && self.osds[h as usize]
                        .store()
                        .peek_len(*oid)
                        .map(|l| l > 0)
                        .unwrap_or(false)
                {
                    pool.push((h, *oid));
                }
            }
        }
        for (oid, (_, placed)) in &self.shard_dir {
            if rotten_oids.contains(oid) {
                continue;
            }
            for &(osd, _) in placed {
                if self.osds[osd as usize].is_up()
                    && self.osds[osd as usize]
                        .store()
                        .peek_len(*oid)
                        .map(|l| l > 0)
                        .unwrap_or(false)
                {
                    pool.push((osd, *oid));
                }
            }
        }
        let mut hit_oids: BTreeSet<ObjectId> = BTreeSet::new();
        let mut injected = 0u64;
        while injected < copies as u64 && !pool.is_empty() {
            let i = rng.gen_range(pool.len() as u64) as usize;
            let (osd, oid) = pool.swap_remove(i);
            if hit_oids.contains(&oid) {
                continue;
            }
            let store = self.osds[osd as usize].store_mut();
            let Some(len) = store.peek_len(oid) else { continue };
            if len == 0 {
                continue;
            }
            // Flip one byte in the middle of the stored payload.
            let mid = len / 2;
            let cur = store.read_at(oid, mid, 1);
            store.write_at(oid, mid, &[cur[0] ^ 0xFF]);
            self.corrupted.insert((osd, oid));
            hit_oids.insert(oid);
            injected += 1;
        }
        injected
    }
}

/// Borrow the `k` data shards of a full slot vector for
/// [`deliba_ec::ReedSolomon::encode_parity_into`].
fn data_shards(slots: &[Option<Vec<u8>>], k: usize) -> Vec<&[u8]> {
    slots[..k]
        .iter()
        .map(|s| s.as_deref().expect("data shard present"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deliba_ec::ReedSolomon;
    use deliba_sim::SimTime;

    fn oid_rep(name: u64) -> ObjectId {
        ObjectId::new(1, name)
    }
    fn oid_ec(name: u64) -> ObjectId {
        ObjectId::new(2, name)
    }
    fn payload(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_add(tag)).collect()
    }

    fn seeded_cluster(seed: u64, objects: u64) -> (Cluster, SimTime) {
        let mut c = Cluster::paper_testbed(seed);
        let mut t = SimTime::ZERO;
        for i in 0..objects {
            let w = c
                .write_replicated_at(t, oid_rep(i), 0, &payload(8192, i as u8), true)
                .unwrap();
            t = w.complete;
        }
        (c, t)
    }

    #[test]
    fn scan_finds_missing_copies_and_wave_heals_them() {
        let (mut c, t) = seeded_cluster(31, 8);
        let victim = c.replica_dir.get(&oid_rep(0)).unwrap()[0];
        c.fail_osd(victim);
        let mut sched = RecoveryScheduler::new(RecoveryPolicy::default());
        assert!(c.recovery_scan(&mut sched, t), "crash leaves work to do");
        assert!(sched.pending_items() > 0);
        assert_eq!(sched.health(), PgHealth::Degraded);
        // Drain all waves.
        let mut now = t;
        let mut guard = 0;
        while sched.pending_items() > 0 {
            if let Some(fin) = c.backfill_wave(&mut sched, now) {
                assert!(fin > now, "backfill charges real time");
                now = fin;
            }
            c.recovery_scan(&mut sched, now);
            guard += 1;
            assert!(guard < 1000, "waves must make progress");
        }
        sched.mark_clean(now);
        assert_eq!(sched.health(), PgHealth::Clean);
        assert!(sched.stats.objects_recovered > 0);
        assert!(sched.stats.background_bytes > 0);
        assert!(sched.stats.time_to_clean_us > 0.0);
        assert_eq!(sched.unrecoverable_objects(), 0);
        // Every object is fully replicated again on up OSDs.
        assert!(!c.recovery_scan(&mut sched, now));
        // And the healed copies serve reads with the right bytes.
        let mut data = Vec::new();
        for i in 0..8 {
            c.read_replicated_into(now, oid_rep(i), 0, 8192, true, &mut data)
                .unwrap();
            assert_eq!(payload(8192, i as u8), data, "object {i}");
        }
    }

    #[test]
    fn wave_respects_concurrency_caps() {
        let (mut c, t) = seeded_cluster(32, 24);
        let victim = c.replica_dir.get(&oid_rep(0)).unwrap()[0];
        c.fail_osd(victim);
        let mut sched = RecoveryScheduler::new(RecoveryPolicy::with_max_active(2));
        c.recovery_scan(&mut sched, t);
        let before = sched.pending_items();
        if before >= 2 {
            c.backfill_wave(&mut sched, t);
            assert!(
                before - sched.pending_items() <= 2,
                "a wave never exceeds max_active"
            );
        }
    }

    #[test]
    fn all_copies_lost_is_unrecoverable_until_a_source_revives() {
        let (mut c, t) = seeded_cluster(33, 4);
        let holders = c.replica_dir.get(&oid_rep(2)).unwrap().clone();
        for &h in &holders {
            c.fail_osd(h);
        }
        let mut sched = RecoveryScheduler::new(RecoveryPolicy::default());
        c.recovery_scan(&mut sched, t);
        assert!(sched.unrecoverable_objects() >= 1);
        // A surviving copy comes back: recoverable again.
        c.revive_osd(holders[0]);
        c.recovery_scan(&mut sched, t);
        assert_eq!(sched.unrecoverable_objects(), 0);
    }

    #[test]
    fn ec_rebuild_restores_full_width() {
        let mut c = Cluster::paper_testbed(34);
        let data = payload(16 * 1024, 5);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let w = c
            .write_ec_shards(SimTime::ZERO, oid_ec(1), data.len(), shards, true)
            .unwrap();
        let placed = c.shard_dir.get(&oid_ec(1)).unwrap().1.clone();
        c.fail_osd(placed[1].0);
        c.fail_osd(placed[4].0);
        let mut sched = RecoveryScheduler::new(RecoveryPolicy::default());
        assert!(c.recovery_scan(&mut sched, w.complete));
        let fin = c.backfill_wave(&mut sched, w.complete).expect("dispatched");
        assert!(fin > w.complete);
        // Full width again on up OSDs; bytes intact.
        let placed2 = c.shard_dir.get(&oid_ec(1)).unwrap().1.clone();
        let up = placed2
            .iter()
            .filter(|&&(o, _)| c.osd_is_up(o))
            .count();
        assert_eq!(up, 6, "rebuilt to k+m on surviving OSDs");
        let mut read = Vec::new();
        c.read_ec_into(fin, oid_ec(1), true, &mut read).unwrap();
        assert_eq!(data, read);
        c.recovery_scan(&mut sched, fin);
        assert_eq!(sched.pending_items(), 0, "nothing left to rebuild");
    }

    #[test]
    fn bitrot_injection_is_seeded_and_detected_by_scrub() {
        let (mut c, t) = seeded_cluster(35, 12);
        let mut rng_a = Xoshiro256::seed_from_u64(99);
        let n = c.inject_bitrot(5, &mut rng_a);
        assert_eq!(n, 5);
        assert_eq!(c.corrupted_copies(), 5);

        // Same seed, same cluster state → same picks.
        let (mut c2, _) = seeded_cluster(35, 12);
        let mut rng_b = Xoshiro256::seed_from_u64(99);
        c2.inject_bitrot(5, &mut rng_b);
        assert_eq!(
            c.corrupted.iter().collect::<Vec<_>>(),
            c2.corrupted.iter().collect::<Vec<_>>()
        );

        // A full scrub pass detects and repairs every flipped copy.
        let mut sched =
            RecoveryScheduler::new(RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64));
        let tick = c.scrub_tick(&mut sched, t);
        assert!(tick.wrapped, "chunk 64 covers 12 objects in one tick");
        assert_eq!(tick.detected, 5, "all corruption found");
        assert_eq!(tick.repaired, 5, "all corruption repaired");
        assert!(tick.finish > t, "scrub charges media time");
        assert_eq!(c.corrupted_copies(), 0);
        // Bytes are byte-identical to the originals after repair.
        let mut data = Vec::new();
        for i in 0..12 {
            let r = c
                .read_replicated_into(tick.finish, oid_rep(i), 0, 8192, true, &mut data)
                .unwrap();
            assert_eq!(payload(8192, i as u8), data, "object {i}");
            assert!(!r.degraded);
        }
        // A second pass is clean.
        let tick2 = c.scrub_tick(&mut sched, tick.finish);
        assert_eq!(tick2.detected, 0);
    }

    #[test]
    fn scrub_detects_ec_shard_rot() {
        let mut c = Cluster::paper_testbed(36);
        let data = payload(12 * 1024, 7);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let w = c
            .write_ec_shards(SimTime::ZERO, oid_ec(3), data.len(), shards, true)
            .unwrap();
        // Corrupt one data shard via the seeded injector (EC pool only).
        let mut rng = Xoshiro256::seed_from_u64(7);
        assert_eq!(c.inject_bitrot(1, &mut rng), 1);
        let mut sched = RecoveryScheduler::new(
            RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64),
        );
        let tick = c.scrub_tick(&mut sched, w.complete);
        assert_eq!(tick.detected, 1);
        assert_eq!(tick.repaired, 1);
        assert_eq!(c.corrupted_copies(), 0);
        let mut read = Vec::new();
        let r = c
            .read_ec_into(tick.finish, oid_ec(3), true, &mut read)
            .unwrap();
        assert_eq!(data, read, "post-repair bytes identical");
        assert!(!r.degraded);
    }

    #[test]
    fn degraded_and_post_repair_reads_byte_identical_property() {
        // Property: across random kill/bit-rot sets on both pool kinds,
        // degraded reads and post-repair reads return exactly the bytes
        // written.
        for seed in 0..6u64 {
            let mut c = Cluster::paper_testbed(40 + seed);
            let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
            let mut t = SimTime::ZERO;
            let rs = ReedSolomon::new(4, 2);
            for i in 0..6u64 {
                let w = c
                    .write_replicated_at(
                        t,
                        oid_rep(i),
                        0,
                        &payload(4096, (seed * 17 + i) as u8),
                        true,
                    )
                    .unwrap();
                t = w.complete;
                let data = payload(6144, (seed * 31 + i) as u8);
                let w2 = c
                    .write_ec_shards(t, oid_ec(i), data.len(), rs.encode(&data), true)
                    .unwrap();
                t = w2.complete;
            }
            // Random kill (one OSD) + random bit rot (3 copies).
            let kill = rng.gen_range(32) as i32;
            c.fail_osd(kill);
            c.inject_bitrot(3, &mut rng);
            // Degraded reads are byte-identical to what was written.
            let mut data = Vec::new();
            for i in 0..6u64 {
                if c.read_replicated_into(t, oid_rep(i), 0, 4096, true, &mut data)
                    .is_some()
                {
                    assert_eq!(payload(4096, (seed * 17 + i) as u8), data, "rep {seed}/{i}");
                }
                if c.read_ec_into(t, oid_ec(i), true, &mut data).is_some() {
                    assert_eq!(payload(6144, (seed * 31 + i) as u8), data, "ec {seed}/{i}");
                }
            }
            // Heal: revive, backfill, scrub-repair; then re-verify.
            c.revive_osd(kill);
            let mut sched = RecoveryScheduler::new(
                RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 1024),
            );
            let mut now = t;
            let mut guard = 0;
            while c.recovery_scan(&mut sched, now) {
                if let Some(fin) = c.backfill_wave(&mut sched, now) {
                    now = fin;
                }
                guard += 1;
                assert!(guard < 1000);
            }
            let tick = c.scrub_tick(&mut sched, now);
            now = now.max(tick.finish);
            assert_eq!(c.corrupted_copies(), 0, "seed {seed}: scrub repaired all rot");
            for i in 0..6u64 {
                let r = c
                    .read_replicated_into(now, oid_rep(i), 0, 4096, true, &mut data)
                    .unwrap();
                assert_eq!(payload(4096, (seed * 17 + i) as u8), data);
                assert!(!r.degraded, "rep {seed}/{i} healthy again");
                let r = c.read_ec_into(now, oid_ec(i), true, &mut data).unwrap();
                assert_eq!(payload(6144, (seed * 31 + i) as u8), data);
                assert!(!r.degraded, "ec {seed}/{i} healthy again");
            }
        }
    }

    #[test]
    fn scrub_cursor_paces_passes() {
        let (mut c, t) = seeded_cluster(37, 10);
        let mut sched = RecoveryScheduler::new(
            RecoveryPolicy::default().with_scrub(SimDuration::from_micros(50), 3),
        );
        let mut ticks = 0;
        let mut now = t;
        loop {
            let tick = c.scrub_tick(&mut sched, now);
            now = now.max(tick.finish);
            ticks += 1;
            if tick.wrapped {
                break;
            }
            assert!(ticks < 100);
        }
        assert_eq!(ticks, 4, "10 objects at chunk 3 → 4 ticks");
        assert_eq!(sched.stats.scrub_objects, 10);
    }

    /// Deep scrub of one replicated object the copying way: materialise
    /// every readable fresh copy, vote over whole byte vectors (ties to
    /// the first holder) and return the mismatch count plus every
    /// holder's expected bytes after repair.
    fn reference_scrub(c: &Cluster, oid: ObjectId) -> (u64, Vec<(i32, Vec<u8>)>) {
        let holders = &c.replica_dir[&oid];
        let stored = |h: i32| c.osds[h as usize].store().read(oid);
        let mut finals: Vec<(i32, Vec<u8>)> = holders
            .iter()
            .map(|&h| (h, stored(h).expect("copy exists")))
            .collect();
        let copies: Vec<(i32, Vec<u8>)> = holders
            .iter()
            .copied()
            .filter(|&h| c.osds[h as usize].is_up() && !c.stale.contains(&(h, oid)))
            .filter_map(|h| stored(h).map(|b| (h, b)))
            .collect();
        if copies.len() < 2 {
            return (0, finals);
        }
        let mut best: Option<(usize, usize)> = None;
        for (i, (_, d)) in copies.iter().enumerate() {
            let votes = copies.iter().filter(|(_, x)| x == d).count();
            if best.is_none_or(|(_, v)| votes > v) {
                best = Some((i, votes));
            }
        }
        let auth = &copies[best.expect("two copies").0].1;
        let mut detected = 0;
        for (h, d) in &copies {
            if d != auth {
                detected += 1;
                let slot = finals.iter_mut().find(|(f, _)| f == h).expect("holder");
                slot.1 = auth.clone();
            }
        }
        (detected, finals)
    }

    #[test]
    fn in_place_scrub_matches_the_copying_vote() {
        let (mut c, t) = seeded_cluster(38, 12);
        let mut rng = Xoshiro256::seed_from_u64(2024);
        let holders = |c: &Cluster, i: u64| c.replica_dir[&oid_rep(i)].clone();
        // Flip one seeded byte of copy `copy` of object `i`; returns the
        // (offset, mask) so a test case can repeat it on another copy.
        let mut flip = |c: &mut Cluster, i: u64, copy: usize, at: Option<(usize, u8)>| {
            let oid = oid_rep(i);
            let h = holders(c, i)[copy];
            let (off, mask) =
                at.unwrap_or_else(|| (rng.gen_range(8192) as usize, 1 + rng.gen_range(255) as u8));
            let store = c.osds[h as usize].store_mut();
            let cur = store.read_at(oid, off, 1)[0];
            store.write_at(oid, off, &[cur ^ mask]);
            c.corrupted.insert((h, oid));
            (off, mask)
        };
        // 0: clean.  1: copy 2 rotten.  2: copy 0 rotten (the majority
        // outvotes the first holder).
        flip(&mut c, 1, 2, None);
        flip(&mut c, 2, 0, None);
        // 3: all three copies different (three-way tie → copy 0).
        flip(&mut c, 3, 0, None);
        flip(&mut c, 3, 1, None);
        flip(&mut c, 3, 2, None);
        // 4 and 5: two readable copies that differ (1:1 tie → copy 0),
        // once with the rot on copy 1 and once on copy 0.
        for (i, rotten) in [(4, 1), (5, 0)] {
            let excluded = holders(&c, i)[2];
            c.stale.insert((excluded, oid_rep(i)));
            flip(&mut c, i, rotten, None);
        }
        // 6: copies 0 and 1 carry the same flip and outvote copy 2.
        let same = flip(&mut c, 6, 0, None);
        flip(&mut c, 6, 1, Some(same));
        // 7: the last byte of copy 1.  8: copy 1 one zero byte longer.
        flip(&mut c, 7, 1, Some((8191, 0x01)));
        let longer = holders(&c, 8)[1];
        c.osds[longer as usize]
            .store_mut()
            .write_at(oid_rep(8), 8192, &[0]);

        let mut want_detected = 0;
        let mut want_bytes = Vec::new();
        for i in 0..12 {
            let (detected, finals) = reference_scrub(&c, oid_rep(i));
            want_detected += detected;
            want_bytes.push(finals);
        }
        assert_eq!(want_detected, 9, "the cases above outvote nine copies");

        let mut sched = RecoveryScheduler::new(
            RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64),
        );
        let tick = c.scrub_tick(&mut sched, t);
        assert!(tick.wrapped);
        assert_eq!(tick.objects, 12);
        assert_eq!(tick.detected, want_detected);
        assert_eq!(tick.repaired, want_detected);
        assert_eq!(sched.stats.bitrot_repaired, want_detected);
        assert_eq!(c.corrupted_copies(), 0);
        for (i, finals) in want_bytes.iter().enumerate() {
            for (h, want) in finals {
                let got = c.osds[*h as usize].store().read(oid_rep(i as u64)).unwrap();
                assert_eq!(&got, want, "object {i}, OSD {h}");
            }
        }
        // The repaired copies agree, so a second pass finds nothing.
        let tick2 = c.scrub_tick(&mut sched, tick.finish);
        assert_eq!((tick2.detected, tick2.repaired), (0, 0));
    }
    /// Every replicated copy kept the copying way: one independent byte
    /// vector per `(osd, object)`, written, flipped, backfilled and
    /// repaired by copying bytes, as the store did before copies shared
    /// pages.
    type CopyModel = BTreeMap<(i32, ObjectId), Vec<u8>>;

    /// Deep scrub of every replicated object over the model: vote over
    /// the copies scrub may read (ties to the first holder) and rewrite
    /// the losers with the winner's bytes.  Returns the rewrites.
    fn model_scrub_pass(c: &Cluster, model: &mut CopyModel) -> u64 {
        let mut repaired = 0;
        for (&oid, holders) in &c.replica_dir {
            let copies: Vec<(i32, Vec<u8>)> = holders
                .iter()
                .filter(|&&h| c.osd_is_up(h) && !c.stale.contains(&(h, oid)))
                .filter_map(|&h| model.get(&(h, oid)).map(|d| (h, d.clone())))
                .collect();
            let mut best: Option<(usize, usize)> = None;
            for (i, (_, d)) in copies.iter().enumerate() {
                let votes = copies.iter().filter(|(_, x)| x == d).count();
                if best.is_none_or(|(_, v)| votes > v) {
                    best = Some((i, votes));
                }
            }
            let Some((winner, _)) = best else { continue };
            let auth = copies[winner].1.clone();
            for (h, d) in &copies {
                if *d != auth {
                    model.insert((*h, oid), auth.clone());
                    repaired += 1;
                }
            }
        }
        repaired
    }

    /// Every stored replicated copy reads back the model's bytes, and
    /// the stores hold no copy the model lacks.
    fn assert_matches_model(c: &Cluster, model: &CopyModel, what: &str) {
        for (&(osd, oid), want) in model {
            let got = c.osds[osd as usize].store().read(oid);
            assert_eq!(
                got.as_deref(),
                Some(&want[..]),
                "{what}: OSD {osd}, {oid:?}"
            );
        }
        let stored: usize = c.osds.iter().map(|o| o.store().len()).sum();
        assert_eq!(stored, model.len(), "{what}: copy count");
    }

    #[test]
    fn shared_pages_match_a_copying_reference() {
        const OBJECTS: u64 = 6;
        const PAGE: u64 = 4096;
        let (mut scrubbed, mut backfilled) = (0u64, 0u64);
        for seed in 0..8u64 {
            let mut c = Cluster::paper_testbed(60 + seed);
            c.set_dynamics(seed % 2 == 0);
            let mut rng = Xoshiro256::seed_from_u64(500 + seed);
            let mut model = CopyModel::new();
            let mut sched = RecoveryScheduler::new(
                RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 1024),
            );
            let mut down: Option<i32> = None;
            let mut t = SimTime::ZERO;
            for step in 0..150 {
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(10) {
                    // Replicated writes, page-aligned or not.
                    0..=4 => {
                        let oid = oid_rep(rng.gen_range(OBJECTS));
                        let (offset, len) = if rng.gen_bool(0.5) {
                            (PAGE * rng.gen_range(4), PAGE * (1 + rng.gen_range(3)))
                        } else {
                            (rng.gen_range(4 * PAGE), 1 + rng.gen_range(2 * PAGE))
                        };
                        let (offset, len) = (offset as usize, len as usize);
                        let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                        let Some(w) = c.write_replicated_at(t, oid, offset, &data, true) else {
                            continue;
                        };
                        t = t.max(w.complete);
                        for &h in &c.replica_dir[&oid] {
                            let copy = model.entry((h, oid)).or_default();
                            if copy.len() < offset + len {
                                copy.resize(offset + len, 0);
                            }
                            copy[offset..offset + len].copy_from_slice(&data);
                        }
                    }
                    // Bit rot on one copy.
                    5 => {
                        let before = c.corrupted.clone();
                        if c.inject_bitrot(1, &mut rng) == 1 {
                            let &(osd, oid) = c.corrupted.difference(&before).next().unwrap();
                            let copy = model.get_mut(&(osd, oid)).expect("rotted copy exists");
                            let mid = copy.len() / 2;
                            copy[mid] ^= 0xFF;
                        }
                    }
                    // Crash or revive one OSD.
                    6 => match down.take() {
                        Some(osd) => c.revive_osd(osd),
                        None => {
                            let osd = rng.gen_range(c.num_osds() as u64) as i32;
                            c.fail_osd(osd);
                            down = Some(osd);
                        }
                    },
                    // One backfill wave: every copy whose version moved
                    // was re-copied from the first valid holder.
                    7 | 8 => {
                        let version =
                            |c: &Cluster, osd: usize, oid| c.osds[osd].store().version(oid);
                        let oids: Vec<ObjectId> = c.replica_dir.keys().copied().collect();
                        let before: Vec<Vec<Option<u64>>> = (0..c.num_osds())
                            .map(|o| oids.iter().map(|&oid| version(&c, o, oid)).collect())
                            .collect();
                        let (dir, stale, corrupted) =
                            (c.replica_dir.clone(), c.stale.clone(), c.corrupted.clone());
                        c.recovery_scan(&mut sched, t);
                        if let Some(fin) = c.backfill_wave(&mut sched, t) {
                            t = t.max(fin);
                        }
                        for (o, versions) in before.iter().enumerate() {
                            for (&oid, &v) in oids.iter().zip(versions) {
                                if version(&c, o, oid) == v {
                                    continue;
                                }
                                let dst = o as i32;
                                let src = *dir[&oid]
                                    .iter()
                                    .find(|&&h| {
                                        h != dst
                                            && c.osd_is_up(h)
                                            && !stale.contains(&(h, oid))
                                            && !corrupted.contains(&(h, oid))
                                            && model.contains_key(&(h, oid))
                                    })
                                    .expect("backfill had a source");
                                let bytes = model[&(src, oid)].clone();
                                model.insert((dst, oid), bytes);
                                backfilled += 1;
                            }
                        }
                    }
                    // A full deep-scrub pass.
                    _ => {
                        let want = model_scrub_pass(&c, &mut model);
                        let tick = c.scrub_tick(&mut sched, t);
                        assert!(tick.wrapped, "{what}");
                        assert_eq!((tick.detected, tick.repaired), (want, want), "{what}");
                        t = t.max(tick.finish);
                        scrubbed += want;
                    }
                }
                assert_matches_model(&c, &model, &what);
            }
        }
        assert!(
            scrubbed > 0 && backfilled > 0,
            "the draws reach repair and backfill"
        );
    }
}
