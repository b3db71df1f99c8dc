//! The assembled cluster: OSDs + network + map + I/O pipelines.
//!
//! Implements the two data paths every DeLiBA evaluation exercises:
//!
//! * **Primary-copy replication** — the client sends the object to the
//!   PG primary; the primary applies it locally and forwards to the
//!   replica OSDs (server-to-server traffic); the write commits when all
//!   copies ack (§III-C: "replication operations … the two methods used
//!   in Ceph for data durability").
//! * **Erasure coding** — the client (in DeLiBA: the FPGA) encodes the
//!   object into `k + m` shards and fans them out to the acting set;
//!   reads gather any `k` shards and reconstruct.
//!
//! Data is real: every write stores bytes in OSD object stores, every
//! read returns them, failure injection yields degraded-but-correct
//! reads, and the costed deep scrub in [`crate::recovery`] verifies
//! replica/parity consistency.

use crate::object::{ObjectId, ObjectStore};
use crate::osd::{Osd, OsdProfile};
use crate::osdmap::OsdMap;
use crate::pool::{PoolConfig, PoolKind};
use deliba_crush::rule::Rule;
use deliba_crush::{MapBuilder, RuleStep};
use deliba_ec::ReedSolomon;
use deliba_net::{FrameConfig, Topology};
use deliba_sim::{InstantKind, Observer, SimDuration, SimTime, TraceLayer, Xoshiro256};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Cross-server commit-ack latency (tiny message, switch + stack).
pub(crate) const ACK_CROSS_SERVER: SimDuration = SimDuration(4_000);
/// Same-server OSD-to-OSD forward/ack latency (loopback messenger).
pub(crate) const ACK_SAME_SERVER: SimDuration = SimDuration(2_000);
/// Size of a request/ack control message on the wire.
const CONTROL_BYTES: u64 = 200;
/// Cut-through pipeline latency: the primary begins forwarding to
/// replicas while the client payload is still streaming in, so the
/// forward lags the client send by only the messenger pipeline, not a
/// full store-and-forward hop.
const CUT_THROUGH: SimDuration = SimDuration(2_000);

/// Replicated-pool rule id with OSD-level failure domains (the paper's
/// 2-server testbed cannot host 3 host-disjoint copies).
pub const RULE_REPLICATED_OSD: u32 = 10;
/// EC rule id with OSD-level failure domains.
pub const RULE_EC_OSD: u32 = 11;

/// Result of one object-level operation.
///
/// Besides the commit time, the outcome decomposes the cluster's share
/// of the I/O into three phases that telescope exactly:
/// `net_tx + osd_service + net_rx == complete - now` (the dispatch
/// time the caller passed in).  Fan-out ops (replica forwards, EC
/// shards) attribute by the *latest* arrival/finish among the
/// participating OSDs, so each phase stays non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOutcome {
    /// Commit/visible time at the client.
    pub complete: SimTime,
    /// Logical payload bytes.
    pub bytes: u64,
    /// True when the op proceeded with fewer than `width` healthy
    /// positions.
    pub degraded: bool,
    /// Client→OSD transmit span (wire + store-and-forward in).
    pub net_tx: SimDuration,
    /// OSD service span (media, replication fan-out, commit
    /// gathering).
    pub osd_service: SimDuration,
    /// OSD→client receive span for the response/ack.
    pub net_rx: SimDuration,
}

/// Shard placement record: original object length plus `(osd, shard
/// index)` pairs.
type ShardPlacement = (usize, Vec<(i32, usize)>);

/// The cluster.
pub struct Cluster {
    pub(crate) map: OsdMap,
    pub(crate) osds: Vec<Osd>,
    pub(crate) topology: Topology,
    per_server: usize,
    /// Where each replicated object's copies were written.
    pub(crate) replica_dir: BTreeMap<ObjectId, Vec<i32>>,
    /// Where each EC object's shards were written.
    pub(crate) shard_dir: BTreeMap<ObjectId, ShardPlacement>,
    /// Copies that missed one or more writes while their OSD was down
    /// (or awaiting backfill after a revive).  A `(osd, oid)` entry means
    /// that OSD's stored bytes for the object are behind the authoritative
    /// version: reads route around it and writes skip it until backfill
    /// re-copies the whole object.
    pub(crate) stale: BTreeSet<(i32, ObjectId)>,
    /// Copies known (via checksum verification, modeling BlueStore's
    /// per-extent CRCs) to hold silently corrupted bytes.  Reads route
    /// around them; deep scrub finds and repairs them.
    pub(crate) corrupted: BTreeSet<(i32, ObjectId)>,
    /// Reads that had to route around a stale or corrupt copy.
    pub(crate) bad_copy_skips: u64,
    /// Cluster-dynamics mode (set when the engine arms a recovery
    /// scheduler): partial writes additionally skip stale/missing
    /// copies, leaving them to backfill instead of layering new extents
    /// over holes.  Off by default so legacy runs keep their exact
    /// write fan-out.
    pub(crate) dynamics: bool,
    /// Recycled acting-set buffer: the data-path methods fill it via
    /// [`OsdMap::acting_set_into`] instead of allocating per I/O.
    acting_scratch: Vec<i32>,
    /// Recycled parity buffer: deep scrub re-encodes each EC object's
    /// parity here.
    pub(crate) parity_scratch: Vec<u8>,
    /// RS codecs by `(k, m)`, built on first use by [`Cluster::ec_codec`]:
    /// building one inverts a Vandermonde matrix, too much to repeat on
    /// every EC read or rebuild, and a cluster that never decodes keeps
    /// none.
    codecs: Vec<Rc<ReedSolomon>>,
    /// Flight recorder (full-depth recording marks each OSD service).
    pub(crate) trace: Observer,
}

impl Cluster {
    /// Build a cluster of `servers × per_server` OSDs with the given
    /// profile.  Pools must be added afterwards (see
    /// [`Cluster::paper_testbed`]).
    pub fn new(servers: usize, per_server: usize, profile: OsdProfile, seed: u64) -> Self {
        Self::with_frames(servers, per_server, profile, seed, FrameConfig::standard())
    }

    /// As [`Cluster::new`] but with explicit Ethernet framing (§IV-B:
    /// the design supports standard 1518 B and jumbo 9018 B frames).
    pub fn with_frames(
        servers: usize,
        per_server: usize,
        profile: OsdProfile,
        seed: u64,
        frames: FrameConfig,
    ) -> Self {
        let mut crush = MapBuilder::new().build(servers, per_server);
        // OSD-level failure-domain rules (domain type 0 = device).
        crush.add_rule(Rule {
            id: RULE_REPLICATED_OSD,
            name: "replicated-osd".into(),
            steps: vec![
                RuleStep::Take(-1),
                RuleStep::ChooseLeaf { num: 0, bucket_type: 0 },
                RuleStep::Emit,
            ],
        });
        crush.add_rule(Rule {
            id: RULE_EC_OSD,
            name: "erasure-osd".into(),
            steps: vec![
                RuleStep::Take(-1),
                RuleStep::ChooseLeaf { num: 0, bucket_type: 0 },
                RuleStep::Emit,
            ],
        });
        let mut root_rng = Xoshiro256::seed_from_u64(seed);
        let osds = (0..servers * per_server)
            .map(|id| Osd::new(id as i32, id / per_server, profile, root_rng.jump()))
            .collect();
        Cluster {
            map: OsdMap::new(crush),
            osds,
            topology: Topology::new(
                servers,
                deliba_net::link::MEASURED_GBPS,
                deliba_net::link::PROPAGATION,
                frames,
            ),
            per_server,
            replica_dir: BTreeMap::new(),
            shard_dir: BTreeMap::new(),
            stale: BTreeSet::new(),
            corrupted: BTreeSet::new(),
            bad_copy_skips: 0,
            dynamics: false,
            acting_scratch: Vec::new(),
            parity_scratch: Vec::new(),
            codecs: Vec::new(),
            trace: Observer::off(),
        }
    }

    /// Attach the run's observer, shared with the topology below
    /// (full-depth recording marks each OSD service and link departure;
    /// the lane is the OSD / destination-port id).
    pub fn set_trace(&mut self, trace: Observer) {
        self.topology.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Mark one OSD servicing an op (full depth only; no-op otherwise).
    fn trace_osd_service(&self, at: SimTime, osd: i32, bytes: u64) {
        if self.trace.full() {
            self.trace.instant_lane(
                at,
                TraceLayer::Cluster,
                osd as u32,
                InstantKind::OsdService,
                bytes,
            );
        }
    }

    /// The paper's testbed: 2 servers × 16 OSDs, pool 1 = replicated
    /// (size 3, OSD domains), pool 2 = EC (k 4, m 2, OSD domains).
    pub fn paper_testbed(seed: u64) -> Self {
        Self::paper_testbed_with_frames(seed, FrameConfig::standard())
    }

    /// The paper's testbed with explicit framing (jumbo-MTU studies).
    pub fn paper_testbed_with_frames(seed: u64, frames: FrameConfig) -> Self {
        let mut c = Cluster::with_frames(2, 16, OsdProfile::lab_ssd(), seed, frames);
        c.map.add_pool(PoolConfig::replicated(
            1,
            "rbd-replicated",
            3,
            128,
            RULE_REPLICATED_OSD,
        ));
        c.map
            .add_pool(PoolConfig::erasure(2, "rbd-ec", 4, 2, 128, RULE_EC_OSD));
        c
    }

    /// The cluster map.
    pub fn map(&self) -> &OsdMap {
        &self.map
    }

    /// Network topology (for utilization reporting).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Which server hosts an OSD.
    pub fn server_of(&self, osd: i32) -> usize {
        osd as usize / self.per_server
    }

    /// Total OSD count.
    pub fn num_osds(&self) -> usize {
        self.osds.len()
    }

    /// Inject an OSD failure.
    pub fn fail_osd(&mut self, osd: i32) {
        self.osds[osd as usize].set_up(false);
        self.map.mark_osd_down(osd);
    }

    /// Revive an OSD.  Objects that were overwritten while it was down
    /// are in the cluster's `stale` registry: reads route around them
    /// (and, in dynamics mode, writes skip them) until backfill re-copies
    /// each object, so a revived OSD can never serve bytes it missed.
    pub fn revive_osd(&mut self, osd: i32) {
        self.osds[osd as usize].set_up(true);
        self.map.mark_osd_up(osd);
    }

    /// Is an OSD currently up?
    pub fn osd_is_up(&self, osd: i32) -> bool {
        self.osds[osd as usize].is_up()
    }

    /// Reads that had to route around a stale or corrupt copy so far.
    pub fn bad_copy_skips(&self) -> u64 {
        self.bad_copy_skips
    }

    /// Copies currently registered as silently corrupted (awaiting deep
    /// scrub).
    pub fn corrupted_copies(&self) -> usize {
        self.corrupted.len()
    }

    /// Arm cluster-dynamics mode (see the `dynamics` field): the engine
    /// sets this when a recovery scheduler is configured.
    pub fn set_dynamics(&mut self, on: bool) {
        self.dynamics = on;
    }

    pub(crate) fn pool(&self, id: u32) -> &PoolConfig {
        self.map.pool(id).expect("pool exists")
    }

    /// Charge OSD `dst` a `len`-byte write arriving at `arrive` (the
    /// jitter draw, service time and thread occupancy of a copying
    /// write) and hand back its ack time with OSD `src`'s store and
    /// `dst`'s store, so the caller stores the copy by sharing `src`'s
    /// pages.  `None` when `dst` is down.
    pub(crate) fn charge_copy(
        &mut self,
        src: i32,
        dst: i32,
        arrive: SimTime,
        len: usize,
        random: bool,
    ) -> Option<(SimTime, &ObjectStore, &mut ObjectStore)> {
        let (s, d) = (src as usize, dst as usize);
        assert_ne!(s, d, "an OSD cannot copy onto itself");
        let (from, to) = if s < d {
            let (lo, hi) = self.osds.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.osds.split_at_mut(s);
            (&hi[0], &mut lo[d])
        };
        let fin = to.charge_write(arrive, len, random)?;
        Some((fin, from.store(), to.store_mut()))
    }

    /// The RS codec of EC pool `pool`, built once per `(k, m)` and
    /// shared by every later caller.
    ///
    /// # Panics
    /// Panics if `pool` is not an erasure-coded pool.
    pub fn ec_codec(&mut self, pool: u32) -> Rc<ReedSolomon> {
        let PoolKind::Erasure { k, m } = self.pool(pool).kind else {
            panic!("ec_codec on a non-EC pool");
        };
        if let Some(rs) = self.codecs.iter().find(|rs| rs.k() == k && rs.m() == m) {
            return Rc::clone(rs);
        }
        let rs = Rc::new(ReedSolomon::new(k, m));
        self.codecs.push(Rc::clone(&rs));
        rs
    }

    /// Replicated write of `data` at `offset` within the object (an RBD
    /// block write; a whole-object write is offset 0).  The client
    /// ships the data to the primary, which applies it and forwards it
    /// to the replicas in parallel; the primary acks the client once
    /// every copy has committed.  Returns `None` only when no healthy
    /// copy could be written at all.
    pub fn write_replicated_at(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        offset: usize,
        data: &[u8],
        random: bool,
    ) -> Option<IoOutcome> {
        let pool = self.pool(oid.pool);
        let PoolKind::Replicated { size } = pool.kind else {
            panic!("write_replicated_at on a non-replicated pool");
        };
        let pg = pool.pg_of(oid);
        // The acting set is filtered down to its healthy members in the
        // recycled scratch, which goes back on every return.
        let mut healthy = std::mem::take(&mut self.acting_scratch);
        self.map.acting_set_into(pg, &mut healthy);
        // In dynamics mode a stale copy (missed writes while its OSD was
        // down) cannot take a partial write — layering new extents over
        // missing ones would corrupt it silently — and neither can an
        // acting member that does not hold the object yet: both wait
        // for backfill to re-copy the whole object.
        let dynamics = self.dynamics;
        let dir = self.replica_dir.entry(oid);
        let written = dynamics && matches!(dir, Entry::Occupied(_));
        healthy.retain(|&o| {
            self.osds[o as usize].is_up()
                && (!dynamics
                    || (!self.stale.contains(&(o, oid))
                        && (!written || self.osds[o as usize].store().version(oid).is_some())))
        });
        let Some(&primary) = healthy.first() else {
            self.acting_scratch = healthy;
            return None;
        };
        // Holders that miss this partial write fall behind; unlike a
        // full replace, the copies that do receive it are *not* healed
        // of prior staleness/corruption (the write touches one extent).
        // An overwrite refills its entry in place.  Nothing below reads
        // the directory or the stale registry, so both are updated here
        // on the one directory probe.
        let holders = dir.or_default();
        for &h in holders.iter() {
            if !healthy.contains(&h) {
                self.stale.insert((h, oid));
            }
        }
        holders.clear();
        holders.extend_from_slice(&healthy);
        let p_server = self.server_of(primary);
        let at_primary = self
            .topology
            .client_to_server(now, p_server, data.len() as u64);
        let p_fin = self.osds[primary as usize]
            .write_object_at(at_primary, oid, offset, data, random)
            .expect("primary is healthy");
        self.trace_osd_service(p_fin, primary, data.len() as u64);
        let mut commit = p_fin;
        for &rep in healthy.iter().skip(1) {
            let r_server = self.server_of(rep);
            let arrive = if r_server == p_server {
                at_primary + ACK_SAME_SERVER
            } else {
                // Cut-through: the forward streams on the cluster network
                // overlapped with the client transfer.
                self.topology
                    .server_to_server(now + CUT_THROUGH, p_server, r_server, data.len() as u64)
                    .max(at_primary)
            };
            // The replica holds the primary's bytes at this extent: it
            // shares the primary's whole pages and copies only the edges.
            let (r_fin, from, to) = self
                .charge_copy(primary, rep, arrive, data.len(), random)
                .expect("replica is healthy");
            to.write_at_from(oid, offset, data, from);
            self.trace_osd_service(r_fin, rep, data.len() as u64);
            let ack = if r_server == p_server {
                r_fin + ACK_SAME_SERVER
            } else {
                r_fin + ACK_CROSS_SERVER
            };
            commit = commit.max(ack);
        }
        let done = self
            .topology
            .server_to_client(commit, p_server, CONTROL_BYTES);
        let degraded = healthy.len() < size;
        self.acting_scratch = healthy;
        Some(IoOutcome {
            complete: done,
            bytes: data.len() as u64,
            degraded,
            net_tx: at_primary.saturating_since(now),
            osd_service: commit.saturating_since(at_primary),
            net_rx: done.saturating_since(commit),
        })
    }

    /// Replicated read of `len` bytes at `offset` into `out` (resized to
    /// `len`).  Serves from the primary, falling back to any surviving
    /// copy (degraded read).  Reads of never-written extents return
    /// zeros with normal timing (RBD sparse semantics).  The engine
    /// recycles one buffer across every read this way.
    pub fn read_replicated_into(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        offset: usize,
        len: usize,
        random: bool,
        out: &mut Vec<u8>,
    ) -> Option<IoOutcome> {
        let pg = self.pool(oid.pool).pg_of(oid);
        // Candidates: current acting set first, then the write-time copy
        // holders (covers not-yet-recovered remaps).  The buffer is the
        // cluster's recycled scratch — no allocation on the steady path.
        let mut candidates = std::mem::take(&mut self.acting_scratch);
        self.map.acting_set_into(pg, &mut candidates);
        let writers = self.replica_dir.get(&oid);
        let written = writers.is_some();
        if let Some(writers) = writers {
            for &w in writers {
                if !candidates.contains(&w) {
                    candidates.push(w);
                }
            }
        }
        let mut degraded = false;
        let mut outcome = None;
        for (rank, osd) in candidates.iter().copied().enumerate() {
            if !self.osds[osd as usize].is_up() {
                degraded = true;
                continue;
            }
            if written && self.osds[osd as usize].store().version(oid).is_none() {
                // Copy not present here (remapped but not recovered).
                degraded = true;
                continue;
            }
            if self.stale.contains(&(osd, oid)) {
                // This copy missed writes while its OSD was down (a
                // revived OSD awaiting backfill must never serve the
                // bytes it missed): route to an up-to-date copy.
                self.bad_copy_skips += 1;
                degraded = true;
                continue;
            }
            if self.corrupted.contains(&(osd, oid)) {
                // Checksum verification (BlueStore's per-extent CRCs)
                // rejects the copy; deep scrub will repair it.
                self.bad_copy_skips += 1;
                degraded = true;
                continue;
            }
            // For never-written objects the primary serves zeros (RBD
            // sparse read) with ordinary media timing.
            let server = self.server_of(osd);
            let at_osd = self.topology.client_to_server(now, server, CONTROL_BYTES);
            let fin = self.osds[osd as usize]
                .read_object_at_into(at_osd, oid, offset, len, random, out)
                .expect("checked up");
            self.trace_osd_service(fin, osd, len as u64);
            let done = self.topology.server_to_client(fin, server, len as u64);
            outcome = Some(IoOutcome {
                complete: done,
                bytes: len as u64,
                degraded: written && (degraded || rank > 0),
                net_tx: at_osd.saturating_since(now),
                osd_service: fin.saturating_since(at_osd),
                net_rx: done.saturating_since(fin),
            });
            break;
        }
        self.acting_scratch = candidates;
        outcome
    }

    /// EC sparse read: the object was never written, so the client
    /// probes the acting set and zero-fills `out` to `len` bytes —
    /// charged as `k` short control round trips plus media checks,
    /// matching the ENOENT fast path.
    pub fn read_ec_sparse_into(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        len: usize,
        random: bool,
        out: &mut Vec<u8>,
    ) -> Option<IoOutcome> {
        let pool = self.pool(oid.pool);
        let PoolKind::Erasure { k, .. } = pool.kind else {
            panic!("read_ec_sparse_into on a non-EC pool");
        };
        let pg = pool.pg_of(oid);
        let mut acting = std::mem::take(&mut self.acting_scratch);
        self.map.acting_set_into(pg, &mut acting);
        let shard_len = len.div_ceil(k);
        let mut commit = now;
        let mut last_arrive = now;
        let mut last_fin = now;
        let mut fetched = 0;
        for &osd in &acting {
            if fetched >= k {
                break;
            }
            if !self.osds[osd as usize].is_up() {
                continue;
            }
            let server = self.server_of(osd);
            let at_osd = self.topology.client_to_server(now, server, CONTROL_BYTES);
            // The shard probe's payload is discarded (ENOENT fast path);
            // `out` doubles as the scratch target, then zero-fills below.
            let fin = self.osds[osd as usize]
                .read_object_at_into(at_osd, oid, 0, shard_len, random, out)
                .expect("checked up");
            self.trace_osd_service(fin, osd, shard_len as u64);
            let done = self
                .topology
                .server_to_client(fin, server, shard_len as u64);
            commit = commit.max(done);
            last_arrive = last_arrive.max(at_osd);
            last_fin = last_fin.max(fin);
            fetched += 1;
        }
        self.acting_scratch = acting;
        if fetched < k {
            return None;
        }
        last_fin = last_fin.max(last_arrive);
        out.clear();
        out.resize(len, 0);
        Some(IoOutcome {
            complete: commit,
            bytes: len as u64,
            degraded: false,
            net_tx: last_arrive.saturating_since(now),
            osd_service: last_fin.saturating_since(last_arrive),
            net_rx: commit.saturating_since(last_fin),
        })
    }

    /// Has an EC object been written (shards recorded)?
    pub fn ec_object_exists(&self, oid: ObjectId) -> bool {
        self.shard_dir.contains_key(&oid)
    }

    /// EC write: the caller (the DeLiBA client — in hardware, the RS
    /// accelerator) provides the `k + m` shards, owned or borrowed; the
    /// cluster fans them out to the acting set.  Succeeds while at least
    /// `k` shards land.  With fewer than `k` acting members up, the
    /// shards still cross the network and occupy the OSDs, but nothing
    /// is stored: the object keeps its old shards and placement, rather
    /// than mixing new shards with old ones under the old placement.
    ///
    /// # Panics
    /// Panics on a non-EC pool, or unless `shards` yields `k + m`
    /// shards.
    pub fn write_ec_shards(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        original_len: usize,
        shards: impl IntoIterator<Item = impl AsRef<[u8]>>,
        random: bool,
    ) -> Option<IoOutcome> {
        let pool = self.pool(oid.pool);
        let PoolKind::Erasure { k, m } = pool.kind else {
            panic!("write_ec_shards on a non-EC pool");
        };
        let pg = pool.pg_of(oid);
        let mut acting = std::mem::take(&mut self.acting_scratch);
        self.map.acting_set_into(pg, &mut acting);
        let landing = || {
            acting
                .iter()
                .take(k + m)
                .enumerate()
                .filter(|&(_, &osd)| self.osds[osd as usize].is_up())
                .map(|(idx, &osd)| (osd, idx))
        };
        let written = landing().count();
        let commits = written >= k;
        if commits {
            // An overwrite refills its entry's placement in place.
            let (len, placed) = self.shard_dir.entry(oid).or_default();
            *len = original_len;
            placed.clear();
            placed.reserve_exact(written);
            placed.extend(landing());
        }
        let mut commit = now;
        let mut last_arrive = now;
        let mut last_fin = now;
        let mut count = 0;
        for (idx, shard) in shards.into_iter().enumerate() {
            count += 1;
            let Some(&osd) = acting.get(idx) else {
                continue;
            };
            if !self.osds[osd as usize].is_up() {
                continue;
            }
            let shard = shard.as_ref();
            let server = self.server_of(osd);
            let arrive = self
                .topology
                .client_to_server(now, server, shard.len() as u64);
            let target = &mut self.osds[osd as usize];
            let fin = if commits {
                target.write_object(arrive, oid, shard, random)
            } else {
                target.charge_write(arrive, shard.len(), random)
            }
            .expect("checked up");
            self.trace_osd_service(fin, osd, shard.len() as u64);
            let ack = self.topology.server_to_client(fin, server, CONTROL_BYTES);
            commit = commit.max(ack);
            last_arrive = last_arrive.max(arrive);
            last_fin = last_fin.max(fin);
            if commits {
                // A full shard replace heals prior staleness/corruption.
                self.stale.remove(&(osd, oid));
                self.corrupted.remove(&(osd, oid));
            }
        }
        self.acting_scratch = acting;
        assert_eq!(count, k + m, "wrong shard count");
        if !commits {
            return None; // insufficient durability — op fails
        }
        let degraded = written < k + m;
        last_fin = last_fin.max(last_arrive);
        Some(IoOutcome {
            complete: commit,
            bytes: original_len as u64,
            degraded,
            net_tx: last_arrive.saturating_since(now),
            osd_service: last_fin.saturating_since(last_arrive),
            net_rx: commit.saturating_since(last_fin),
        })
    }

    /// EC read: gather any `k` shards and reconstruct the whole object
    /// into `out`, overwritten in place.
    pub fn read_ec_into(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        random: bool,
        out: &mut Vec<u8>,
    ) -> Option<IoOutcome> {
        let PoolKind::Erasure { k, m } = self.pool(oid.pool).kind else {
            panic!("read_ec_into on a non-EC pool");
        };
        let (original_len, placed) = self.shard_dir.get(&oid)?.clone();
        let mut slots: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut commit = now;
        let mut last_arrive = now;
        let mut last_fin = now;
        let mut fetched = 0usize;
        let mut skipped_any = false;
        for (osd, idx) in placed {
            if fetched >= k {
                break;
            }
            if !self.osds[osd as usize].is_up() {
                skipped_any = true;
                continue;
            }
            if self.corrupted.contains(&(osd, oid)) {
                // A checksum-rejected shard counts as missing; the
                // decoder reconstructs from the surviving k.
                self.bad_copy_skips += 1;
                skipped_any = true;
                continue;
            }
            let server = self.server_of(osd);
            let Some(shard_len) = self.osds[osd as usize].store().peek_len(oid) else {
                skipped_any = true;
                continue;
            };
            let at_osd = self.topology.client_to_server(now, server, CONTROL_BYTES);
            let mut data = Vec::new();
            let fin = self.osds[osd as usize]
                .read_object_at_into(at_osd, oid, 0, shard_len, random, &mut data)
                .expect("checked up");
            self.trace_osd_service(fin, osd, data.len() as u64);
            let done = self
                .topology
                .server_to_client(fin, server, data.len() as u64);
            commit = commit.max(done);
            last_arrive = last_arrive.max(at_osd);
            last_fin = last_fin.max(fin);
            slots[idx] = Some(data);
            fetched += 1;
        }
        if fetched < k {
            return None;
        }
        let rs = self.ec_codec(oid.pool);
        rs.reconstruct(&mut slots).ok()?;
        rs.join(&slots, original_len, out);
        last_fin = last_fin.max(last_arrive);
        Some(IoOutcome {
            complete: commit,
            bytes: original_len as u64,
            degraded: skipped_any,
            net_tx: last_arrive.saturating_since(now),
            osd_service: last_fin.saturating_since(last_arrive),
            net_rx: commit.saturating_since(last_fin),
        })
    }

    /// Per-OSD op counts (load-balance diagnosis).
    pub fn osd_ops(&self) -> Vec<u64> {
        self.osds.iter().map(|o| o.ops_served()).collect()
    }

    /// Per-OSD cumulative busy time — the telemetry plane differences
    /// consecutive samples of this for per-window busy fractions.
    pub fn osd_busy_times(&self) -> Vec<deliba_sim::SimDuration> {
        self.osds.iter().map(|o| o.busy_time()).collect()
    }

    /// Per-OSD service threads still occupied at `at` (instantaneous
    /// OSD queue depths).
    pub fn osd_busy_threads_at(&self, at: deliba_sim::SimTime) -> Vec<u32> {
        self.osds.iter().map(|o| o.busy_threads_at(at)).collect()
    }

    /// Corrupt one stored copy (test hook for scrub): flip its first
    /// byte, or give an empty copy one `0xFF` byte.
    pub fn corrupt_object(&mut self, osd: i32, oid: ObjectId) -> bool {
        let store = self.osds[osd as usize].store_mut();
        match store.peek_len(oid) {
            None => return false,
            Some(0) => store.write(oid, &[0xFF]),
            Some(_) => {
                let first = store.read_at(oid, 0, 1)[0];
                store.write_at(oid, 0, &[first ^ 0xFF])
            }
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{RecoveryPolicy, RecoveryScheduler};

    fn oid_rep(name: u64) -> ObjectId {
        ObjectId::new(1, name)
    }
    fn oid_ec(name: u64) -> ObjectId {
        ObjectId::new(2, name)
    }

    fn payload(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_add(tag)).collect()
    }

    #[test]
    fn replicated_write_read_integrity() {
        let mut c = Cluster::paper_testbed(1);
        let data = payload(4096, 3);
        let w = c
            .write_replicated_at(SimTime::ZERO, oid_rep(1), 0, &data, true)
            .unwrap();
        assert!(!w.degraded);
        assert!(w.complete.as_nanos() > 0);
        let mut read = Vec::new();
        let r = c
            .read_replicated_into(w.complete, oid_rep(1), 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, data);
        assert!(!r.degraded);
        assert!(r.complete > w.complete);
    }

    #[test]
    fn replication_stores_three_copies() {
        let mut c = Cluster::paper_testbed(2);
        c.write_replicated_at(SimTime::ZERO, oid_rep(5), 0, &payload(1024, 1), true)
            .unwrap();
        let holders = c.replica_dir.get(&oid_rep(5)).unwrap().clone();
        assert_eq!(holders.len(), 3);
        for osd in holders {
            assert!(c.osds[osd as usize].store().version(oid_rep(5)).is_some());
        }
    }

    #[test]
    fn write_latency_scales_with_size() {
        let mut c = Cluster::paper_testbed(3);
        let small = c
            .write_replicated_at(SimTime::ZERO, oid_rep(1), 0, &payload(4096, 0), true)
            .unwrap();
        let mut c2 = Cluster::paper_testbed(3);
        let large = c2
            .write_replicated_at(SimTime::ZERO, oid_rep(1), 0, &payload(128 * 1024, 0), true)
            .unwrap();
        assert!(large.complete > small.complete);
    }

    #[test]
    fn degraded_read_after_primary_failure() {
        let mut c = Cluster::paper_testbed(4);
        let data = payload(8192, 9);
        let w = c
            .write_replicated_at(SimTime::ZERO, oid_rep(9), 0, &data, true)
            .unwrap();
        let primary = c.replica_dir.get(&oid_rep(9)).unwrap()[0];
        c.fail_osd(primary);
        let mut read = Vec::new();
        let r = c
            .read_replicated_into(w.complete, oid_rep(9), 0, 8192, true, &mut read)
            .unwrap();
        assert_eq!(read, data, "degraded read returns correct data");
        assert!(r.degraded);
    }

    #[test]
    fn degraded_write_with_failed_replica() {
        let mut c = Cluster::paper_testbed(5);
        // Fail one replica of the target PG before writing.
        let pool = c.map.pool(1).unwrap().clone();
        let acting = c.map.acting_set(pool.pg_of(oid_rep(77)));
        c.osds[acting[1] as usize].set_up(false); // daemon dead, map not yet updated
        let w = c
            .write_replicated_at(SimTime::ZERO, oid_rep(77), 0, &payload(4096, 2), true)
            .unwrap();
        assert!(w.degraded, "write proceeded with 2/3 copies");
        let mut read = Vec::new();
        c.read_replicated_into(w.complete, oid_rep(77), 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, payload(4096, 2));
    }

    #[test]
    fn outcome_phases_telescope_to_completion() {
        // net_tx + osd_service + net_rx must equal the cluster's whole
        // share of the I/O for every dispatch path, including fan-out.
        let check = |label: &str, start: SimTime, o: &IoOutcome| {
            assert_eq!(
                o.net_tx + o.osd_service + o.net_rx,
                o.complete.saturating_since(start),
                "{label}: phases must telescope"
            );
            assert!(o.osd_service > SimDuration::ZERO, "{label}: media time");
        };

        let mut c = Cluster::paper_testbed(11);
        let data = payload(8192, 6);
        let mut buf = Vec::new();
        let w = c
            .write_replicated_at(SimTime::ZERO, oid_rep(21), 0, &data, true)
            .unwrap();
        check("write_replicated_at", SimTime::ZERO, &w);
        let r = c
            .read_replicated_into(w.complete, oid_rep(21), 0, 8192, true, &mut buf)
            .unwrap();
        check("read_replicated_into", w.complete, &r);
        let pw = c
            .write_replicated_at(r.complete, oid_rep(21), 1024, &data[..2048], true)
            .unwrap();
        check("partial write_replicated_at", r.complete, &pw);

        let shards = ReedSolomon::new(4, 2).encode(&data);
        let ew = c
            .write_ec_shards(pw.complete, oid_ec(21), data.len(), shards, true)
            .unwrap();
        check("write_ec_shards", pw.complete, &ew);
        let er = c
            .read_ec_into(ew.complete, oid_ec(21), true, &mut buf)
            .unwrap();
        check("read_ec_into", ew.complete, &er);
        let es = c
            .read_ec_sparse_into(er.complete, oid_ec(99), 8192, true, &mut buf)
            .unwrap();
        check("read_ec_sparse_into", er.complete, &es);
        assert_eq!(buf, vec![0; 8192], "a sparse EC read zero-fills");
    }

    #[test]
    fn ec_write_read_round_trip() {
        let mut c = Cluster::paper_testbed(6);
        let data = payload(16 * 1024, 4);
        let rs = ReedSolomon::new(4, 2);
        let shards = rs.encode(&data);
        let w = c
            .write_ec_shards(SimTime::ZERO, oid_ec(1), data.len(), shards, true)
            .unwrap();
        assert!(!w.degraded);
        let mut read = Vec::with_capacity(data.len());
        let buf = read.as_ptr();
        let r = c
            .read_ec_into(w.complete, oid_ec(1), true, &mut read)
            .unwrap();
        assert_eq!(read, data);
        assert_eq!(read.as_ptr(), buf, "the caller's buffer is filled in place");
        assert!(!r.degraded);
    }

    #[test]
    fn ec_survives_two_failures() {
        let mut c = Cluster::paper_testbed(7);
        let data = payload(16 * 1024, 5);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let w = c
            .write_ec_shards(SimTime::ZERO, oid_ec(2), data.len(), shards, true)
            .unwrap();
        let placed = c.shard_dir.get(&oid_ec(2)).unwrap().1.clone();
        // Kill two shard holders.
        c.fail_osd(placed[0].0);
        c.fail_osd(placed[3].0);
        let mut read = Vec::new();
        let r = c
            .read_ec_into(w.complete, oid_ec(2), true, &mut read)
            .unwrap();
        assert_eq!(read, data, "reconstruction recovers the object");
        assert!(r.degraded);
        // A third failure makes it unreadable.
        c.fail_osd(placed[1].0);
        assert!(c
            .read_ec_into(w.complete, oid_ec(2), true, &mut read)
            .is_none());
    }

    #[test]
    fn ec_write_fails_below_k() {
        let mut c = Cluster::paper_testbed(8);
        let data = payload(4096, 1);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let pool = c.map.pool(2).unwrap().clone();
        let acting = c.map.acting_set(pool.pg_of(oid_ec(3)));
        for &osd in acting.iter().take(3) {
            c.osds[osd as usize].set_up(false);
        }
        assert!(c
            .write_ec_shards(SimTime::ZERO, oid_ec(3), data.len(), shards, true)
            .is_none());
    }

    #[test]
    fn failed_ec_overwrite_leaves_the_old_object_readable() {
        let mut c = Cluster::paper_testbed(8);
        let rs = ReedSolomon::new(4, 2);
        let (v1, v2) = (payload(16 * 1024, 1), payload(16 * 1024, 2));
        let w = c
            .write_ec_shards(SimTime::ZERO, oid_ec(9), v1.len(), rs.encode(&v1), true)
            .unwrap();
        let placed = c.shard_dir[&oid_ec(9)].clone();
        let acting = c.map.acting_set(c.pool(2).pg_of(oid_ec(9)));
        // Three of six shard holders go down: v2 cannot reach k = 4.
        for &osd in &acting[3..] {
            c.osds[osd as usize].set_up(false);
        }
        let busy = c.osd_busy_times();
        assert!(c
            .write_ec_shards(w.complete, oid_ec(9), v2.len(), rs.encode(&v2), true)
            .is_none());
        // The failed write still crossed the wire and occupied the up
        // holders, but stored nothing and kept the old placement.
        for &osd in &acting[..3] {
            assert!(c.osd_busy_times()[osd as usize] > busy[osd as usize]);
        }
        assert_eq!(c.shard_dir[&oid_ec(9)], placed);
        for &osd in &acting[3..] {
            c.osds[osd as usize].set_up(true);
        }
        let mut read = Vec::new();
        c.read_ec_into(w.complete, oid_ec(9), true, &mut read)
            .unwrap();
        assert!(read == v1, "a failed overwrite must not tear the object");
    }

    #[test]
    fn ec_moves_less_client_data_than_replication() {
        // Replication ships 1× data client→cluster plus 2× server-side;
        // EC ships 1.5× client→cluster.  Check the client TX accounting.
        let data_len = 64 * 1024;
        let mut rep = Cluster::paper_testbed(9);
        rep.write_replicated_at(SimTime::ZERO, oid_rep(1), 0, &payload(data_len, 0), false)
            .unwrap();
        let mut ec = Cluster::paper_testbed(9);
        let shards = ReedSolomon::new(4, 2).encode(&payload(data_len, 0));
        ec.write_ec_shards(SimTime::ZERO, oid_ec(1), data_len, shards, false)
            .unwrap();
        // EC client traffic ≈ 1.5×, replication ≈ 1× — EC write moves
        // *more* through the client port.
        // (Informational shape check via completion times is too noisy;
        // assert on the directory contents instead.)
        assert_eq!(ec.shard_dir.get(&oid_ec(1)).unwrap().1.len(), 6);
        assert_eq!(rep.replica_dir.get(&oid_rep(1)).unwrap().len(), 3);
    }

    /// A scheduler whose scrub chunk covers every test object in one
    /// tick, so each `scrub_tick` is one full deep-scrub pass.
    fn full_pass_scrubber() -> RecoveryScheduler {
        RecoveryScheduler::new(
            RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64),
        )
    }

    /// Backfill until a rescan finds no work; returns the last commit.
    fn backfill_all(c: &mut Cluster, now: SimTime) -> SimTime {
        let mut sched = RecoveryScheduler::new(RecoveryPolicy::default());
        let mut t = now;
        while c.recovery_scan(&mut sched, t) {
            t = t.max(c.backfill_wave(&mut sched, t).expect("a wave dispatches"));
        }
        t
    }

    #[test]
    fn scrub_clean_and_corrupted() {
        // `corrupt_object` flips bytes without a corruption-registry
        // entry, so the scrub must find the damage by byte compare and
        // repair it by majority vote.
        let mut c = Cluster::paper_testbed(10);
        let mut t = SimTime::ZERO;
        for i in 0..10 {
            t = c
                .write_replicated_at(t, oid_rep(i), 0, &payload(2048, i as u8), true)
                .unwrap()
                .complete;
        }
        let mut sched = full_pass_scrubber();
        let clean = c.scrub_tick(&mut sched, t);
        assert!(clean.wrapped);
        assert_eq!(clean.objects, 10);
        assert_eq!(clean.detected, 0);

        let victim_holders = c.replica_dir.get(&oid_rep(4)).unwrap().clone();
        assert!(c.corrupt_object(victim_holders[1], oid_rep(4)));
        assert_eq!(c.corrupted_copies(), 0, "the flip is untracked");
        let dirty = c.scrub_tick(&mut sched, clean.finish);
        assert_eq!(dirty.detected, 1);
        assert_eq!(dirty.repaired, 1);
        assert!(dirty.finish > clean.finish, "repair writes charge time");
        assert_eq!(c.scrub_tick(&mut sched, dirty.finish).detected, 0, "clean after repair");

        // The rewritten copy holds the original bytes again.
        let mut data = Vec::new();
        for i in 0..10 {
            let r = c
                .read_replicated_into(dirty.finish, oid_rep(i), 0, 2048, true, &mut data)
                .unwrap();
            assert_eq!(data, payload(2048, i as u8), "object {i}");
            assert!(!r.degraded);
        }
        let stored = c.osds[victim_holders[1] as usize].store_mut().read(oid_rep(4)).unwrap();
        assert_eq!(&stored[..], &payload(2048, 4)[..], "flipped replica rewritten");
    }

    #[test]
    fn scrub_ec_parity() {
        // An untracked flip of an RS(4,2) parity shard is found by
        // re-encoding the data shards and repaired in place.
        let mut c = Cluster::paper_testbed(11);
        let data = payload(8192, 7);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let t = c
            .write_ec_shards(SimTime::ZERO, oid_ec(5), data.len(), shards, true)
            .unwrap()
            .complete;
        let mut sched = full_pass_scrubber();
        let clean = c.scrub_tick(&mut sched, t);
        assert!(clean.wrapped);
        assert_eq!(clean.detected, 0);

        let placed = c.shard_dir.get(&oid_ec(5)).unwrap().1.clone();
        let (parity_holder, parity_idx) = *placed.iter().find(|&&(_, idx)| idx >= 4).unwrap();
        assert!(c.corrupt_object(parity_holder, oid_ec(5)));
        assert_eq!(c.corrupted_copies(), 0, "the flip is untracked");
        let dirty = c.scrub_tick(&mut sched, clean.finish);
        assert_eq!(dirty.detected, 1);
        assert_eq!(dirty.repaired, 1);
        assert_eq!(c.scrub_tick(&mut sched, dirty.finish).detected, 0, "clean after repair");

        let stored = c.osds[parity_holder as usize].store_mut().read(oid_ec(5)).unwrap();
        let expected = ReedSolomon::new(4, 2).encode(&data)[parity_idx].clone();
        assert_eq!(&stored[..], &expected[..], "parity rewritten to the re-encoded bytes");
        let mut read = Vec::new();
        let r = c
            .read_ec_into(dirty.finish, oid_ec(5), true, &mut read)
            .unwrap();
        assert_eq!(read, data);
        assert!(!r.degraded);
    }

    #[test]
    fn revived_osd_does_not_serve_stale_bytes() {
        // Regression: an OSD that missed writes while down must not
        // serve its stale copy after revival — reads route to an
        // up-to-date copy until backfill heals it.
        let mut c = Cluster::paper_testbed(21);
        let oid = oid_rep(55);
        c.write_replicated_at(SimTime::ZERO, oid, 0, &payload(4096, 1), true)
            .unwrap();
        let primary = c.replica_dir.get(&oid).unwrap()[0];
        c.fail_osd(primary);
        let w = c
            .write_replicated_at(SimTime::from_nanos(1000), oid, 0, &payload(4096, 2), true)
            .unwrap();
        c.revive_osd(primary);
        assert!(c.stale.contains(&(primary, oid)), "missed write marks the copy stale");
        let mut read = Vec::new();
        let r = c
            .read_replicated_into(w.complete, oid, 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, payload(4096, 2), "stale copy must not be served");
        assert!(r.degraded, "routing around a stale copy is a degraded read");
        assert!(c.bad_copy_skips() > 0);
        // Backfill re-copies the whole object: no longer stale, and the
        // primary serves the current bytes again.
        let healed = backfill_all(&mut c, w.complete);
        assert!(!c.stale.contains(&(primary, oid)));
        let r2 = c
            .read_replicated_into(healed, oid, 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, payload(4096, 2));
        assert!(!r2.degraded);
    }

    #[test]
    fn dynamics_writes_skip_stale_and_missing_copies_until_backfill() {
        // The engine arms dynamics mode with a recovery scheduler: partial
        // writes then leave stale copies and acting members without the
        // object to backfill instead of layering extents over holes.
        let mut c = Cluster::paper_testbed(23);
        c.set_dynamics(true);
        let oid = oid_rep(56);
        let pg = c.map.pool(1).unwrap().pg_of(oid);
        let w0 = c
            .write_replicated_at(SimTime::ZERO, oid, 0, &payload(4096, 1), true)
            .unwrap();
        let holders = c.replica_dir[&oid].clone();
        assert_eq!(holders.len(), 3);
        let primary = holders[0];

        // While the primary is down its stand-in joins the acting set
        // without the object: the write skips it.
        c.fail_osd(primary);
        let stand_in = *c
            .map
            .acting_set(pg)
            .iter()
            .find(|o| !holders.contains(o))
            .expect("the map remaps the down OSD's position");
        let w1 = c
            .write_replicated_at(w0.complete, oid, 0, &payload(4096, 2), true)
            .unwrap();
        assert!(w1.degraded);
        assert!(c.osds[stand_in as usize].store().version(oid).is_none());
        assert_eq!(c.replica_dir[&oid], holders[1..]);

        // Revived, the copy that missed the write is stale, and the next
        // partial write skips it too.
        c.revive_osd(primary);
        assert_eq!(c.map.acting_set(pg), holders);
        assert!(c.stale.contains(&(primary, oid)));
        let w2 = c
            .write_replicated_at(w1.complete, oid, 1024, &payload(512, 3), true)
            .unwrap();
        assert!(w2.degraded);
        assert_eq!(c.replica_dir[&oid], holders[1..]);
        let old = c.osds[primary as usize].store().read(oid).unwrap();
        assert_eq!(
            &old[..],
            &payload(4096, 1)[..],
            "the stale copy took no extent"
        );

        // A read routes around the stale primary to the new bytes.
        let mut want = payload(4096, 2);
        want[1024..1536].copy_from_slice(&payload(512, 3));
        let mut read = Vec::new();
        let r = c
            .read_replicated_into(w2.complete, oid, 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, want);
        assert!(r.degraded);
        assert_eq!(c.bad_copy_skips(), 1);

        // Backfill clears the stale mark; the next partial write reaches
        // all three holders.
        let healed = backfill_all(&mut c, r.complete);
        assert!(!c.stale.contains(&(primary, oid)));
        let w3 = c
            .write_replicated_at(healed, oid, 0, &payload(256, 4), true)
            .unwrap();
        assert!(!w3.degraded);
        assert_eq!(c.replica_dir[&oid], holders);
        want[..256].copy_from_slice(&payload(256, 4));
        for &h in &holders {
            let stored = c.osds[h as usize].store().read(oid).unwrap();
            assert_eq!(&stored[..], &want[..], "OSD {h}");
        }
    }

    #[test]
    fn corrupt_registered_copy_is_skipped_on_read() {
        let mut c = Cluster::paper_testbed(22);
        let oid = oid_rep(8);
        let data = payload(4096, 9);
        let w = c
            .write_replicated_at(SimTime::ZERO, oid, 0, &data, true)
            .unwrap();
        let primary = c.replica_dir.get(&oid).unwrap()[0];
        assert!(c.corrupt_object(primary, oid));
        c.corrupted.insert((primary, oid));
        let mut read = Vec::new();
        let r = c
            .read_replicated_into(w.complete, oid, 0, 4096, true, &mut read)
            .unwrap();
        assert_eq!(read, data, "checksum-rejected copy must not be served");
        assert!(r.degraded);

        // EC: a corrupt shard counts as missing; reconstruction from the
        // surviving shards still returns the exact bytes.
        let eid = oid_ec(8);
        let shards = ReedSolomon::new(4, 2).encode(&data);
        let ew = c
            .write_ec_shards(w.complete, eid, data.len(), shards, true)
            .unwrap();
        let (osd0, _) = c.shard_dir.get(&eid).unwrap().1[0];
        assert!(c.corrupt_object(osd0, eid));
        c.corrupted.insert((osd0, eid));
        let er = c.read_ec_into(ew.complete, eid, true, &mut read).unwrap();
        assert_eq!(read, data);
        assert!(er.degraded);
    }

    #[test]
    fn concurrent_writes_queue_on_network() {
        let mut c = Cluster::paper_testbed(12);
        let data = payload(128 * 1024, 0);
        let mut completions = Vec::new();
        for i in 0..16 {
            let w = c
                .write_replicated_at(SimTime::ZERO, oid_rep(100 + i), 0, &data, false)
                .unwrap();
            completions.push(w.complete);
        }
        // Later submissions finish later: client port serialization.
        assert!(completions.windows(2).any(|w| w[1] > w[0]));
        let span = completions.iter().max().unwrap().as_nanos()
            - completions.iter().min().unwrap().as_nanos();
        assert!(span > 100_000, "16×128 KiB must spread out on a 10G port");
    }

    #[test]
    fn ec_codec_is_built_once_and_matches_a_fresh_one() {
        let mut c = Cluster::paper_testbed(13);
        let rs = c.ec_codec(2);
        assert!(Rc::ptr_eq(&rs, &c.ec_codec(2)), "second call reuses the codec");
        assert_eq!((rs.k(), rs.m()), (4, 2));
        let data = payload(5000, 9);
        assert_eq!(rs.encode(&data), ReedSolomon::new(4, 2).encode(&data));
    }
}
