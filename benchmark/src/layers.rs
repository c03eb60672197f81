//! Per-layer counters, read from each layer's public statistics at the
//! boundaries of the traffic window. A layer is a crate.

use hydra_db::server::HIST_BUCKETS;
use hydra_db::Cluster;

/// Rows of `ServerStats::service_time_hist_by_op` (see `server::op_slot`)
/// the benchmark reports: GET, UPDATE, SCAN.
const SOJOURN_SLOTS: [usize; 3] = [0, 2, 5];

type Hist = [u64; HIST_BUCKETS];

/// Declares [`Counters`]: plain counters that only ever grow, plus log2
/// histograms, with field-wise `since`.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Counters summed over the cluster. Two snapshots subtract to what
        /// the window did. (A fail-over swaps a primary for a promoted
        /// secondary with younger counters, hence the saturating
        /// subtraction.)
        #[derive(Debug, Clone, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
            /// Shard-core queue depth at request arrival.
            pub queue_depth: Hist,
            /// Server sojourn time (ns) of GETs, UPDATEs and SCANs.
            pub sojourn: [Hist; 3],
        }

        impl Counters {
            /// What happened between `before` and `self`.
            pub fn since(&self, before: &Counters) -> Counters {
                let sub = |a: &Hist, b: &Hist| -> Hist {
                    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
                };
                Counters {
                    $($field: self.$field.saturating_sub(before.$field),)*
                    queue_depth: sub(&self.queue_depth, &before.queue_depth),
                    sojourn: std::array::from_fn(|k| sub(&self.sojourn[k], &before.sojourn[k])),
                }
            }
        }
    };
}

counters! {
    /// `Sim::executed_events`.
    events,
    // `Fabric::stats`.
    writes, reads, sends, bytes, doorbells,
    // `Fabric::node_stats`, summed over every machine's NIC.
    qp_cache_hits, qp_cache_misses, mtt_cache_hits, mtt_cache_misses, nic_miss_ns,
    // `ShardServer::stats`, summed over the current primaries.
    requests, server_gets, server_writes, server_scans, batches, batched_requests,
    scan_chunks, scan_preemptions, dropped_while_dead,
    // `ShardEngine::{stats, table_stats, arena_stats}` of the primaries.
    engine_gets, engine_get_hits, engine_writes, engine_scans, scan_items,
    lookups, buckets_probed, arena_allocs,
    /// Replication records shipped, acknowledgements received and
    /// held-response releases, rebuilt from `Cluster::report`.
    repl_records,
    repl_acks,
    repl_releases,
}

fn add(into: &mut Hist, from: &Hist) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl Counters {
    /// Reads every counter now.
    pub fn read(cluster: &Cluster) -> Counters {
        let fabric = cluster.fab.stats();
        let mut c = Counters {
            events: cluster.sim.executed_events(),
            writes: fabric.writes,
            reads: fabric.reads,
            sends: fabric.sends,
            bytes: fabric.bytes,
            doorbells: fabric.doorbells,
            ..Counters::default()
        };
        for &node in cluster.server_nodes.iter().chain(&cluster.client_nodes) {
            let n = cluster.fab.node_stats(node);
            c.qp_cache_hits += n.qp_cache_hits;
            c.qp_cache_misses += n.qp_cache_misses;
            c.mtt_cache_hits += n.mtt_cache_hits;
            c.mtt_cache_misses += n.mtt_cache_misses;
            c.nic_miss_ns += n.miss_penalty_ns;
        }
        for (p, row) in cluster.report().rows.iter().enumerate() {
            let shard = cluster.shard(p as u32);
            let server = shard.primary.borrow();
            let s = server.stats();
            c.requests += s.requests;
            c.server_gets += s.gets;
            c.server_writes += s.inserts + s.updates;
            c.server_scans += s.scans;
            c.batches += s.batches;
            c.batched_requests += s.batched_requests;
            c.scan_chunks += s.scan_chunks;
            c.scan_preemptions += s.scan_preemptions;
            c.dropped_while_dead += s.dropped_while_dead;
            add(&mut c.queue_depth, &s.queue_depth_hist);
            for (k, slot) in SOJOURN_SLOTS.into_iter().enumerate() {
                add(&mut c.sojourn[k], &s.service_time_hist_by_op[slot]);
            }
            let engine = server.engine.borrow();
            let e = engine.stats();
            c.engine_gets += e.gets;
            c.engine_get_hits += e.get_hits;
            c.engine_writes += e.inserts + e.updates;
            c.engine_scans += e.scans;
            c.scan_items += e.scan_items;
            let t = engine.table_stats();
            c.lookups += t.lookups;
            c.buckets_probed += t.buckets_probed;
            c.arena_allocs += engine.arena_stats().allocs;
            // One record per write per secondary; the report gives the
            // acknowledgement count only as a ratio to it.
            let records = (e.inserts + e.updates + e.deletes) * row.secondaries as u64;
            c.repl_records += records;
            c.repl_acks += (row.repl_acks_per_record * records as f64).round() as u64;
            c.repl_releases += row.repl_release_hist.iter().sum::<u64>();
        }
        c
    }
}

/// Levels (not counters) read once, when the window closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Levels {
    pub cpu_util_max: f64,
    pub cpu_util_mean: f64,
    pub arena_occupancy_max: f64,
    pub reclaim_pending_peak: f64,
    pub repl_lag_max: f64,
}

impl Levels {
    /// Reads the levels now. CPU utilization covers the time since
    /// [`reset_cpu_windows`].
    pub fn read(cluster: &Cluster) -> Levels {
        let now = cluster.sim.now();
        let mut l = Levels::default();
        let mut alive = 0.0;
        for (p, row) in cluster.report().rows.iter().enumerate() {
            let shard = cluster.shard(p as u32);
            let server = shard.primary.borrow();
            if server.alive {
                let util = server.cpu_utilization(now);
                l.cpu_util_max = l.cpu_util_max.max(util);
                l.cpu_util_mean += util;
                alive += 1.0;
            }
            l.arena_occupancy_max = l.arena_occupancy_max.max(row.arena_occupancy);
            let peak = server.engine.borrow().reclaim_peak().0 as f64;
            l.reclaim_pending_peak = l.reclaim_pending_peak.max(peak);
            l.repl_lag_max = l.repl_lag_max.max(row.repl_lag_max as f64);
        }
        l.cpu_util_mean /= f64::max(alive, 1.0);
        l
    }
}

/// Restarts every primary's CPU accounting (called when the window opens).
pub fn reset_cpu_windows(cluster: &Cluster) {
    let now = cluster.sim.now();
    for p in 0..cluster.cfg.total_shards() {
        cluster.shard(p).primary.borrow_mut().reset_cpu_window(now);
    }
}
