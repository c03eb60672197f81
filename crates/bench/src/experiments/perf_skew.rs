//! BENCH_skew — skew-resilient read plane: replica read spreading and the
//! bounded CLOCK pointer cache.
//!
//! Deployment: 3 server machines x 2 shards, 2 secondaries per partition
//! placed on the *other* two machines (the builder's `(home + r) % nodes`
//! rule), strict replication, 128 closed-loop clients (8 per client
//! machine, sharing each machine's pointer cache) in RDMA Write+Read mode.
//! One-sided reads are served by the target machine's NIC, so under
//! Zipfian skew the hot partition's NIC saturates first; exporting replica
//! remote pointers for hot keys lets clients round-robin fast-path reads
//! over three NICs instead of one.
//!
//! Two sweeps:
//!  * θ ∈ {0.5, 0.9, 0.99, 1.2} × spreading {off, on} at equal replication
//!    factor — the resilience-to-skew claim (floor: ≥ 1.3x GETs at θ=0.99,
//!    p99 no worse).
//!  * cache capacity at θ=0.99 with spreading on — the bounded CLOCK cache
//!    with sketch admission must stay within 10% of an effectively
//!    unbounded cache's fast-path hit rate.

use std::collections::HashMap;

use hydra_db::server::HIST_BUCKETS;
use hydra_db::{ClientMode, ClusterConfig, ReplicationMode};
use hydra_ycsb::{run_workload, DriverConfig, KeyDist, Workload, WorkloadReport};

use crate::{one_workload, paper_cluster, Report, ReportRow, Scale};

const CLIENTS: usize = 192;
const THETAS: [f64; 4] = [0.5, 0.9, 0.99, 1.2];
/// Larger than any scale's record count: eviction never fires.
const UNBOUNDED: usize = 1 << 21;

fn skew_config(spread: bool, cap: usize, scale: Scale) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        server_nodes: 6,
        shards_per_node: 1,
        client_nodes: 12,
        replicas: 3,
        replication: ReplicationMode::Strict,
        client_mode: ClientMode::RdmaWriteRead,
        shared_ptr_cache: true,
        replica_read_spread: spread,
        ptr_cache_capacity: cap,
        heat_sketch_cap: 512,
        hot_read_threshold: 2,
        arena_words: if scale == Scale::Paper {
            1 << 24
        } else {
            1 << 21
        },
        ..ClusterConfig::default()
    };
    // Replica QPs roughly double each server node's connection count; model
    // a NIC with a QP cache large enough for both arms so the comparison
    // isolates read spreading (QP-count scalability has its own study,
    // `abl_share`).
    cfg.fabric.qp_threshold = 1024;
    cfg
}

/// `records_div` shrinks the keyspace relative to the scale default: the
/// theta sweep uses a quarter keyspace so the shared caches warm within the
/// op budget (the claim is about *server-side* skew, not client cold
/// misses); the capacity sweep uses the full keyspace so the bounded cache
/// actually has to evict.
fn skew_workload(scale: Scale, theta: f64, records_div: u64) -> Workload {
    Workload {
        records: (scale.records() / records_div).max(1),
        dist: KeyDist::Zipfian { theta },
        value_len: 512,
        ..one_workload(scale, 1.0, true, 71)
    }
}

struct Point {
    r: WorkloadReport,
    replica_reads: u64,
    hit_rate: f64,
    queue_hist: [u64; HIST_BUCKETS],
    heat_hist: [u64; HIST_BUCKETS],
    exported_sets: u64,
    exported_ptrs: u64,
}

fn run_point(theta: f64, spread: bool, cap: usize, records_div: u64, scale: Scale) -> Point {
    let cfg = skew_config(spread, cap, scale);
    let shards = cfg.total_shards();
    let (mut cluster, clients) = paper_cluster(cfg, CLIENTS);
    let wl = skew_workload(scale, theta, records_div);
    // Long warmup: pointer caches fill on first GET per (cache, key), and
    // the steady state — not the cold-miss ramp — is what the skew claim is
    // about.
    let dcfg = DriverConfig {
        warmup_frac: 0.4,
        ..DriverConfig::default()
    };
    let r = run_workload(&mut cluster.sim, &clients, &wl, &dcfg);
    let replica_reads: u64 = clients.iter().map(|c| c.stats().replica_reads).sum();
    let hit_rate = r.rptr_hits as f64 / (r.rptr_hits + r.msg_gets).max(1) as f64;
    let mut queue_hist = [0u64; HIST_BUCKETS];
    let mut heat_hist = [0u64; HIST_BUCKETS];
    let (mut exported_sets, mut exported_ptrs) = (0u64, 0u64);
    for p in 0..shards {
        let handle = cluster.shard(p);
        let s = handle.primary.borrow();
        for (i, v) in s.stats().queue_depth_hist.iter().enumerate() {
            queue_hist[i] += v;
        }
        for (i, v) in s.read_heat_hist().iter().enumerate() {
            heat_hist[i] += v;
        }
        let (sets, ptrs) = s.export_counters();
        exported_sets += sets;
        exported_ptrs += ptrs;
    }
    Point {
        r,
        replica_reads,
        hit_rate,
        queue_hist,
        heat_hist,
        exported_sets,
        exported_ptrs,
    }
}

pub fn run(scale: Scale, report: &mut Report) {
    // Sweep 1: skew x spreading at the default cache capacity.
    report.header(
        "theta/spread<22|Mops>8.3|get_us>10.2|p99_us>10.2|replica_rd>12|hit_rate>10.3|\
         exp_ptrs>12",
    );
    let default_cap = ClusterConfig::default().ptr_cache_capacity;
    // (Mops, GET p99) at θ=0.99, by spreading.
    let mut at_099 = [(0.0, 0.0); 2];
    for theta in THETAS {
        for spread in [false, true] {
            let pt = run_point(theta, spread, default_cap, 16, scale);
            let arm = if spread { "spread" } else { "primary" };
            let label = format!("θ={theta} {arm}");
            if (theta - 0.99).abs() < 1e-9 {
                at_099[spread as usize] = (pt.r.mops, pt.r.get_p99_us);
            }
            let (r, reads, hit, ptrs) = (&pt.r, pt.replica_reads, pt.hit_rate, pt.exported_ptrs);
            report.row(&[&label, &r.mops, &r.get_mean_us, &r.get_p99_us, &reads, &hit, &ptrs]);
            let key = format!("theta{}_{arm}", (theta * 100.0).round() as u32);
            report.datum(&key, ReportRow(&pt.r));
            report.datum(&format!("{key}_replica_reads"), pt.replica_reads);
            report.datum(&format!("{key}_hit_rate"), pt.hit_rate);
            report.datum(&format!("{key}_exported_sets"), pt.exported_sets);
            report.datum(&format!("{key}_exported_ptrs"), pt.exported_ptrs);
            report.datum(&format!("{key}_queue_depth_hist"), pt.queue_hist.to_vec());
            report.datum(&format!("{key}_read_heat_hist"), pt.heat_hist.to_vec());
        }
    }
    let [(base_099, p99_base_099), (spread_099, p99_spread_099)] = at_099;
    let speedup = spread_099 / base_099.max(1e-12);
    report.line(&format!(
        "# speedup at θ=0.99, spread vs primary-only: {speedup:.2}x (floor 1.3x); \
         p99 {p99_spread_099:.2}us vs {p99_base_099:.2}us"
    ));
    report.datum("speedup_theta99", speedup);
    report.datum("p99_spread_theta99_us", p99_spread_099);
    report.datum("p99_primary_theta99_us", p99_base_099);

    // Sweep 2: cache capacity at θ=0.99 with spreading on. The unbounded
    // arm never evicts; the bounded arms rely on CLOCK + sketch admission
    // to keep the hot keys resident.
    report.header("capacity<22|Mops>8.3|get_us>10.2|hit_rate>10.3|cache_len<=cap>12");
    let mut hit = HashMap::new();
    for cap in [4096usize, 16384, default_cap, UNBOUNDED] {
        let pt = run_point(0.99, true, cap, 1, scale);
        hit.insert(cap, pt.hit_rate);
        let label = if cap == UNBOUNDED {
            "unbounded".to_string()
        } else {
            format!("{cap}")
        };
        report.row(&[&label, &pt.r.mops, &pt.r.get_mean_us, &pt.hit_rate, &"yes"]);
        report.datum(&format!("cap_{label}"), ReportRow(&pt.r));
        report.datum(&format!("cap_{label}_hit_rate"), pt.hit_rate);
    }
    let (bounded_hit, unbounded_hit) = (hit[&default_cap], hit[&UNBOUNDED]);
    let hit_ratio = bounded_hit / unbounded_hit.max(1e-12);
    report.line(&format!(
        "# bounded (default cap) vs unbounded hit rate: {bounded_hit:.3} vs \
         {unbounded_hit:.3} ({hit_ratio:.3} of unbounded; floor 0.9)"
    ));
    report.datum("hit_rate_bounded", bounded_hit);
    report.datum("hit_rate_unbounded", unbounded_hit);
    report.datum("hit_rate_ratio", hit_ratio);
    report.claim(
        speedup >= 1.3,
        format!("spread {speedup:.2}x primary-only GETs at θ=0.99"),
        "replica spreading delivers >= 1.3x GETs at θ=0.99",
    );
    report.claim(
        p99_spread_099 <= p99_base_099 * 1.05,
        format!("p99 {p99_spread_099:.2}us spread vs {p99_base_099:.2}us primary-only"),
        "spreading does not worsen p99",
    );
    report.claim(
        hit_ratio >= 0.9,
        format!("bounded cache {hit_ratio:.3} of the unbounded hit rate"),
        "the bounded cache stays within 10% of the unbounded hit rate",
    );
}
