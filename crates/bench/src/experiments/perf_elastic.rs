//! Elastic membership: live node-join rebalance under YCSB traffic.
//!
//! One steady-state baseline plus a sweep of elastic runs. Each elastic run
//! replays the same zipfian read-heavy workload and, once 20% of the
//! measured ops have completed, fires a scripted `JoinNode` chaos event: a
//! new machine comes online with two fresh partitions and the migration
//! subsystem streams the moving ranges toward it in bounded quanta while
//! the clients keep going. A virtual-time probe watches the plan and
//! snapshots the GET histogram the moment it settles, so the reported
//! mid-migration window covers the whole plan: copy, flip and the old
//! owners' drain. The clients replay their streams until that moment, so
//! the window has traffic throughout. The sweep varies
//! `migration_quantum_items` (the migration rate) to show the
//! rebalance-time / throughput-dip trade-off.
//!
//! Claims (the study's floors, at the default quantum):
//! * mid-migration point-GET p99 stays within **3x** of steady state — the
//!   copy plane rides the throughput lane, not the latency lane;
//! * zero keys lost, duplicated, or misplaced after the flip, and the old
//!   owners shed their moved ranges completely.
//!
//! A final quiesced drain of one original machine (the inverse
//! reconfiguration) is timed for the JSON artifact as well.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::chaos::FaultEvent;
use hydra_db::{ClientMode, ClusterConfig, HydraClient, MigrationEngine};
use hydra_sim::time::{as_secs, as_us};
use hydra_sim::{Histogram, Sim};
use hydra_ycsb::{run_workload, run_workload_hooked, DriverConfig, KvClient, OpHook, Workload};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, Scale};

const CLIENTS: usize = 16;
const JOIN_SHARDS: u32 = 2;

fn elastic_cfg(quantum: u32, seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        // Message-path GETs: every point op crosses the shard core, so the
        // tail actually contends with the migration quanta.
        client_mode: ClientMode::RdmaWrite,
        migration_quantum_items: quantum,
        ..paper_cluster_config()
    }
}

/// The mid-migration window, snapshotted the moment the plan settles.
struct MidWindow {
    /// Virtual time from the join event to plan completion.
    rebalance_ns: u64,
    /// Merged GET p99 over the window (µs).
    get_p99_us: f64,
    /// Ops completed inside the window.
    ops: u64,
}

struct ElasticOutcome {
    mid: MidWindow,
    moved_keys: u64,
    moved_bytes: u64,
    forwarded: u64,
    audit: (usize, usize),
    total_items: usize,
}

/// Polls the engine every 50µs of virtual time; the first quiet observation
/// snapshots the clients' histograms (reset at the join, so they cover the
/// migration window exactly) and raises `settled`, which ends the run.
fn probe_settle(
    sim: &mut Sim,
    migration: MigrationEngine,
    clients: Vec<HydraClient>,
    t_start: u64,
    out: Rc<RefCell<Option<MidWindow>>>,
    settled: Rc<Cell<bool>>,
) {
    // `active()` keeps returning the most recent plan after it settles (the
    // handle is the status carrier), so the probe keys off settledness.
    if migration.active().is_none_or(|h| h.is_settled()) {
        let mut h = Histogram::new();
        let mut ops = 0u64;
        for c in &clients {
            let s = c.kv_snapshot();
            h.merge(&s.get_lat);
            ops += s.ops;
        }
        *out.borrow_mut() = Some(MidWindow {
            rebalance_ns: sim.now().saturating_sub(t_start),
            get_p99_us: as_us(h.quantile(0.99)),
            ops,
        });
        settled.set(true);
        return;
    }
    sim.schedule_in(50_000, move |sim| {
        probe_settle(sim, migration, clients, t_start, out, settled)
    });
}

fn elastic_run(quantum: u32, wl: &Workload, seed: u64) -> ElasticOutcome {
    let (mut cluster, clients) = paper_cluster(elastic_cfg(quantum, seed), CLIENTS);
    let chaos = cluster.chaos();
    let migration = cluster.migration.clone();

    let window: Rc<RefCell<Option<MidWindow>>> = Rc::new(RefCell::new(None));
    let settled = Rc::new(Cell::new(false));
    let hook: OpHook = {
        let clients = clients.clone();
        let window = window.clone();
        let settled = settled.clone();
        Box::new(move |sim: &mut Sim| {
            // Reset so the histograms cover [join, settle] exactly.
            for c in &clients {
                c.kv_reset_stats();
            }
            let t_start = sim.now();
            chaos.apply(
                sim,
                &FaultEvent::JoinNode {
                    shards: JOIN_SHARDS,
                },
            );
            probe_settle(sim, migration, clients, t_start, window, settled);
        })
    };
    let at = wl.ops / 5;
    let dcfg = DriverConfig {
        until: Some(settled),
        ..DriverConfig::default()
    };
    let report = run_workload_hooked(&mut cluster.sim, &clients, wl, &dcfg, vec![(at, hook)]);
    assert_eq!(report.errors, 0, "elastic run must be error-free");
    assert_eq!(
        cluster.migration.completed(),
        1,
        "the join must settle before the queue drains"
    );
    let mid = window
        .borrow_mut()
        .take()
        .expect("settle probe must have fired");
    let plan = cluster.migration.active().expect("the join's plan");
    ElasticOutcome {
        mid,
        moved_keys: plan.moved_keys(),
        moved_bytes: plan.moved_bytes(),
        forwarded: plan.forwarded(),
        audit: cluster.ownership_audit(),
        total_items: cluster.total_items(),
    }
}

pub(crate) fn run(scale: Scale, report: &mut Report) {
    let seed = hydra_sim::seed_from_env(37);
    let wl = one_workload(scale, 0.95, true, seed);

    report.line(&format!(
        "# {} records, {} ops, {CLIENTS} clients; JoinNode(+{JOIN_SHARDS} shards) at 20% of the run",
        wl.records, wl.ops
    ));

    // Steady-state baseline on the same topology, no reconfiguration.
    let (mut cluster, clients) = paper_cluster(elastic_cfg(128, seed), CLIENTS);
    let steady = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
    assert_eq!(steady.errors, 0);

    report.header(
        "run<16|get_p99_us>12.2|mid_mops>12.3|reb_ms>12.2|moved_keys>12|moved_bytes>12|forwarded>10|dip>10.3",
    );
    let dash = &"-";
    report.row(&[&"steady", &steady.get_p99_us, &steady.mops, dash, dash, dash, dash, dash]);
    report.datum("steady_get_p99_us", steady.get_p99_us);
    report.datum("steady_mops", steady.mops);

    // Sweep the migration rate: larger quanta finish faster but lean harder
    // on the shard cores mid-copy.
    let mut default_outcome = None;
    for &quantum in &[32u32, 128, 512] {
        let o = elastic_run(quantum, &wl, seed);
        let mid_mops = o.mid.ops as f64 / as_secs(o.mid.rebalance_ns.max(1)) / 1e6;
        let dip = mid_mops / steady.mops.max(1e-9);
        let reb_ms = o.mid.rebalance_ns as f64 / 1e6;
        let name = format!("join-q{quantum}");
        report.row(&[
            &name,
            &o.mid.get_p99_us,
            &mid_mops,
            &reb_ms,
            &o.moved_keys,
            &o.moved_bytes,
            &o.forwarded,
            &dip,
        ]);
        report.datum(&format!("q{quantum}_mid_get_p99_us"), o.mid.get_p99_us);
        report.datum(&format!("q{quantum}_mid_mops"), mid_mops);
        report.datum(&format!("q{quantum}_rebalance_ms"), reb_ms);
        report.datum(&format!("q{quantum}_throughput_dip"), dip);
        report.datum(&format!("q{quantum}_moved_keys"), o.moved_keys);
        report.datum(&format!("q{quantum}_moved_bytes"), o.moved_bytes);
        report.datum(&format!("q{quantum}_forwarded"), o.forwarded);

        report.claim(
            o.audit == (0, 0),
            format!("{name}: (misplaced, duplicated) keys {:?} after the flip", o.audit),
            "zero keys misplaced or duplicated after a live join",
        );
        report.claim(
            o.total_items == wl.records as usize,
            format!("{name}: {} keys held of {}", o.total_items, wl.records),
            "zero keys lost or invented by the migration",
        );
        report.claim(
            o.moved_keys > 0,
            format!("{name}: no key moved"),
            "the join moves real ranges",
        );
        if quantum == 128 {
            default_outcome = Some(o);
        }
    }

    let o = default_outcome.expect("default quantum swept");
    let blowup = o.mid.get_p99_us / steady.get_p99_us.max(1e-9);
    report.line(&format!(
        "# mid-migration point-GET p99 blowup vs steady: {blowup:.2}x (gate: <= 3x)"
    ));
    report.datum("mid_p99_blowup", blowup);
    report.claim(
        o.mid.ops > 0,
        "join-q128: no op completed mid-migration",
        "the mid-migration window contains traffic",
    );
    report.claim(
        blowup <= 3.0,
        format!(
            "join-q128: mid-migration GET p99 {blowup:.2}x steady ({:.2}us vs {:.2}us)",
            o.mid.get_p99_us, steady.get_p99_us
        ),
        "mid-migration GET p99 stays within 3x of steady state",
    );

    // The inverse reconfiguration, quiesced: drain one original machine and
    // time the plan.
    let (mut cluster, clients) = paper_cluster(elastic_cfg(128, seed), 1);
    let client = &clients[0];
    let n_drain = (wl.records / 10).max(1_000);
    for i in 0..n_drain {
        let k = wl.key_of(i);
        let v = wl.value_of(i, 0);
        client.put(
            &mut cluster.sim,
            &k,
            &v,
            Box::new(|_, r| {
                r.expect("drain-leg load write succeeds");
            }),
        );
        cluster.sim.run();
    }
    let t0 = cluster.sim.now();
    let departed = cluster.drain_server(0);
    let drain_ms = (cluster.sim.now() - t0) as f64 / 1e6;
    report.line(&format!(
        "# quiesced drain of node 0: {} partitions retired in {drain_ms:.2} ms",
        departed.len()
    ));
    report.datum("drain_partitions", departed.len());
    report.datum("drain_rebalance_ms", drain_ms);
    report.claim(
        cluster.ownership_audit() == (0, 0),
        format!("drain: (misplaced, duplicated) keys {:?}", cluster.ownership_audit()),
        "zero keys misplaced or duplicated after a drain",
    );
}
