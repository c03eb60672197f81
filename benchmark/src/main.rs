//! Two-clock end-to-end benchmark for the HydraDB reproduction.
//!
//! One run = one workload: set the cluster up, replay closed-loop traffic
//! for `--seconds` of wall time, check the outputs, and print one JSON
//! object as the last line of stdout. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the workload with spans, the counting
//! allocator and the layer replays and prints the per-layer metrics. See
//! `README.md` beside this package.

mod harness;
mod layers;
mod metrics;
mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use harness::{Deployment, Kind, Replay, Window};
use layers::{Counters, Levels};
use metrics::{log2_hist_quantile, median, percentile, ratio, samples_beyond, segment_kops};
use trace::Tracer;
use workloads::Spec;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// `--scale smoke` divides the op stream, the virtual prefix and the fault
/// time by this and closes the window when the prefix is complete.
const SMOKE_DIVISOR: u64 = 20;
/// Longest the traced run drains the event queue after the window.
const DRAIN_CAP: Duration = Duration::from_secs(2);
/// Events the `sim` replay fires.
const SIM_REPLAY_EVENTS: u64 = 2_000_000;
/// Rounds of the `fabric` replay.
const FABRIC_REPLAY_ROUNDS: u64 = 200_000;

/// End-to-end metrics, in the order of `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 9] = [
    ("virt_mops", "Mops"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("other_p50_us", "us"),
    ("other_p99_us", "us"),
    ("worst_wait_ms", "ms"),
    ("host_kops", "Kops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in the order of `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 66] = [
    ("sim.events_per_op", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.share", "ratio"),
    ("sim.drain_events", "count"),
    ("sim.drain_s", "s"),
    ("fabric.writes_per_op", "count"),
    ("fabric.reads_per_op", "count"),
    ("fabric.sends_per_op", "count"),
    ("fabric.doorbells_per_op", "count"),
    ("fabric.bytes_per_op", "B"),
    ("fabric.qp_cache_miss_ratio", "ratio"),
    ("fabric.mtt_cache_miss_ratio", "ratio"),
    ("fabric.nic_miss_ns_per_op", "ns"),
    ("fabric.verb_ns", "ns"),
    ("fabric.share", "ratio"),
    ("wire.codec_ns_per_op", "ns"),
    ("wire.batch_fill", "count"),
    ("wire.share", "ratio"),
    ("store.engine_ns_per_op", "ns"),
    ("store.buckets_probed_per_lookup", "count"),
    ("store.get_hit_ratio", "ratio"),
    ("store.scan_items_per_scan", "count"),
    ("store.arena_occupancy_max", "ratio"),
    ("store.reclaim_pending_peak", "count"),
    ("store.allocs_per_write", "count"),
    ("store.share", "ratio"),
    ("lockfree.ptr_cache_ns_per_op", "ns"),
    ("lockfree.share", "ratio"),
    ("replication.acks_per_record", "ratio"),
    ("replication.lag_max", "count"),
    ("replication.release_batch_mean", "count"),
    ("replication.record_ns", "ns"),
    ("replication.share", "ratio"),
    ("coord.detect_ms", "ms"),
    ("coord.promote_ms", "ms"),
    ("coord.outage_ms", "ms"),
    ("hydradb.client.rptr_hit_ratio", "ratio"),
    ("hydradb.client.invalid_hit_ratio", "ratio"),
    ("hydradb.client.replica_read_share", "ratio"),
    ("hydradb.client.retries_per_op", "ratio"),
    ("hydradb.client.timeouts", "count"),
    ("hydradb.client.redirects", "count"),
    ("hydradb.client.scan_steps_per_scan", "count"),
    ("hydradb.client.issue_ns_per_op", "ns"),
    ("hydradb.server.cpu_util_max", "ratio"),
    ("hydradb.server.cpu_util_mean", "ratio"),
    ("hydradb.server.queue_depth_p99", "count"),
    ("hydradb.server.sojourn_p50_us.get", "us"),
    ("hydradb.server.sojourn_p50_us.update", "us"),
    ("hydradb.server.sojourn_p50_us.scan", "us"),
    ("hydradb.server.scan_chunks_per_scan", "count"),
    ("hydradb.server.scan_preemptions_per_scan", "count"),
    ("hydradb.server.dropped_while_dead", "count"),
    ("hydradb.residual_ns_per_op", "ns"),
    ("hydradb.residual_share", "ratio"),
    ("ycsb.gen_ns_per_op", "ns"),
    ("phase.build_s", "s"),
    ("phase.generate_s", "s"),
    ("phase.load_s", "s"),
    ("phase.warmup_s", "s"),
    ("phase.traffic_s", "s"),
    ("host.allocs_per_op", "count"),
    ("host.alloc_bytes_per_op", "B"),
    ("host.kops_mean", "Kops/s"),
    ("host.cpu_share", "ratio"),
    ("host.trace_overhead", "ratio"),
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = || {
        let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!(
            "usage: --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>] [--scale smoke]",
            names.join("|")
        )
    };
    let (mut spec, mut seed) = (None, None);
    let (mut seconds, mut traced, mut smoke) = (10, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => traced = number()? != 0,
            "--scale" if value == "smoke" => smoke = true,
            "--scale" => return Err(format!("unknown scale {value}\n{}", usage())),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        spec: spec.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds,
        traced,
        smoke,
    })
}

/// Named values, filled in the order of a metric table.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!self.0.iter().any(|(n, _)| *n == name), "{name} set twice");
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// 0 where the workload does not exercise the layer.
    fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.get(name);
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }

    fn print(&self, table: &[(&str, &str)]) {
        for (name, unit) in table {
            eprintln!("  {name:<44} {:>16.6} {unit}", self.get(name));
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The measured window plus what was read at its edges.
struct Measured {
    window: Window,
    during: Counters,
    levels: Levels,
    clients: hydra_db::ClientStats,
    /// Host (CPU) seconds the window took, and their share of its wall time.
    traffic_s: f64,
    cpu_share: f64,
}

/// Opens the window on a warmed deployment and replays traffic until its
/// stop condition.
fn measure(
    args: &Args,
    dep: &mut Deployment,
    tracer: &mut Tracer,
    nominal: u64,
) -> Result<Measured, String> {
    let spec = args.spec;
    let (seconds, divisor) = if args.smoke {
        (0, SMOKE_DIVISOR)
    } else {
        (args.seconds, 1)
    };
    let window = Window::new(
        spec,
        Duration::from_secs(seconds),
        spec.virt_ops / divisor,
        Spec::segment_ops(nominal),
        spec.fault_at.map(|t| t / divisor),
        args.traced,
    );
    for client in &dep.clients {
        client.reset_stats();
    }
    layers::reset_cpu_windows(&dep.cluster);
    let before = Counters::read(&dep.cluster);
    let span = tracer.begin("traffic", Some(0));
    let (cpu0, wall0) = (harness::cpu_ns(), Instant::now());
    let pass = Replay::new(
        spec,
        &dep.clients,
        &dep.keys,
        dep.streams.clone(),
        Some(window),
        dep.prober.clone(),
    );
    harness::drive(&mut dep.cluster, &pass)?;
    let traffic_ns = (harness::cpu_ns() - cpu0) as f64;
    let cpu_share = ratio(traffic_ns, wall0.elapsed().as_nanos() as f64);
    let levels = Levels::read(&dep.cluster);
    let during = Counters::read(&dep.cluster).since(&before);
    let window = pass.take_window();
    tracer.end_with(
        span,
        vec![
            ("ops", window.completed as f64),
            ("events", during.events as f64),
            ("cpu_share", cpu_share),
        ],
    );
    let mut clients = hydra_db::ClientStats::default();
    for client in &dep.clients {
        let s = client.stats();
        clients.gets += s.gets;
        clients.rptr_reads += s.rptr_reads;
        clients.rptr_hits += s.rptr_hits;
        clients.invalid_hits += s.invalid_hits;
        clients.replica_reads += s.replica_reads;
        clients.scans += s.scans;
        clients.scan_steps += s.scan_steps;
        clients.timeouts += s.timeouts;
        clients.retries += s.retries;
        clients.redirects += s.redirects;
    }
    Ok(Measured {
        window,
        during,
        levels,
        clients,
        traffic_s: traffic_ns / 1e9,
        cpu_share,
    })
}

/// Output checks after the window. Returns the failures to add to the
/// per-op ones and whether the cluster's state is sound.
fn check(spec: &Spec, dep: &mut Deployment, window: &Window) -> Result<(u64, bool), String> {
    let mut sound = true;
    // No workload inserts, so the item count must be what was loaded.
    let items = dep.cluster.total_items() as u64;
    if items != dep.loaded {
        eprintln!(
            "check: {items} items after the window, {} loaded",
            dep.loaded
        );
        sound = false;
    }
    let mut lost = 0;
    if spec.fault_at.is_some() {
        lost = harness::lost_private_writes(dep, &window.private)?;
        if lost > 0 {
            eprintln!("check: {lost} acknowledged private-key writes lost");
        }
        // A partition that never served the prober's write again did not
        // recover: a failure, not an outage of 0.
        if window.fault.and_then(|f| f.outage_ns).is_none() {
            eprintln!("check: the killed partition never served a write again");
            lost += 1;
        }
        // The virtual-clock metrics must contain the outage.
        if window.fault.is_none_or(|f| f.at >= window.virt_end) {
            eprintln!("check: the fault fell outside the virtual prefix");
            sound = false;
        }
    }
    if dep.cluster.cfg.replicas > 0 && !harness::replicas_converge(&mut dep.cluster) {
        eprintln!("check: replicas did not converge");
        sound = false;
    }
    Ok((lost, sound))
}

fn end_to_end(m: &Measured, setup_s: f64) -> Values {
    let w = &m.window;
    let mut v = Values(Vec::new());
    let virt_ns = (w.virt_end - w.virt_open) as f64;
    v.set("virt_mops", ratio(w.virt_covered as f64 * 1e3, virt_ns));
    let mut get = w.lat[Kind::Get as usize].clone();
    let mut other = [
        &w.lat[Kind::Write as usize][..],
        &w.lat[Kind::Scan as usize],
    ]
    .concat();
    get.sort_unstable();
    other.sort_unstable();
    v.set("get_p50_us", us(percentile(&get, 0.5)));
    v.set("get_p99_us", us(percentile(&get, 0.99)));
    v.set("other_p50_us", us(percentile(&other, 0.5)));
    v.set("other_p99_us", us(percentile(&other, 0.99)));
    let waited: u64 = w.worst_wait.iter().sum();
    v.set(
        "worst_wait_ms",
        ratio(waited as f64 / 1e6, w.worst_wait.len() as f64),
    );
    let rates: Vec<f64> = segment_kops(&w.marks, w.seg_ops)
        .into_iter()
        .filter(|(_, traced)| !traced)
        .map(|(kops, _)| kops)
        .collect();
    v.set("host_kops", rates.iter().copied().fold(0.0, f64::max));
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("  segment Kops/s: {}", shown.join(" "));
    v.set("setup_s", setup_s);
    v.set("peak_rss_mib", w.prefix_rss_kib as f64 / 1024.0);
    eprintln!(
        "  samples: get {} ({} beyond p99), other {} ({} beyond p99), {} full segments of {} ops",
        get.len(),
        samples_beyond(&get, 0.99),
        other.len(),
        samples_beyond(&other, 0.99),
        rates.len(),
        w.seg_ops
    );
    v
}

/// Everything `--trace 1` adds after the window: the drain and the layer
/// replays, one span each.
struct Replays {
    drain_events: u64,
    drain_s: f64,
    sim: replay::Replayed,
    fabric: replay::Replayed,
    wire: replay::ByKind,
    store: replay::ByKind,
    ptr_cache: replay::Replayed,
    replication: replay::Replayed,
}

fn run_replays(dep: &mut Deployment, tracer: &mut Tracer, m: &Measured) -> Replays {
    fn spanned<T>(tracer: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> T {
        let span = tracer.begin(name, Some(0));
        let out = f();
        tracer.end(span);
        out
    }
    // What every figure binary pays after its last completion: stepping
    // until the queue is empty (lease expiries, reclamation, heartbeats),
    // as `Sim::run` does. Cut off at `DRAIN_CAP`: the drain grows faster
    // than the op count and would outlast the window it follows.
    let events = dep.cluster.sim.executed_events();
    let span = tracer.begin("drain", Some(0));
    let started = Instant::now();
    while started.elapsed() < DRAIN_CAP && (0..4096).all(|_| dep.cluster.sim.step()) {}
    let drain_events = dep.cluster.sim.executed_events() - events;
    tracer.end_with(span, vec![("events", drain_events as f64)]);
    let drain_s = tracer.secs(span);

    let ops: Vec<hydra_ycsb::Op> = (0..replay::REPLAY_OPS)
        .map(|i| {
            let stream = &dep.streams[i % dep.streams.len()];
            stream[(i / dep.streams.len()) % stream.len()]
        })
        .collect();
    let keys = &dep.keys;
    let index = dep.cluster.cfg.index;
    let d = &m.during;
    // A layer the workload never entered is not replayed; its metrics read 0.
    Replays {
        drain_events,
        drain_s,
        sim: spanned(tracer, "replay.sim", || replay::sim(SIM_REPLAY_EVENTS)),
        fabric: spanned(tracer, "replay.fabric", || {
            replay::fabric(FABRIC_REPLAY_ROUNDS)
        }),
        wire: if d.requests > 0 {
            spanned(tracer, "replay.wire", || replay::wire(&ops, keys))
        } else {
            replay::ByKind::default()
        },
        store: spanned(tracer, "replay.store", || replay::store(index, &ops, keys)),
        ptr_cache: if dep.cluster.cfg.client_mode.rdma_read() {
            spanned(tracer, "replay.lockfree", || replay::ptr_cache(&ops, keys))
        } else {
            replay::Replayed::default()
        },
        replication: if d.repl_records > 0 {
            spanned(tracer, "replay.replication", || {
                replay::replication(index, &ops, keys)
            })
        } else {
            replay::Replayed::default()
        },
    }
}

fn per_layer(dep: &Deployment, m: &Measured, r: &Replays) -> Values {
    let (w, d, c) = (&m.window, &m.during, &m.clients);
    let ops = w.completed as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let mut v = Values(Vec::new());

    // Host cost of an op: untraced segments, so the replays (which run
    // untraced) are compared like with like.
    let segs = segment_kops(&w.marks, w.seg_ops);
    let rates = |traced: bool| -> Vec<f64> {
        segs.iter()
            .filter(|(_, t)| *t == traced)
            .map(|(kops, _)| *kops)
            .collect()
    };
    let (plain, traced) = (median(&rates(false)), median(&rates(true)));
    let host_ns_per_op = ratio(1e6, plain);
    let traced_ops: u64 = w
        .marks
        .windows(2)
        .filter(|m| m[1].traced)
        .map(|m| m[1].ops - m[0].ops)
        .sum();
    // The exact counters cover the virtual prefix, like the virtual-clock
    // metrics: segments alternate by op count, so the traced segments inside
    // the prefix are the same ops on every run of a seed.
    let prefix_traced = || {
        w.marks
            .windows(2)
            .zip(w.allocs_at.windows(2))
            .filter(|(m, _)| m[1].traced && m[1].ops <= w.virt_covered)
    };
    let prefix_traced_ops: u64 = prefix_traced().map(|(m, _)| m[1].ops - m[0].ops).sum();
    let prefix_allocs = |pick: fn(&(u64, u64)) -> u64| -> f64 {
        let n: u64 = prefix_traced()
            .map(|(_, a)| pick(&a[1]) - pick(&a[0]))
            .sum();
        ratio(n as f64, prefix_traced_ops as f64)
    };

    let events_per_op = ratio(
        (w.prefix_events - w.open_events) as f64,
        w.virt_covered as f64,
    );
    let sim_ns = r.sim.ns_per_call;
    let sim_per_op = sim_ns * events_per_op;
    v.set("sim.events_per_op", events_per_op);
    v.set("sim.ns_per_event", sim_ns);
    v.set("sim.share", ratio(sim_per_op, host_ns_per_op));
    v.set("sim.drain_events", r.drain_events as f64);
    v.set("sim.drain_s", r.drain_s);

    let verbs = d.writes + d.reads + d.sends;
    let fabric_self = r.fabric.self_ns(sim_ns, 0.0);
    let fabric_per_op = fabric_self * per_op(verbs);
    v.set("fabric.writes_per_op", per_op(d.writes));
    v.set("fabric.reads_per_op", per_op(d.reads));
    v.set("fabric.sends_per_op", per_op(d.sends));
    v.set("fabric.doorbells_per_op", per_op(d.doorbells));
    v.set("fabric.bytes_per_op", per_op(d.bytes));
    let miss_ratio = |miss: u64, hit: u64| ratio(miss as f64, (miss + hit) as f64);
    v.set(
        "fabric.qp_cache_miss_ratio",
        miss_ratio(d.qp_cache_misses, d.qp_cache_hits),
    );
    v.set(
        "fabric.mtt_cache_miss_ratio",
        miss_ratio(d.mtt_cache_misses, d.mtt_cache_hits),
    );
    v.set("fabric.nic_miss_ns_per_op", per_op(d.nic_miss_ns));
    v.set("fabric.verb_ns", r.fabric.ns_per_call);
    v.set("fabric.share", ratio(fabric_per_op, host_ns_per_op));

    let wire_per_op = r.wire.per_op(
        per_op(d.server_gets),
        per_op(d.server_writes),
        per_op(d.server_scans),
    );
    v.set("wire.codec_ns_per_op", wire_per_op);
    v.set(
        "wire.batch_fill",
        ratio(d.batched_requests as f64, d.batches as f64),
    );
    v.set("wire.share", ratio(wire_per_op, host_ns_per_op));

    let store_per_op = r.store.per_op(
        per_op(d.engine_gets),
        per_op(d.engine_writes),
        per_op(d.engine_scans),
    );
    v.set("store.engine_ns_per_op", store_per_op);
    v.set(
        "store.buckets_probed_per_lookup",
        ratio(d.buckets_probed as f64, d.lookups as f64),
    );
    v.set(
        "store.get_hit_ratio",
        ratio(d.engine_get_hits as f64, d.engine_gets as f64),
    );
    v.set(
        "store.scan_items_per_scan",
        ratio(d.scan_items as f64, d.engine_scans as f64),
    );
    v.set("store.arena_occupancy_max", m.levels.arena_occupancy_max);
    v.set("store.reclaim_pending_peak", m.levels.reclaim_pending_peak);
    v.set(
        "store.allocs_per_write",
        ratio(d.arena_allocs as f64, d.engine_writes as f64),
    );
    v.set("store.share", ratio(store_per_op, host_ns_per_op));

    let lookups_per_op = if r.ptr_cache.calls > 0 {
        per_op(c.gets)
    } else {
        0.0
    };
    let ptr_per_op = r.ptr_cache.ns_per_call * lookups_per_op;
    v.set("lockfree.ptr_cache_ns_per_op", ptr_per_op);
    v.set("lockfree.share", ratio(ptr_per_op, host_ns_per_op));

    // The replay's secondary applies each record to its engine; that apply
    // stays in the replication layer's time (the live window's `store`
    // calls above count primaries only).
    let repl_per_op = r.replication.self_ns(sim_ns, fabric_self) * per_op(d.repl_records);
    v.set(
        "replication.acks_per_record",
        ratio(d.repl_acks as f64, d.repl_records as f64),
    );
    v.set("replication.lag_max", m.levels.repl_lag_max);
    v.set(
        "replication.release_batch_mean",
        ratio(d.repl_records as f64, d.repl_releases as f64),
    );
    v.set("replication.record_ns", r.replication.ns_per_call);
    v.set("replication.share", ratio(repl_per_op, host_ns_per_op));

    // What never happened (a failed run) reads as the time it had.
    let fault = w.fault.unwrap_or_default();
    let waited = w.virt_end.saturating_sub(fault.at);
    let ms = |ns: Option<u64>| w.fault.map_or(0, |_| ns.unwrap_or(waited)) as f64 / 1e6;
    v.set("coord.detect_ms", ms(fault.detect_ns));
    v.set("coord.promote_ms", ms(fault.promote_ns));
    v.set("coord.outage_ms", ms(fault.outage_ns));

    v.set(
        "hydradb.client.rptr_hit_ratio",
        ratio(c.rptr_hits as f64, c.gets as f64),
    );
    v.set(
        "hydradb.client.invalid_hit_ratio",
        ratio(c.invalid_hits as f64, c.rptr_reads as f64),
    );
    v.set(
        "hydradb.client.replica_read_share",
        ratio(c.replica_reads as f64, c.rptr_reads as f64),
    );
    v.set("hydradb.client.retries_per_op", per_op(c.retries));
    v.set("hydradb.client.timeouts", c.timeouts as f64);
    v.set("hydradb.client.redirects", c.redirects as f64);
    v.set(
        "hydradb.client.scan_steps_per_scan",
        ratio(c.scan_steps as f64, c.scans as f64),
    );
    v.set(
        "hydradb.client.issue_ns_per_op",
        ratio(w.issue_ns as f64, traced_ops as f64),
    );
    v.set("hydradb.server.cpu_util_max", m.levels.cpu_util_max);
    v.set("hydradb.server.cpu_util_mean", m.levels.cpu_util_mean);
    v.set(
        "hydradb.server.queue_depth_p99",
        log2_hist_quantile(&d.queue_depth, 0.99) as f64,
    );
    let [get, update, scan] = d.sojourn.map(|h| us(log2_hist_quantile(&h, 0.5)));
    v.set("hydradb.server.sojourn_p50_us.get", get);
    v.set("hydradb.server.sojourn_p50_us.update", update);
    v.set("hydradb.server.sojourn_p50_us.scan", scan);
    v.set(
        "hydradb.server.scan_chunks_per_scan",
        ratio(d.scan_chunks as f64, d.server_scans as f64),
    );
    v.set(
        "hydradb.server.scan_preemptions_per_scan",
        ratio(d.scan_preemptions as f64, d.server_scans as f64),
    );
    v.set(
        "hydradb.server.dropped_while_dead",
        d.dropped_while_dead as f64,
    );
    // The harness's own share of an op is the self time of its completion
    // callbacks (checks, next-op bookkeeping): callbacks minus the client
    // calls made inside them.
    let harness_per_op = ratio(
        w.callback_ns.saturating_sub(w.issue_ns) as f64,
        traced_ops as f64,
    );
    let (residual_ns, residual_share) = metrics::residual(
        host_ns_per_op,
        &[
            harness_per_op,
            sim_per_op,
            fabric_per_op,
            wire_per_op,
            store_per_op,
            ptr_per_op,
            repl_per_op,
        ],
    );
    v.set("hydradb.residual_ns_per_op", residual_ns);
    v.set("hydradb.residual_share", residual_share);

    v.set("ycsb.gen_ns_per_op", dep.gen_ns_per_op);
    v.set("phase.build_s", dep.phases.build_s);
    v.set("phase.generate_s", dep.phases.generate_s);
    v.set("phase.load_s", dep.phases.load_s);
    v.set("phase.warmup_s", dep.phases.warmup_s);
    v.set("phase.traffic_s", m.traffic_s);
    v.set("host.allocs_per_op", prefix_allocs(|a| a.0));
    v.set("host.alloc_bytes_per_op", prefix_allocs(|a| a.1));
    v.set("host.kops_mean", ratio(ops / 1e3, m.traffic_s));
    v.set("host.cpu_share", m.cpu_share);
    v.set("host.trace_overhead", ratio(traced, plain));
    eprintln!(
        "  host: {host_ns_per_op:.0} ns/op untraced = harness {harness_per_op:.0} + sim {sim_per_op:.0} + fabric {fabric_per_op:.0} + wire {wire_per_op:.0} + store {store_per_op:.0} + lockfree {ptr_per_op:.0} + replication {repl_per_op:.0} + hydradb residual {residual_ns:.0}; step {:.0} ns/op traced",
        ratio(w.step_ns as f64, traced_ops as f64),
    );
    v
}

/// Adds the sampled per-op spans and writes the span file.
fn write_trace(tracer: &mut Tracer, spec: &Spec, window: &Window) -> Result<(), String> {
    let traffic = tracer
        .spans
        .iter()
        .position(|s| s.name == "traffic")
        .expect("the window opened a traffic span");
    for s in &window.samples {
        let name = match s.kind {
            Kind::Get => "op.get",
            Kind::Write => "op.write",
            Kind::Scan => "op.scan",
        };
        tracer.push_timed(
            name,
            traffic,
            s.issued,
            s.done,
            vec![
                ("virt_issue_ns", s.virt_issue as f64),
                ("virt_done_ns", s.virt_done as f64),
            ],
        );
    }
    tracer.end(0);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "  {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec = args.spec;
    let nominal = if args.smoke {
        spec.nominal_ops / SMOKE_DIVISOR
    } else {
        spec.nominal_ops
    };
    let mut tracer = Tracer::new(spec.name);

    let span = tracer.begin("setup", Some(0));
    let mut dep = harness::setup(spec, args.seed, nominal, &mut tracer, span)?;
    tracer.end(span);

    let m = measure(&args, &mut dep, &mut tracer, nominal)?;
    let span = tracer.begin("check", Some(0));
    let (lost, sound) = check(spec, &mut dep, &m.window)?;
    tracer.end(span);
    let failed = m.window.failed + m.window.probes_failed + lost;
    let attempted = m.window.completed + m.window.probes;
    let correct = sound && failed == 0;

    eprintln!(
        "{} seed {}: {} ops in {:.3} CPU s ({} failed)",
        spec.name, args.seed, m.window.completed, m.traffic_s, failed
    );
    let metrics = if args.traced {
        let replays = run_replays(&mut dep, &mut tracer, &m);
        let values = per_layer(&dep, &m, &replays);
        write_trace(&mut tracer, spec, &m.window)?;
        values.print(&PER_LAYER);
        values.to_json(&PER_LAYER)
    } else {
        let values = end_to_end(&m, dep.phases.setup_s());
        values.print(&END_TO_END);
        values.to_json(&END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this binary
    /// prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = workloads::ALL
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let mut expected = 0;
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
            expected += 1;
        }
        assert_eq!(json.matches("\"name\": ").count(), expected);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be listed with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_lists_every_metric_and_zeroes_missing_ones() {
        let mut v = Values(Vec::new());
        v.set("virt_mops", 1.25);
        v.set("setup_s", f64::NAN);
        let json = v.to_json(&END_TO_END);
        assert!(json.contains("\"virt_mops\": {\"value\": 1.25, \"unit\": \"Mops\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }
}
