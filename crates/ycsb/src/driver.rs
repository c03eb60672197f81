//! Closed-loop benchmark driver.
//!
//! Replays pre-generated op streams against any key-value client that
//! implements [`KvClient`]: HydraDB's own client, or the baseline stores in
//! `hydra-baselines`. A *load* phase inserts every record, a *warm-up* slice
//! of each stream runs unmeasured (populating remote-pointer caches, exactly
//! why Fig. 10's RDMA-Read gains need warmed caches), then statistics reset
//! and the measured run begins. Throughput is total measured ops over the
//! virtual wall-clock between the reset and the last completion; latencies
//! come from the clients' histograms.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::{HydraClient, OpError};
use hydra_sim::time::{as_secs, as_us, SimTime};
use hydra_sim::{Histogram, Sim};

use crate::workload::{Op, Workload};

/// Snapshot of a client's measured activity, in driver-neutral terms.
#[derive(Debug, Default, Clone)]
pub struct KvSnapshot {
    /// Completed operations.
    pub ops: u64,
    /// GET latency histogram.
    pub get_lat: Histogram,
    /// Write latency histogram.
    pub update_lat: Histogram,
    /// Fast-path GETs that validated (HydraDB only).
    pub rptr_hits: u64,
    /// Fast-path GETs that fetched a stale item (HydraDB only).
    pub invalid_hits: u64,
    /// GETs served through the server message path.
    pub msg_gets: u64,
    /// Completed SCANs.
    pub scans: u64,
    /// End-to-end SCAN latency histogram (fan-out + continuations included).
    pub scan_lat: Histogram,
}

/// Anything the driver can benchmark.
pub trait KvClient: Clone + 'static {
    /// Issues a GET; calls `cb` with the value (or `None` on miss).
    fn kv_get(&self, sim: &mut Sim, key: &[u8], cb: KvCb);
    /// Issues an INSERT.
    fn kv_insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb);
    /// Issues an UPDATE.
    fn kv_update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb);
    /// Issues a SCAN of up to `limit` items starting at `start` (key order).
    /// Clients without an ordered index may leave this unimplemented; only
    /// scan-bearing workloads (YCSB-E) exercise it.
    fn kv_scan(&self, _sim: &mut Sim, _start: &[u8], _limit: u32, _cb: KvCb) {
        panic!("this KvClient does not support SCAN");
    }
    /// Clears measured statistics.
    fn kv_reset_stats(&self);
    /// Snapshots measured statistics.
    fn kv_snapshot(&self) -> KvSnapshot;
}

/// Completion callback shared by all drivers.
pub type KvCb = Box<dyn FnOnce(&mut Sim, Result<Option<Vec<u8>>, OpError>)>;

impl KvClient for HydraClient {
    fn kv_get(&self, sim: &mut Sim, key: &[u8], cb: KvCb) {
        self.get(sim, key, cb);
    }
    fn kv_insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        self.insert(sim, key, value, cb);
    }
    fn kv_update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        self.update(sim, key, value, cb);
    }
    fn kv_scan(&self, sim: &mut Sim, start: &[u8], limit: u32, cb: KvCb) {
        self.scan(sim, start, limit, cb);
    }
    fn kv_reset_stats(&self) {
        self.reset_stats();
    }
    fn kv_snapshot(&self) -> KvSnapshot {
        let s = self.stats();
        KvSnapshot {
            ops: s.gets + s.updates + s.inserts + s.deletes + s.scans,
            get_lat: s.get_lat,
            update_lat: s.update_lat,
            rptr_hits: s.rptr_hits,
            invalid_hits: s.invalid_hits,
            msg_gets: s.msg_gets,
            scans: s.scans,
            scan_lat: s.scan_lat,
        }
    }
}

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Fraction of each stream replayed before measurement starts.
    pub warmup_frac: f64,
    /// Whether operation errors abort the run (on by default; fail-over
    /// experiments disable it).
    pub strict: bool,
    /// Operations each client keeps in flight. 1 is the paper's closed-loop
    /// YCSB discipline; larger windows drive pipelined clients
    /// ([`hydra_db::ClusterConfig::pipeline_depth`]) asynchronously.
    pub window: usize,
    /// When set, the measured run ends when the flag is raised, not at the
    /// end of the streams, which each client replays from the start as often
    /// as it takes: an elasticity experiment keeps traffic flowing until its
    /// plan settles.
    pub until: Option<Rc<Cell<bool>>>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            warmup_frac: 0.05,
            strict: true,
            window: 1,
            until: None,
        }
    }
}

/// Aggregated results of one measured run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Operations measured.
    pub ops: u64,
    /// Virtual time spent in the measured window.
    pub elapsed_ns: SimTime,
    /// Throughput in million ops/sec (virtual time).
    pub mops: f64,
    /// Mean/percentile GET latency in µs.
    pub get_mean_us: f64,
    pub get_p99_us: f64,
    /// Mean/percentile UPDATE latency in µs (p50 is the replication-mode
    /// comparison point: the median write round trip under load).
    pub update_mean_us: f64,
    pub update_p50_us: f64,
    pub update_p99_us: f64,
    /// SCAN activity (zero unless the workload issues scans).
    pub scans: u64,
    pub scan_mean_us: f64,
    pub scan_p99_us: f64,
    /// Fast-path counters (Fig. 11).
    pub rptr_hits: u64,
    pub invalid_hits: u64,
    pub msg_gets: u64,
    /// Errors tolerated in non-strict mode.
    pub errors: u64,
}

impl WorkloadReport {
    /// One-line rendering used by the figure binaries.
    pub fn row(&self) -> String {
        format!(
            "{:9.3} Mops | get {:7.2}us p99 {:7.2}us | upd {:7.2}us | hits {:>9} invalid {:>9} msg {:>9}",
            self.mops,
            self.get_mean_us,
            self.get_p99_us,
            self.update_mean_us,
            self.rptr_hits,
            self.invalid_hits,
            self.msg_gets
        )
    }
}

struct Replay {
    ops: Vec<Op>,
    pos: usize,
    version: u64,
    errors: u64,
    inflight: usize,
    finished: bool,
}

/// A one-shot action fired from inside the measured run (see
/// [`run_workload_hooked`]).
pub type OpHook = Box<dyn FnOnce(&mut Sim)>;

/// Hooks pinned to measured-completion counts, fired as the run crosses
/// them. Shared by every client's drive loop so the trigger is the *global*
/// completed-op count, deterministic under the virtual clock.
struct HookState {
    completed: u64,
    /// `(threshold, hook)` sorted ascending; fired hooks become `None`.
    hooks: Vec<(u64, Option<OpHook>)>,
}

impl HookState {
    fn new(mut hooks: Vec<(u64, OpHook)>) -> Rc<RefCell<HookState>> {
        hooks.sort_by_key(|(at, _)| *at);
        Rc::new(RefCell::new(HookState {
            completed: 0,
            hooks: hooks.into_iter().map(|(at, h)| (at, Some(h))).collect(),
        }))
    }

    fn none() -> Rc<RefCell<HookState>> {
        HookState::new(Vec::new())
    }
}

/// Bumps the completion count and fires every hook whose threshold the run
/// has reached (outside the borrow: hooks start migrations, snapshot stats,
/// inject faults — anything that may re-enter the clients).
fn note_completion(sim: &mut Sim, hooks: &Rc<RefCell<HookState>>) {
    let due: Vec<OpHook> = {
        let mut st = hooks.borrow_mut();
        st.completed += 1;
        let n = st.completed;
        st.hooks
            .iter_mut()
            .filter(|(at, h)| *at <= n && h.is_some())
            .map(|(_, h)| h.take().expect("filtered"))
            .collect()
    };
    for hook in due {
        hook(sim);
    }
}

/// Loads `wl.records` and replays `wl` over `clients`, returning the report.
pub fn run_workload<C: KvClient>(
    sim: &mut Sim,
    clients: &[C],
    wl: &Workload,
    cfg: &DriverConfig,
) -> WorkloadReport {
    run_workload_hooked(sim, clients, wl, cfg, Vec::new())
}

/// [`run_workload`] with hooks fired mid-run: each `(at, hook)` pair runs
/// once, as soon as the measured phase's global completed-op count reaches
/// `at`. Elasticity experiments use this to start a migration (or inject a
/// fault) at a workload-pinned instant and to snapshot client statistics at
/// window boundaries. Hooks whose threshold exceeds the total measured op
/// count never fire. The warm-up and load phases never fire hooks.
pub fn run_workload_hooked<C: KvClient>(
    sim: &mut Sim,
    clients: &[C],
    wl: &Workload,
    cfg: &DriverConfig,
    hooks: Vec<(u64, OpHook)>,
) -> WorkloadReport {
    assert!(!clients.is_empty());
    load_records(sim, clients, wl);

    let wl = Rc::new(wl.clone());
    let streams = wl.generate(clients.len());
    let warmup_done = Rc::new(Cell::new(0usize));
    let run_done = Rc::new(Cell::new(0usize));
    let end_time = Rc::new(Cell::new(0u64));
    let strict = cfg.strict;

    let mut replays = Vec::new();
    for s in streams {
        let split = (s.ops.len() as f64 * cfg.warmup_frac) as usize;
        replays.push((
            Rc::new(RefCell::new(Replay {
                ops: s.ops[..split].to_vec(),
                pos: 0,
                version: 1,
                errors: 0,
                inflight: 0,
                finished: false,
            })),
            s.ops[split..].to_vec(),
        ));
    }

    let window = cfg.window.max(1);

    // Warm-up phase.
    let no_hooks = HookState::none();
    for (i, client) in clients.iter().enumerate() {
        let st = replays[i].0.clone();
        drive(
            sim,
            client.clone(),
            wl.clone(),
            st,
            warmup_done.clone(),
            end_time.clone(),
            strict,
            window,
            None,
            no_hooks.clone(),
        );
    }
    sim.run();
    assert_eq!(warmup_done.get(), clients.len(), "warm-up incomplete");

    // Reset and measure.
    for c in clients {
        c.kv_reset_stats();
    }
    let t0 = sim.now();
    end_time.set(t0);
    let hook_state = HookState::new(hooks);
    for (i, client) in clients.iter().enumerate() {
        let (st, measured) = &replays[i];
        {
            let mut st = st.borrow_mut();
            st.ops = measured.clone();
            st.pos = 0;
            st.inflight = 0;
            st.finished = false;
        }
        drive(
            sim,
            client.clone(),
            wl.clone(),
            st.clone(),
            run_done.clone(),
            end_time.clone(),
            strict,
            window,
            cfg.until.clone(),
            hook_state.clone(),
        );
    }
    sim.run();
    assert_eq!(run_done.get(), clients.len(), "measured run incomplete");

    // Aggregate.
    let mut get_lat = Histogram::new();
    let mut update_lat = Histogram::new();
    let mut scan_lat = Histogram::new();
    let (mut rptr_hits, mut invalid_hits, mut msg_gets, mut ops) = (0, 0, 0, 0u64);
    let mut scans = 0u64;
    let mut errors = 0;
    for c in clients {
        let s = c.kv_snapshot();
        get_lat.merge(&s.get_lat);
        update_lat.merge(&s.update_lat);
        scan_lat.merge(&s.scan_lat);
        rptr_hits += s.rptr_hits;
        invalid_hits += s.invalid_hits;
        msg_gets += s.msg_gets;
        scans += s.scans;
        ops += s.ops;
    }
    for (st, _) in &replays {
        errors += st.borrow().errors;
    }
    let elapsed = end_time.get().saturating_sub(t0).max(1);
    WorkloadReport {
        ops,
        elapsed_ns: elapsed,
        mops: ops as f64 / as_secs(elapsed) / 1e6,
        get_mean_us: as_us(get_lat.mean() as u64),
        get_p99_us: as_us(get_lat.quantile(0.99)),
        update_mean_us: as_us(update_lat.mean() as u64),
        update_p50_us: as_us(update_lat.quantile(0.5)),
        update_p99_us: as_us(update_lat.quantile(0.99)),
        scans,
        scan_mean_us: as_us(scan_lat.mean() as u64),
        scan_p99_us: as_us(scan_lat.quantile(0.99)),
        rptr_hits,
        invalid_hits,
        msg_gets,
        errors,
    }
}

/// Inserts all records, striped across the clients, before any measurement.
pub fn load_records<C: KvClient>(sim: &mut Sim, clients: &[C], wl: &Workload) {
    let wl = Rc::new(wl.clone());
    let done = Rc::new(Cell::new(0usize));
    for (i, client) in clients.iter().enumerate() {
        let stride = clients.len() as u64;
        let first = i as u64;
        load_next(sim, client.clone(), wl.clone(), first, stride, done.clone());
    }
    sim.run();
    assert_eq!(done.get(), clients.len(), "load phase incomplete");
}

fn load_next<C: KvClient>(
    sim: &mut Sim,
    client: C,
    wl: Rc<Workload>,
    id: u64,
    stride: u64,
    done: Rc<Cell<usize>>,
) {
    if id >= wl.records {
        done.set(done.get() + 1);
        return;
    }
    let key = wl.key_of(id);
    let value = wl.value_of(id, 0);
    let c2 = client.clone();
    client.kv_insert(
        sim,
        &key,
        &value,
        Box::new(move |sim, r| {
            if let Err(e) = r {
                assert!(matches!(e, OpError::Exists), "load failed: {e:?}");
            }
            load_next(sim, c2, wl, id + stride, stride, done);
        }),
    );
}

/// Issues ops from the replay stream, keeping up to `window` in flight.
/// With `window == 1` this is the classic closed-loop recursion; larger
/// windows keep a pipelined client's frames full. The stream is complete
/// when every op has been issued *and* every completion has come back; with
/// `until`, it cycles until the flag is raised.
#[allow(clippy::too_many_arguments)]
fn drive<C: KvClient>(
    sim: &mut Sim,
    client: C,
    wl: Rc<Workload>,
    st: Rc<RefCell<Replay>>,
    done: Rc<Cell<usize>>,
    end_time: Rc<Cell<u64>>,
    strict: bool,
    window: usize,
    until: Option<Rc<Cell<bool>>>,
    hooks: Rc<RefCell<HookState>>,
) {
    loop {
        let op = {
            let mut s = st.borrow_mut();
            let over = s.ops.is_empty()
                || match &until {
                    Some(u) => u.get(),
                    None => s.pos >= s.ops.len(),
                };
            if over {
                if s.inflight == 0 && !s.finished {
                    s.finished = true;
                    done.set(done.get() + 1);
                    end_time.set(end_time.get().max(sim.now()));
                }
                return;
            }
            if s.inflight >= window {
                return;
            }
            let op = s.ops[s.pos % s.ops.len()];
            s.pos += 1;
            s.inflight += 1;
            op
        };
        let cont: KvCb = {
            let client = client.clone();
            let wl = wl.clone();
            let st = st.clone();
            let done = done.clone();
            let end_time = end_time.clone();
            let until = until.clone();
            let hooks = hooks.clone();
            Box::new(move |sim, r| {
                {
                    let mut s = st.borrow_mut();
                    s.inflight -= 1;
                    if let Err(e) = r {
                        if strict {
                            panic!("workload op failed: {e:?}");
                        }
                        s.errors += 1;
                    }
                }
                note_completion(sim, &hooks);
                drive(
                    sim, client, wl, st, done, end_time, strict, window, until, hooks,
                );
            })
        };
        match op {
            Op::Read(id) => {
                let key = wl.key_of(id);
                client.kv_get(sim, &key, cont);
            }
            Op::Update(id) => {
                let (key, value) = {
                    let mut s = st.borrow_mut();
                    s.version += 1;
                    (wl.key_of(id), wl.value_of(id, s.version))
                };
                client.kv_update(sim, &key, &value, cont);
            }
            Op::Insert(id) => {
                let key = wl.key_of(id);
                let value = wl.value_of(id, 0);
                client.kv_insert(sim, &key, &value, cont);
            }
            Op::Scan(id, len) => {
                let key = wl.key_of(id);
                client.kv_scan(sim, &key, len, cont);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDist, OpMix};
    use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig};

    fn small_wl(read_ratio: f64, dist: KeyDist) -> Workload {
        Workload {
            records: 500,
            ops: 2_000,
            read_ratio,
            dist,
            key_len: 16,
            value_len: 32,
            seed: 5,
            mix: OpMix::ReadUpdate,
        }
    }

    #[test]
    fn driver_completes_and_reports_sane_numbers() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        let wl = small_wl(0.9, KeyDist::zipfian());
        let report = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert!(report.ops >= 1_800, "ops={}", report.ops);
        assert!(report.mops > 0.0);
        assert!(report.get_mean_us > 0.5 && report.get_mean_us < 100.0);
        assert!(report.update_mean_us > 0.5);
        assert_eq!(report.errors, 0);
        assert_eq!(cluster.total_items(), 500);
    }

    #[test]
    fn a_run_with_until_cycles_its_streams_until_the_flag_rises() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        let wl = small_wl(0.9, KeyDist::zipfian());
        let until = Rc::new(Cell::new(false));
        let flag = until.clone();
        let dcfg = DriverConfig {
            until: Some(until),
            ..Default::default()
        };
        // Three times the measured streams' length, then stop.
        let hook: OpHook = Box::new(move |_| flag.set(true));
        let report =
            run_workload_hooked(&mut cluster.sim, &clients, &wl, &dcfg, vec![(5_700, hook)]);
        assert_eq!(report.errors, 0);
        assert!(
            (5_700..5_700 + 4).contains(&report.ops),
            "each client stops after its op in flight: ops={}",
            report.ops
        );
    }

    #[test]
    fn a_run_with_until_ends_at_once_when_no_client_has_ops() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        // Fewer ops than clients: every measured stream is empty.
        let wl = Workload {
            ops: 2,
            ..small_wl(0.9, KeyDist::zipfian())
        };
        let dcfg = DriverConfig {
            until: Some(Rc::new(Cell::new(false))),
            ..Default::default()
        };
        let report = run_workload(&mut cluster.sim, &clients, &wl, &dcfg);
        assert_eq!((report.ops, report.errors), (0, 0));
    }

    #[test]
    fn read_only_zipfian_mostly_hits_pointer_cache() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..2).map(|_| cluster.add_client(0)).collect();
        let wl = small_wl(1.0, KeyDist::zipfian());
        let report = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert!(
            report.rptr_hits > report.msg_gets,
            "hits={} msg={}",
            report.rptr_hits,
            report.msg_gets
        );
        assert_eq!(report.invalid_hits, 0, "read-only cannot invalidate");
    }

    #[test]
    fn update_heavy_zipfian_produces_invalid_hits() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        let wl = small_wl(0.5, KeyDist::zipfian());
        let report = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert!(
            report.invalid_hits > 0,
            "updates must invalidate fast reads"
        );
    }

    #[test]
    fn workload_e_runs_end_to_end_on_hybrid_index() {
        let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        let wl = Workload::workload_e(500, 1_000, 5);
        let report = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert!(report.ops >= 900, "ops={}", report.ops);
        assert_eq!(report.errors, 0);
        assert!(report.scans > 800, "scans={}", report.scans);
        assert!(report.scan_mean_us > 0.5, "scan latency must be recorded");
        // ~5% of 1000 ops insert fresh records.
        assert!(cluster.total_items() > 500, "inserts must land");
    }

    #[test]
    fn deeper_window_beats_closed_loop_throughput() {
        let run = |depth: usize, window: usize| {
            let cfg = ClusterConfig {
                client_nodes: 2,
                client_mode: ClientMode::RdmaWrite,
                pipeline_depth: depth,
                ..Default::default()
            };
            let mut cluster = ClusterBuilder::new(cfg).build();
            let clients: Vec<_> = (0..8).map(|i| cluster.add_client(i % 2)).collect();
            let wl = small_wl(1.0, KeyDist::zipfian());
            let dcfg = DriverConfig {
                window,
                ..Default::default()
            };
            let r = run_workload(&mut cluster.sim, &clients, &wl, &dcfg);
            assert_eq!(r.errors, 0);
            assert!(r.ops >= 1_800, "ops={}", r.ops);
            r.mops
        };
        let closed = run(1, 1);
        let piped = run(16, 16);
        assert!(
            piped > closed,
            "pipelined ({piped}) must beat closed-loop ({closed})"
        );
    }

    #[test]
    fn rdma_modes_rank_correctly_on_throughput() {
        // The RDMA-Read gain is a *server-offload* effect: it shows when the
        // shard CPUs are the bottleneck, which needs the paper's 50-client
        // load against 4 shards (§6.2). In a latency-bound toy regime the
        // cascading invalidation of hot pointers can even flip the sign.
        let run = |mode: ClientMode| {
            let cfg = ClusterConfig {
                client_nodes: 5,
                client_mode: mode,
                ..Default::default()
            };
            let mut cluster = ClusterBuilder::new(cfg).build();
            let clients: Vec<_> = (0..50).map(|i| cluster.add_client(i % 5)).collect();
            let wl = Workload {
                records: 20_000,
                ops: 30_000,
                read_ratio: 0.9,
                dist: KeyDist::zipfian(),
                key_len: 16,
                value_len: 32,
                seed: 5,
                mix: OpMix::ReadUpdate,
            };
            run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default()).mops
        };
        let sendrecv = run(ClientMode::SendRecv);
        let write_only = run(ClientMode::RdmaWrite);
        let write_read = run(ClientMode::RdmaWriteRead);
        assert!(
            write_only > sendrecv,
            "RDMA-Write ({write_only}) must beat Send/Recv ({sendrecv})"
        );
        assert!(
            write_read > write_only,
            "adding RDMA Read ({write_read}) must beat write-only ({write_only})"
        );
    }
}
