//! Cluster set-up and the closed-loop replay.
//!
//! Each simulated client issues its next op when the previous one
//! completes (the paper's YCSB discipline: the callers are frameworks that
//! wait for replies). The harness steps the simulator itself with
//! `Sim::step()` and stops both clocks at the last measured completion; it
//! never goes through `sim.run()`, `load_records` or `run_workload`, which
//! drain the event queue to quiescence and would fold that drain into the
//! host rate.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use hydra_db::{Cluster, ClusterBuilder, HydraClient, OpError, ShardId};
use hydra_sim::time::{SimTime, SEC, US};
use hydra_sim::Sim;
use hydra_wire::ScanItems;
use hydra_ycsb::Op;

use crate::metrics::Mark;
use crate::trace::{self, Tracer};
use crate::workloads::{Spec, KEY_LEN, RECORDS, VALUE_LEN, WARMUP_FRAC};

/// Partition whose primary the `failover` workload kills.
const KILLED_PARTITION: u32 = 0;
/// A client overwrites its private key at every measured stream position
/// that is `PRIVATE_EVERY - 1` modulo `PRIVATE_EVERY` (fault workloads only).
const PRIVATE_EVERY: usize = 64;
/// Per-op spans kept in the trace file (the first traced completions).
const OP_SPAN_SAMPLES: usize = 2_000;

const DONE: u8 = 1;
const WATCH: u8 = 2;

/// Op kinds the latency vectors are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Write = 1,
    Scan = 2,
}

/// The repeating 8-byte word of record `id`'s value at `version`
/// (`Workload::value_of` without the allocation).
fn value_of(id: u64, version: u64) -> [u8; VALUE_LEN] {
    let word = (id ^ version.rotate_left(17)).to_le_bytes();
    let mut v = [0u8; VALUE_LEN];
    for chunk in v.chunks_exact_mut(8) {
        chunk.copy_from_slice(&word);
    }
    v
}

/// A GET result is sound when it is `VALUE_LEN` bytes of one repeating
/// 8-byte word — every value ever written has that shape.
fn value_is_sound(v: &[u8]) -> bool {
    v.len() == VALUE_LEN && v.chunks_exact(8).all(|c| c == &v[..8])
}

/// A merged scan is sound when it parses, holds at most `limit` items, is
/// strictly ascending and starts at or after `start`.
fn scan_is_sound(bytes: &[u8], start: &[u8], limit: u32) -> bool {
    let Some(items) = ScanItems::parse(bytes) else {
        return false;
    };
    if items.len() > limit as usize {
        return false;
    }
    let mut prev: Option<&[u8]> = None;
    for (k, _) in items.iter() {
        if k < start || prev.is_some_and(|p| p >= k) {
            return false;
        }
        prev = Some(k);
    }
    true
}

/// `VmHWM` (peak resident set) of this process in KiB, 0 if unreadable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Nanoseconds of CPU this process has been given (`CLOCK_PROCESS_CPUTIME_ID`).
/// The host clock of the benchmark: on an undisturbed box it advances with
/// the wall clock (the process is one busy thread), and when neighbours
/// preempt the process or the hypervisor steals its core it stops, where the
/// wall clock would charge their time to the code under test.
pub fn cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, the only platform with the `/proc` files this
    // benchmark reads) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host (CPU) seconds each set-up phase took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub build_s: f64,
    pub generate_s: f64,
    pub load_s: f64,
    pub warmup_s: f64,
}

impl Phases {
    /// Start of set-up to first measured issue.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.generate_s + self.load_s + self.warmup_s
    }
}

/// A loaded, warmed cluster ready for the measured window.
pub struct Deployment {
    pub cluster: Cluster,
    pub clients: Vec<HydraClient>,
    /// Record id → key; ids past `RECORDS` are the clients' private keys.
    pub keys: Rc<Vec<Vec<u8>>>,
    /// Per-client measured op streams (the warm-up slice removed).
    pub streams: Rc<Vec<Vec<Op>>>,
    pub phases: Phases,
    /// Host ns `Workload::generate` spent per op.
    pub gen_ns_per_op: f64,
    /// Records loaded (`RECORDS` plus private keys).
    pub loaded: u64,
    /// Fault workloads: a client outside the closed loop and the id of a
    /// record on the killed partition, for the write issued at promotion.
    pub prober: Option<(HydraClient, u64)>,
}

/// Builds the cluster, generates the op streams from `seed`, loads every
/// record and replays the warm-up slice, one child span of `parent` per
/// phase. `ops` is the stream length (warm-up included).
pub fn setup(
    spec: &Spec,
    seed: u64,
    ops: u64,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<Deployment, String> {
    let mut phases = Phases::default();
    // Host seconds since the last call.
    let mut clock = cpu_ns();
    let mut lap = move || {
        let was = std::mem::replace(&mut clock, cpu_ns());
        (clock - was) as f64 / 1e9
    };

    let span = tracer.begin("build", Some(parent));
    let cfg = spec.cluster_config(seed);
    let client_nodes = cfg.client_nodes.max(1) as usize;
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<HydraClient> = (0..spec.clients)
        .map(|i| cluster.add_client(i % client_nodes))
        .collect();
    let prober = spec
        .fault_at
        .map(|_| cluster.add_client(spec.clients % client_nodes));
    tracer.end_with(span, vec![("clients", spec.clients as f64)]);
    phases.build_s = lap();

    let span = tracer.begin("generate", Some(parent));
    let wl = spec.workload(seed, ops);
    let t_gen = cpu_ns();
    let generated = wl.generate(spec.clients);
    let gen_ns_per_op = (cpu_ns() - t_gen) as f64 / ops.max(1) as f64;
    let privates = if spec.fault_at.is_some() {
        spec.clients as u64
    } else {
        0
    };
    let mut keys: Vec<Vec<u8>> = (0..RECORDS).map(|id| wl.key_of(id)).collect();
    keys.extend((0..privates).map(|c| format!("p{c:0w$}", w = KEY_LEN - 1).into_bytes()));
    let mut warm = Vec::with_capacity(spec.clients);
    let mut measured = Vec::with_capacity(spec.clients);
    for (c, s) in generated.into_iter().enumerate() {
        let mut ops = s.ops;
        let split = (ops.len() as f64 * WARMUP_FRAC) as usize;
        let mut tail = ops.split_off(split);
        if privates > 0 {
            // Measured slice only, so every private write is tracked.
            let slots = tail.iter_mut().skip(PRIVATE_EVERY - 1);
            for slot in slots.step_by(PRIVATE_EVERY) {
                *slot = Op::Update(RECORDS + c as u64);
            }
        }
        measured.push(tail);
        warm.push(ops);
    }
    let loaded = RECORDS + privates;
    let load: Vec<Vec<Op>> = (0..spec.clients as u64)
        .map(|c| (c..loaded).step_by(spec.clients).map(Op::Insert).collect())
        .collect();
    let prober = prober.map(|client| {
        let directory = cluster.directory.borrow();
        let on_killed =
            |key: &Vec<u8>| directory.ring.route(key) == Some(ShardId(KILLED_PARTITION));
        let id = keys.iter().position(on_killed);
        (
            client,
            id.expect("some record routes to every partition") as u64,
        )
    });
    let keys = Rc::new(keys);
    tracer.end_with(span, vec![("ops", ops as f64)]);
    phases.generate_s = lap();

    let span = tracer.begin("load", Some(parent));
    let pass = Replay::new(spec, &clients, &keys, Rc::new(load), None, None);
    drive(&mut cluster, &pass)?;
    if cluster.total_items() as u64 != loaded {
        return Err(format!(
            "load left {} items, expected {loaded}",
            cluster.total_items()
        ));
    }
    tracer.end_with(span, vec![("records", loaded as f64)]);
    phases.load_s = lap();

    let span = tracer.begin("warmup", Some(parent));
    let warm_ops: usize = warm.iter().map(Vec::len).sum();
    let pass = Replay::new(spec, &clients, &keys, Rc::new(warm), None, None);
    drive(&mut cluster, &pass)?;
    if spec.fault_at.is_some() {
        // Only now: started before the load, the monitoring horizon would
        // have to cover the load's virtual time as well.
        let until = cluster.sim.now() + 10 * SEC;
        cluster.enable_ha(until);
    }
    tracer.end_with(span, vec![("ops", warm_ops as f64)]);
    phases.warmup_s = lap();

    Ok(Deployment {
        cluster,
        clients,
        keys,
        streams: Rc::new(measured),
        phases,
        gen_ns_per_op,
        loaded,
        prober,
    })
}

/// What happened to the killed primary, in virtual ns after the fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fault {
    pub at: SimTime,
    pub detect_ns: Option<u64>,
    pub promote_ns: Option<u64>,
    /// Fault → success of the prober's write to the killed partition,
    /// issued the moment the promotion is observed.
    pub outage_ns: Option<u64>,
}

/// One sampled op of a traced segment.
pub struct OpSample {
    pub kind: Kind,
    pub issued: Instant,
    pub done: Instant,
    pub virt_issue: SimTime,
    pub virt_done: SimTime,
}

/// Everything the measured window records.
pub struct Window {
    /// The window closes at the first segment boundary after this much
    /// wall time, once the virtual-clock prefix is complete.
    pub deadline: Duration,
    pub virt_ops: u64,
    pub seg_ops: u64,
    /// Virtual ns after the window opens at which the primary is killed.
    pub fault_at: Option<SimTime>,
    /// Alternate tracing on and off by segment (`--trace 1`).
    pub alternate: bool,

    pub opened: Instant,
    pub virt_open: SimTime,
    /// `Sim::executed_events` when the window opened.
    pub open_events: u64,
    pub completed: u64,
    pub failed: u64,
    pub closing: bool,

    /// Virtual time of the `virt_ops`-th completion.
    pub virt_end: SimTime,
    /// Completions the virtual metrics cover (`virt_ops` unless the run was
    /// shorter).
    pub virt_covered: u64,
    /// `Sim::executed_events` at the prefix's last completion.
    pub prefix_events: u64,
    /// Exact virtual-ns latencies inside the prefix, by [`Kind`].
    pub lat: [Vec<u64>; 3],
    /// Per client: the longest it waited for one reply inside the prefix,
    /// failed ops included.
    pub worst_wait: Vec<u64>,
    /// `VmHWM` when the prefix completed: peak memory after a fixed amount
    /// of work, however many ops the host fits into the rest of the window.
    pub prefix_rss_kib: u64,

    pub marks: Vec<Mark>,
    /// `(allocations, bytes)` counted at each mark.
    pub allocs_at: Vec<(u64, u64)>,

    pub fault: Option<Fault>,
    /// The prober's writes that completed and those that failed.
    pub probes: u64,
    pub probes_failed: u64,
    /// Per client: versions its private key may hold (the last acknowledged
    /// write and every later attempt).
    pub private: Vec<Vec<u64>>,

    /// Host ns inside `HydraClient::{get,update,insert,scan}` (traced
    /// segments only).
    pub issue_ns: u64,
    /// Host ns inside completion callbacks, issue of the next op included.
    pub callback_ns: u64,
    /// Host ns inside `Sim::step`, callbacks included.
    pub step_ns: u64,
    pub samples: Vec<OpSample>,
}

impl Window {
    pub fn new(
        spec: &Spec,
        deadline: Duration,
        virt_ops: u64,
        seg_ops: u64,
        fault_at: Option<SimTime>,
        alternate: bool,
    ) -> Window {
        Window {
            deadline,
            virt_ops,
            seg_ops,
            fault_at,
            alternate,
            opened: Instant::now(),
            virt_open: 0,
            open_events: 0,
            completed: 0,
            failed: 0,
            closing: false,
            virt_end: 0,
            virt_covered: 0,
            prefix_events: 0,
            lat: [Vec::new(), Vec::new(), Vec::new()],
            worst_wait: vec![0; spec.clients],
            prefix_rss_kib: 0,
            marks: Vec::new(),
            allocs_at: Vec::new(),
            fault: None,
            probes: 0,
            probes_failed: 0,
            private: vec![vec![0]; spec.clients],
            issue_ns: 0,
            callback_ns: 0,
            step_ns: 0,
            samples: Vec::new(),
        }
    }

    fn mark(&mut self, traced: bool) {
        self.marks.push(Mark {
            ops: self.completed,
            cpu_ns: cpu_ns(),
            traced,
        });
        self.allocs_at.push(trace::alloc_counts());
    }
}

struct State {
    pos: Vec<usize>,
    inflight: Vec<usize>,
    inflight_total: usize,
    version: Vec<u64>,
    /// Unmeasured passes: ops not yet completed, and how many failed.
    remaining: usize,
    failed: u64,
    window: Option<Window>,
}

/// What a completion callback needs to judge and time its op.
struct Tag {
    kind: Kind,
    id: u64,
    limit: u32,
    version: u64,
    virt_issue: SimTime,
    issued: Option<Instant>,
}

/// One closed-loop pass over per-client op streams: the load, the warm-up
/// or the measured window.
pub struct Replay {
    clients: Vec<HydraClient>,
    keys: Rc<Vec<Vec<u8>>>,
    streams: Rc<Vec<Vec<Op>>>,
    depth: usize,
    prober: Option<(HydraClient, u64)>,
    st: RefCell<State>,
    attention: Cell<u8>,
    tracing: Cell<bool>,
}

impl Replay {
    /// A pass over `streams`. With a [`Window`] the pass is measured and the
    /// streams are replayed cyclically until the window's stop condition;
    /// without one each client stops at the end of its stream.
    pub fn new(
        spec: &Spec,
        clients: &[HydraClient],
        keys: &Rc<Vec<Vec<u8>>>,
        streams: Rc<Vec<Vec<Op>>>,
        window: Option<Window>,
        prober: Option<(HydraClient, u64)>,
    ) -> Rc<Replay> {
        let n = clients.len();
        let remaining = streams.iter().map(Vec::len).sum();
        Rc::new(Replay {
            clients: clients.to_vec(),
            keys: keys.clone(),
            streams,
            depth: spec.depth,
            prober,
            st: RefCell::new(State {
                pos: vec![0; n],
                inflight: vec![0; n],
                inflight_total: 0,
                // Version 0 is the loaded value.
                version: vec![0; n],
                remaining,
                failed: 0,
                window,
            }),
            attention: Cell::new(0),
            tracing: Cell::new(false),
        })
    }

    /// Takes the window back once the pass is over.
    pub fn take_window(&self) -> Window {
        self.st
            .borrow_mut()
            .window
            .take()
            .expect("a measured pass holds a window")
    }

    fn with_window(&self, f: impl FnOnce(&mut Window)) {
        if let Some(w) = &mut self.st.borrow_mut().window {
            f(w);
        }
    }

    /// The prober overwrites its record on the killed partition: called
    /// the moment the promotion is observed, so the write's success is the
    /// earliest a new caller could have been served. Unlike the closed-loop
    /// clients' blocked ops it does not wait for a retry timer.
    fn probe(self: &Rc<Self>, sim: &mut Sim) {
        let (client, id) = self.prober.as_ref().expect("a fault workload has a prober");
        let this = self.clone();
        let cb = Box::new(
            move |sim: &mut Sim, res: Result<Option<Vec<u8>>, OpError>| {
                let now = sim.now();
                this.with_window(|w| {
                    w.probes += 1;
                    match (res, &mut w.fault) {
                        (Ok(_), Some(f)) => f.outage_ns = Some(now - f.at),
                        _ => w.probes_failed += 1,
                    }
                });
            },
        );
        client.update(sim, &self.keys[*id as usize], &value_of(*id, 0), cb);
    }

    /// Issues ops for client `c` until its window of `depth` is full or the
    /// pass has nothing more for it.
    fn issue(self: &Rc<Self>, sim: &mut Sim, c: usize) {
        loop {
            let (op, mut tag) = {
                let mut st = self.st.borrow_mut();
                let st = &mut *st;
                if st.inflight[c] >= self.depth {
                    return;
                }
                let stream = &self.streams[c];
                let op = match &mut st.window {
                    Some(w) => {
                        if w.closing || stream.is_empty() {
                            return;
                        }
                        stream[st.pos[c] % stream.len()]
                    }
                    None => match stream.get(st.pos[c]) {
                        Some(op) => *op,
                        None => return,
                    },
                };
                st.pos[c] += 1;
                st.inflight[c] += 1;
                st.inflight_total += 1;
                let (kind, id, limit) = match op {
                    Op::Read(id) => (Kind::Get, id, 0),
                    Op::Update(id) | Op::Insert(id) => (Kind::Write, id, 0),
                    Op::Scan(id, limit) => (Kind::Scan, id, limit),
                };
                let mut version = 0;
                if matches!(op, Op::Update(_)) {
                    st.version[c] += 1;
                    version = st.version[c];
                    if id >= RECORDS {
                        if let Some(w) = &mut st.window {
                            w.private[c].push(version);
                        }
                    }
                }
                let tag = Tag {
                    kind,
                    id,
                    limit,
                    version,
                    virt_issue: sim.now(),
                    issued: None,
                };
                (op, tag)
            };
            let timed = self.tracing.get().then(Instant::now);
            tag.issued = timed;
            let key = &self.keys[tag.id as usize];
            let version = tag.version;
            let this = self.clone();
            let cb = Box::new(move |sim: &mut Sim, res| this.on_done(sim, c, tag, res));
            let client = &self.clients[c];
            match op {
                Op::Read(_) => client.get(sim, key, cb),
                Op::Update(id) => client.update(sim, key, &value_of(id, version), cb),
                Op::Insert(id) => client.insert(sim, key, &value_of(id, 0), cb),
                Op::Scan(_, limit) => client.scan(sim, key, limit, cb),
            }
            if let Some(t) = timed {
                self.with_window(|w| w.issue_ns += t.elapsed().as_nanos() as u64);
            }
        }
    }

    fn on_done(
        self: &Rc<Self>,
        sim: &mut Sim,
        c: usize,
        tag: Tag,
        res: Result<Option<Vec<u8>>, OpError>,
    ) {
        let entered = self.tracing.get().then(Instant::now);
        let now = sim.now();
        let ok = match (&res, tag.kind) {
            (Ok(Some(v)), Kind::Get) => value_is_sound(v),
            (Ok(_), Kind::Write) => true,
            (Ok(Some(bytes)), Kind::Scan) => {
                scan_is_sound(bytes, &self.keys[tag.id as usize], tag.limit)
            }
            // An error, a GET of a loaded key that found nothing, or a scan
            // without a payload.
            _ => false,
        };
        {
            let mut st = self.st.borrow_mut();
            let st = &mut *st;
            st.inflight[c] -= 1;
            st.inflight_total -= 1;
            match &mut st.window {
                None => {
                    st.failed += u64::from(!ok);
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        self.attention.set(DONE);
                    }
                }
                Some(w) => {
                    w.completed += 1;
                    w.failed += u64::from(!ok);
                    if !ok && w.failed <= 5 {
                        let at = now - w.virt_open;
                        let outcome = res.as_ref().map(|v| v.as_ref().map(Vec::len));
                        eprintln!(
                            "failed op: client {c} {:?} id {} at +{at} ns: {outcome:?}",
                            tag.kind, tag.id
                        );
                    }
                    if w.completed <= w.virt_ops {
                        let waited = now - tag.virt_issue;
                        if ok {
                            w.lat[tag.kind as usize].push(waited);
                        }
                        w.worst_wait[c] = w.worst_wait[c].max(waited);
                        w.virt_end = now;
                        w.virt_covered = w.completed;
                        w.prefix_events = sim.executed_events();
                        if w.completed == w.virt_ops {
                            w.prefix_rss_kib = peak_rss_kib();
                        }
                    }
                    if ok && tag.id >= RECORDS {
                        // Acknowledged: older versions can no longer be read.
                        let seen = &mut w.private[c];
                        let at = seen
                            .iter()
                            .position(|&v| v == tag.version)
                            .expect("an issued version is a candidate");
                        seen.drain(..at);
                    }
                    if let (Some(issued), Some(done)) = (tag.issued, entered) {
                        if w.samples.len() < OP_SPAN_SAMPLES {
                            w.samples.push(OpSample {
                                kind: tag.kind,
                                issued,
                                done,
                                virt_issue: tag.virt_issue,
                                virt_done: now,
                            });
                        }
                    }
                    let traced = self.tracing.get();
                    if w.completed % w.seg_ops == 0 {
                        w.mark(traced);
                        w.closing |= w.opened.elapsed() >= w.deadline && w.completed >= w.virt_ops;
                        if w.alternate {
                            let on = (w.completed / w.seg_ops) % 2 == 1;
                            self.tracing.set(on);
                            trace::set_counting(on);
                        }
                    }
                    if w.closing && st.inflight_total == 0 {
                        if w.completed % w.seg_ops != 0 {
                            w.mark(traced);
                        }
                        self.tracing.set(false);
                        trace::set_counting(false);
                        self.attention.set(self.attention.get() | DONE);
                    }
                }
            }
        }
        self.issue(sim, c);
        if let Some(t) = entered {
            self.with_window(|w| w.callback_ns += t.elapsed().as_nanos() as u64);
        }
    }
}

/// Runs one pass to completion by stepping the simulator, injecting the
/// workload's fault when it falls due. An unmeasured pass (load, warm-up)
/// fails if any of its ops does.
pub fn drive(cluster: &mut Cluster, pass: &Rc<Replay>) -> Result<(), String> {
    let virt_open = cluster.sim.now();
    let open_events = cluster.sim.executed_events();
    let mut fault_due = None;
    pass.with_window(|w| {
        w.opened = Instant::now();
        w.virt_open = virt_open;
        w.open_events = open_events;
        w.mark(false);
        fault_due = w.fault_at.map(|t| virt_open + t);
    });
    for c in 0..pass.clients.len() {
        pass.issue(&mut cluster.sim, c);
    }
    // (session, promotions) of the killed partition just before the fault.
    let mut watch = None;
    let mut step_ns = 0u64;
    loop {
        let att = pass.attention.get();
        if att & DONE != 0 {
            break;
        }
        if fault_due.is_some_and(|t| cluster.sim.now() >= t) {
            fault_due = None;
            watch = Some((cluster.session_id(KILLED_PARTITION), cluster.promotions()));
            cluster.kill_primary(KILLED_PARTITION);
            let at = cluster.sim.now();
            pass.with_window(|w| {
                w.fault = Some(Fault {
                    at,
                    ..Fault::default()
                })
            });
            pass.attention.set(att | WATCH);
        } else if att & WATCH != 0 {
            let (session, promotions) = watch.expect("watching follows a fault");
            let detected = !cluster.session_alive_id(session);
            let promoted = cluster.promotions() > promotions;
            let now = cluster.sim.now();
            pass.with_window(|w| {
                let f = w.fault.as_mut().expect("watching follows a fault");
                if detected {
                    f.detect_ns.get_or_insert(now - f.at);
                }
                if promoted {
                    f.promote_ns = Some(now - f.at);
                }
            });
            if promoted {
                pass.probe(&mut cluster.sim);
                pass.attention.set(att & !WATCH);
            }
        }
        let more = if pass.tracing.get() {
            let t = Instant::now();
            let more = cluster.sim.step();
            step_ns += t.elapsed().as_nanos() as u64;
            more
        } else {
            cluster.sim.step()
        };
        if !more {
            return Err("the event queue drained before the pass completed".into());
        }
    }
    pass.with_window(|w| w.step_ns = step_ns);
    let st = pass.st.borrow();
    if st.window.is_none() && st.failed > 0 {
        return Err(format!("{} load or warm-up ops failed", st.failed));
    }
    Ok(())
}

/// Reads every client's private key back and counts those whose value is
/// neither the last acknowledged write nor a later attempt.
pub fn lost_private_writes(dep: &mut Deployment, private: &[Vec<u64>]) -> Result<u64, String> {
    let lost = Rc::new(Cell::new(0u64));
    let pending = Rc::new(Cell::new(dep.clients.len()));
    for (c, client) in dep.clients.iter().enumerate() {
        let id = RECORDS + c as u64;
        let allowed: Vec<[u8; VALUE_LEN]> = private[c].iter().map(|&v| value_of(id, v)).collect();
        let (lost, pending) = (lost.clone(), pending.clone());
        client.get(
            &mut dep.cluster.sim,
            &dep.keys[id as usize],
            Box::new(move |_, res| {
                let held = matches!(&res, Ok(Some(v)) if allowed.iter().any(|a| a == v.as_slice()));
                lost.set(lost.get() + u64::from(!held));
                pending.set(pending.get() - 1);
            }),
        );
    }
    while pending.get() > 0 {
        if !dep.cluster.sim.step() {
            return Err("the event queue drained before the read-back completed".into());
        }
    }
    Ok(lost.get())
}

/// Whether every partition's replicas hold the same items, giving shipped
/// records a bounded stretch of virtual time to land first.
pub fn replicas_converge(cluster: &mut Cluster) -> bool {
    let partitions = cluster.cfg.total_shards();
    for _ in 0..20 {
        let diverged = (0..partitions).any(|p| {
            let dumps = cluster.replica_dumps(p);
            dumps.iter().any(|(_, items)| *items != dumps[0].1)
        });
        if !diverged {
            return true;
        }
        let until = cluster.sim.now() + 500 * US;
        cluster.sim.run_until(until);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::{scan_items_begin, scan_items_finish, scan_items_push};

    fn packed(keys: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        scan_items_begin(&mut out);
        for k in keys {
            scan_items_push(&mut out, k, &value_of(1, 1));
        }
        scan_items_finish(&mut out, false, keys.len() as u32);
        out
    }

    #[test]
    fn values_must_be_one_repeating_word_of_full_length() {
        assert!(value_is_sound(&value_of(42, 7)));
        assert!(!value_is_sound(&value_of(42, 7)[..24]));
        let mut torn = value_of(42, 7);
        torn[8..16].copy_from_slice(&value_of(42, 8)[..8]);
        assert!(!value_is_sound(&torn));
    }

    #[test]
    fn scans_must_parse_stay_sorted_within_limit_and_past_start() {
        assert!(scan_is_sound(&packed(&[b"b", b"c"]), b"b", 2));
        assert!(scan_is_sound(&packed(&[]), b"b", 2));
        assert!(
            !scan_is_sound(&packed(&[b"b", b"c"]), b"b", 1),
            "over limit"
        );
        assert!(!scan_is_sound(&packed(&[b"c", b"b"]), b"a", 5), "unsorted");
        assert!(!scan_is_sound(&packed(&[b"b", b"b"]), b"a", 5), "duplicate");
        assert!(!scan_is_sound(&packed(&[b"a"]), b"b", 5), "before start");
        assert!(!scan_is_sound(b"\x00\x00", b"a", 5), "malformed");
    }
}
