//! Golden oracle for the request path.
//!
//! Ten fixed-seed arms drive the whole client → fabric → shard → replication
//! → response route and fold every completion — `(op index, completion tick,
//! result bytes)` in completion order — into one 64-bit hash per arm. The
//! constants below were generated at the commit *before* the closed-loop
//! client, the FIFO dispatch and the singleton executor were folded into the
//! windowed client, the lane scheduler and the quantum kernel; the refactor
//! had to (and any later change to the path has to) leave every one of them
//! untouched. A mismatch means some op completed at a different virtual tick
//! or with different bytes.
//!
//! Re-pinned five times since, on purpose. First, every arm drives scans, and
//! the client began asking each partition for a quota instead of the whole
//! limit (`client::scan_quota`), so every scan — and every op queued behind
//! one — completes earlier. With the scans of the op stream issued as GETs
//! instead, the ten hashes of that commit and of its parent are equal:
//! nothing but scans moved. Second, the nine depth-1 arms, when a shard
//! began serving the bare requests queued in a lane together as one sweep
//! (one quantum at the batched marginal cost, each response leaving at
//! dispatch plus its cumulative price, one replication shipment): eight
//! clients at depth 1 queue bare requests at a shard, so their ops complete
//! at other ticks. The depth-8 arm ships frames, which never sweep, and
//! kept its hash. With one client per arm, where no queue can form, all ten
//! hashes of that commit and of its parent are equal. Third, the seven
//! replicated arms, when every quantum began to run through one executor at
//! dispatch — a lone request, a frame and a sweep alike — except one holding
//! a write replicated under Strict, which runs when its slot ends (§14's
//! execute-then-replicate order, now for sweeps too). The six replicated
//! depth-1 arms move because a swept Strict write used to ship before its
//! merge and now ships after it, and a Strict sweep's GETs answer at the
//! slot's end with it; under group commit, a response due when its slot ends
//! (a lone write, a sweep's last member) now leaves from the slot's
//! completion event before the next pick is dispatched, where it used to
//! leave from an event of its own after it — behind the next quantum's
//! shipment on the NIC. The depth-8 arm moves because a group-commit frame
//! now runs at dispatch, its record's flight overlapping the merge as a lone
//! write's did. The three unreplicated arms kept their hashes; with one
//! client per arm, the nine depth-1 hashes of that commit and of its parent
//! are equal. Fourth, the three Strict arms, when Strict stopped acking
//! records unasked and began to solicit its ack like the other modes: every
//! Strict record now ships with an `AckRequest` behind it in its doorbell,
//! which the secondary's applier spends its control cost on before it
//! acks, so each Strict write completes a little later. The seven other
//! arms kept their hashes. Fifth, seven arms, when superseded work on hot
//! keys stopped being paid for. A client no longer reads a pointer it has
//! seen superseded until the key is seen holding still, but asks the shard
//! (a message GET): that moves the three `RdmaWriteRead` arms, and alone
//! leaves the seven others untouched. A shard no longer writes an UPDATE
//! that a later UPDATE of the same key overwrites inside the same quantum,
//! but answers it at a GET's price: that moves the six arms where two
//! UPDATEs of a key met in one sweep or frame (`write_read/none`,
//! `write_read/gc`, `write/none`, `write/strict`, `send_recv/gc`,
//! `write/gc/depth8`), and alone leaves the four others untouched. With both
//! rules switched off in a scratch copy, all ten hashes are the parent's.
//!
//! Arms: `{RdmaWriteRead, RdmaWrite, SendRecv}` × `{no replica, one replica
//! under GroupCommit, one replica under Strict}` at depth 1, plus `RdmaWrite`
//! × GroupCommit at depth 8 with QP multiplexing and the SRQ on. Each arm
//! runs 8 clients over 2 000 ops: 10 % scans, the rest 50/50 GET/UPDATE.
//!
//! To regenerate after an *intended* timing change, run
//! `GOLDEN_PRINT=1 cargo test -p hydra-integration --test request_path_golden -- --nocapture`
//! and paste the printed table.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::client::OpError;
use hydra_db::{ClientMode, Cluster, ClusterBuilder, ClusterConfig, HydraClient, ReplicationMode};
use hydra_sim::Sim;

const CLIENTS: usize = 8;
const OPS: usize = 2_000;
const KEYS: u64 = 512;

#[derive(Clone, Copy)]
struct Arm {
    name: &'static str,
    mode: ClientMode,
    /// `None`: no replica.
    replication: Option<ReplicationMode>,
    depth: usize,
    golden: u64,
}

const fn arm(
    name: &'static str,
    mode: ClientMode,
    replication: Option<ReplicationMode>,
    depth: usize,
    golden: u64,
) -> Arm {
    Arm {
        name,
        mode,
        replication,
        depth,
        golden,
    }
}

use ClientMode::{RdmaWrite, RdmaWriteRead, SendRecv};
const NO_REPL: Option<ReplicationMode> = None;
const GC: Option<ReplicationMode> = Some(ReplicationMode::GroupCommit);
const STRICT: Option<ReplicationMode> = Some(ReplicationMode::Strict);

#[rustfmt::skip]
const ARMS: [Arm; 10] = [
    arm("write_read/none",   RdmaWriteRead, NO_REPL,     1, 0xDE9E_A3AB_3239_EE30),
    arm("write_read/gc",     RdmaWriteRead, GC,          1, 0xF600_5F39_D99C_AF47),
    arm("write_read/strict", RdmaWriteRead, STRICT,      1, 0x1CA0_DB57_A7CA_248A),
    arm("write/none",        RdmaWrite,     NO_REPL,     1, 0xD9C2_DAC7_63BB_C12C),
    arm("write/gc",          RdmaWrite,     GC,          1, 0xD555_17B5_A1C9_4BFE),
    arm("write/strict",      RdmaWrite,     STRICT,      1, 0x11DC_8872_1AF5_01CD),
    arm("send_recv/none",    SendRecv,      NO_REPL,     1, 0x0E1A_AB3A_75AD_0605),
    arm("send_recv/gc",      SendRecv,      GC,          1, 0xC16A_6874_8F42_DE1C),
    arm("send_recv/strict",  SendRecv,      STRICT,      1, 0x2E72_D466_9638_50DB),
    arm("write/gc/depth8",   RdmaWrite,     GC,          8, 0x2495_33FE_6790_02CF),
];

fn key_of(id: u64) -> Vec<u8> {
    format!("golden-key-{id:05}").into_bytes()
}

fn value_of(id: u64, version: u64) -> Vec<u8> {
    format!("golden-value-{id:05}-{version:08}-padpadpadpadpadpad").into_bytes()
}

/// splitmix64: the op streams must not depend on any crate under test.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fold(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

struct Run {
    hash: Cell<u64>,
    completed: Cell<usize>,
    /// Per-client (rng state, ops issued).
    streams: RefCell<Vec<(u64, usize)>>,
}

/// Issues client `c`'s next op (if its stream has any left); the completion
/// folds into the hash and issues the one after.
fn issue(run: &Rc<Run>, clients: &Rc<Vec<HydraClient>>, sim: &mut Sim, c: usize) {
    let per_client = OPS / CLIENTS;
    let (draw, local) = {
        let mut streams = run.streams.borrow_mut();
        let (state, issued) = &mut streams[c];
        if *issued == per_client {
            return;
        }
        *issued += 1;
        (next(state), *issued - 1)
    };
    let index = (c * per_client + local) as u64;
    let id = (draw >> 16) % KEYS;
    let (run2, clients2) = (run.clone(), clients.clone());
    let cb = Box::new(
        move |sim: &mut Sim, res: Result<Option<Vec<u8>>, OpError>| {
            let mut h = run2.hash.get();
            fold(&mut h, &index.to_le_bytes());
            fold(&mut h, &sim.now().to_le_bytes());
            match &res {
                Ok(Some(v)) => {
                    fold(&mut h, b"v");
                    fold(&mut h, v);
                }
                Ok(None) => fold(&mut h, b"n"),
                Err(e) => fold(&mut h, format!("e{e:?}").as_bytes()),
            }
            run2.hash.set(h);
            run2.completed.set(run2.completed.get() + 1);
            issue(&run2, &clients2, sim, c);
        },
    );
    let client = &clients[c];
    match draw % 20 {
        0 | 1 => client.scan(sim, &key_of(id), 1 + ((draw >> 40) % 48) as u32, cb),
        d if d % 2 == 0 => client.get(sim, &key_of(id), cb),
        _ => client.update(sim, &key_of(id), &value_of(id, index + 1), cb),
    }
}

fn build(arm: &Arm) -> Cluster {
    let pipelined = arm.depth > 1;
    ClusterBuilder::new(ClusterConfig {
        seed: 20_150_915,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        client_mode: arm.mode,
        replicas: u32::from(arm.replication.is_some()),
        replication: arm.replication.unwrap_or(ReplicationMode::GroupCommit),
        pipeline_depth: arm.depth,
        max_batch: 8,
        mux_connections: pipelined,
        srq: pipelined,
        ..ClusterConfig::default()
    })
    .build()
}

fn run_arm(arm: &Arm) -> u64 {
    let mut cluster = build(arm);
    let clients: Rc<Vec<HydraClient>> =
        Rc::new((0..CLIENTS).map(|c| cluster.add_client(c % 2)).collect());
    for id in 0..KEYS {
        hydra_integration::put_ok(&mut cluster, &clients[0], &key_of(id), &value_of(id, 0));
    }
    let run = Rc::new(Run {
        hash: Cell::new(0xCBF2_9CE4_8422_2325),
        completed: Cell::new(0),
        streams: RefCell::new(
            (0..CLIENTS)
                .map(|c| (0xD1B5_4A32_D192_ED03 ^ (c as u64) << 32, 0))
                .collect(),
        ),
    });
    for c in 0..CLIENTS {
        for _ in 0..arm.depth {
            issue(&run, &clients, &mut cluster.sim, c);
        }
    }
    while run.completed.get() < OPS {
        assert!(
            cluster.sim.step(),
            "{}: queue drained at {}/{OPS} completions",
            arm.name,
            run.completed.get()
        );
    }
    for client in clients.iter() {
        assert_eq!(client.in_flight(), 0, "{}: ops left in flight", arm.name);
        assert_eq!(client.stats().timeouts, 0, "{}: an op timed out", arm.name);
    }
    run.hash.get()
}

#[test]
fn every_arm_matches_its_parent_commit_hash() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    for arm in &ARMS {
        let got = run_arm(arm);
        if print {
            println!("{:<20} 0x{got:016X}", arm.name);
        }
        if got != arm.golden {
            mismatches.push(format!(
                "{}: got 0x{got:016X}, golden 0x{:016X}",
                arm.name, arm.golden
            ));
        }
    }
    assert!(
        print || mismatches.is_empty(),
        "request path diverged from the parent commit:\n{}",
        mismatches.join("\n")
    );
}

/// The hash must be a function of the path, not of the run: two builds of
/// the same arm agree (guards the oracle itself against hidden nondeterminism
/// such as hash-map iteration order leaking into timing).
#[test]
fn an_arm_hashes_the_same_twice() {
    let arm = &ARMS[9];
    assert_eq!(run_arm(arm), run_arm(arm));
}
