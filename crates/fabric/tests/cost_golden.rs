//! Golden oracle for the fabric's cost model.
//!
//! One scripted sequence over a 3-node fabric posts every verb — single and
//! doorbell-chained Writes (one chain crossing a page boundary), Reads, RDMA
//! and socket Sends single and chained — through eight phases: quiet links,
//! `delay_next`, `duplicate_next`, drops (singles, and WQEs out of the
//! middle of a chain), slow nodes, more QPs than `qp_threshold`, a
//! thrashed 4-entry ICM/MTT cache, and a revoked write permission (the tail
//! of a chain refused at the post, the tail of another refused on arrival).
//! Each phase folds every delivery —
//! `(verb index, delivery tick, bytes landed)` in delivery order — and then
//! the fabric-wide, per-node and fault counters plus the contents of every
//! region into one 64-bit hash. The constants below were generated at the
//! commit *before* the five verbs were folded onto one posting kernel; that
//! refactor had to (and any later change to the NIC model has to) leave
//! every one of them untouched; the eighth was added with the permission
//! epoch, which had to leave the first seven where they were. A mismatch means some WQE was charged a
//! different cost, landed at a different tick, or bumped a different
//! counter.
//!
//! To regenerate after an *intended* model change, run
//! `GOLDEN_PRINT=1 cargo test -p hydra-fabric --test cost_golden -- --nocapture`
//! and paste the printed table.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hydra_fabric::{
    BatchWrite, Fabric, FabricConfig, LinkFault, NodeId, QpId, RegionId, Transport, WcError,
};
use hydra_sim::Sim;

#[rustfmt::skip]
const GOLDEN: [(&str, u64); 8] = [
    ("quiet",        0x2B7D_B5DD_46F3_3875),
    ("delay",        0xCDA3_5821_735A_D47F),
    ("duplicate",    0x4A50_A899_4F7B_29D8),
    ("drop",         0xF42F_BCD8_9116_5161),
    ("slow",         0xCD5D_0CB6_361C_36F0),
    ("qp_pressure",  0x2908_C68B_F6CD_7813),
    ("cache_thrash", 0xA4EE_0451_F910_50A5),
    ("revoked",      0x0280_E3AA_EBE1_E0B2),
];

/// Words per 4 KiB translation page.
const PAGE_WORDS: usize = 512;
/// Every region spans four pages.
const REGION_WORDS: usize = 4 * PAGE_WORDS;

fn fold(hash: &Cell<u64>, values: &[u64]) {
    let mut h = hash.get();
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash.set(h);
}

struct Script {
    sim: Sim,
    fab: Fabric,
    nodes: [NodeId; 3],
    /// One region per node, in node order.
    regions: Vec<(RegionId, Arc<[AtomicU64]>)>,
    hash: Rc<Cell<u64>>,
    /// Verb indices in delivery order (duplicates appear twice).
    delivered: Rc<RefCell<Vec<u64>>>,
    next_verb: u64,
}

impl Script {
    fn new() -> Script {
        let fab = Fabric::new(FabricConfig {
            qp_threshold: 8,
            qp_cache_entries: 4,
            mtt_cache_entries: 4,
            ..FabricConfig::default()
        });
        let nodes = [fab.add_node(), fab.add_node(), fab.add_node()];
        let regions = nodes
            .iter()
            .map(|&n| fab.alloc_region(n, REGION_WORDS))
            .collect();
        Script {
            sim: Sim::new(17),
            fab,
            nodes,
            regions,
            hash: Rc::new(Cell::new(0xCBF2_9CE4_8422_2325)),
            delivered: Rc::new(RefCell::new(Vec::new())),
            next_verb: 0,
        }
    }

    /// Connects `a`–`b` with a recv handler on both ends that folds every
    /// Send it delivers.
    fn connect(&mut self, a: usize, b: usize, transport: Transport) -> QpId {
        let qp = self.fab.connect(self.nodes[a], self.nodes[b], transport);
        for end in [a, b] {
            let (hash, delivered) = (self.hash.clone(), self.delivered.clone());
            self.fab.set_recv_handler(
                qp,
                self.nodes[end],
                Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                    let verb = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    delivered.borrow_mut().push(verb);
                    fold(&hash, &[verb, sim.now(), payload.len() as u64]);
                    fold(
                        &hash,
                        &payload.iter().map(|&b| b as u64).collect::<Vec<_>>(),
                    );
                }),
            );
        }
        qp
    }

    fn verb(&mut self) -> u64 {
        self.next_verb += 1;
        self.next_verb
    }

    /// One Write WQE of `len` words into node `to`'s region at `off`. Its
    /// delivery folds and then consumes (zeroes) the first word, so a
    /// redelivered copy shows in the final memory image.
    fn wqe(&mut self, to: usize, off: usize, len: usize) -> BatchWrite {
        let (region, mem) = self.regions[to].clone();
        self.wqe_into(region, mem, off, len)
    }

    /// [`wqe`](Self::wqe) through an explicit region handle.
    fn wqe_into(
        &mut self,
        region: RegionId,
        mem: Arc<[AtomicU64]>,
        off: usize,
        len: usize,
    ) -> BatchWrite {
        let verb = self.verb();
        let (hash, delivered) = (self.hash.clone(), self.delivered.clone());
        BatchWrite {
            words: (0..len as u64).map(|i| verb * 1_000 + i).collect(),
            dst_region: region,
            dst_word_off: off,
            on_delivered: Some(Box::new(move |sim: &mut Sim| {
                delivered.borrow_mut().push(verb);
                fold(&hash, &[verb, sim.now(), len as u64 * 8]);
                mem[off].store(0, Ordering::Relaxed);
            })),
        }
    }

    fn write(&mut self, qp: QpId, from: usize, to: usize, off: usize, len: usize) {
        let w = self.wqe(to, off, len);
        self.fab.post_write(
            &mut self.sim,
            qp,
            self.nodes[from],
            w.words,
            w.dst_region,
            w.dst_word_off,
            w.on_delivered,
        );
    }

    fn write_chain(&mut self, qp: QpId, from: usize, to: usize, wqes: &[(usize, usize)]) {
        let chain = wqes
            .iter()
            .map(|&(off, len)| self.wqe(to, off, len))
            .collect::<Vec<_>>();
        self.fab
            .post_write_batch(&mut self.sim, qp, self.nodes[from], chain);
    }

    fn read(&mut self, qp: QpId, from: usize, target: usize, off: usize, len_bytes: usize) {
        let verb = self.verb();
        let region = self.regions[target].0;
        let (hash, delivered) = (self.hash.clone(), self.delivered.clone());
        self.fab.post_read(
            &mut self.sim,
            qp,
            self.nodes[from],
            region,
            off,
            len_bytes,
            Box::new(move |sim, blob| {
                delivered.borrow_mut().push(verb);
                fold(&hash, &[verb, sim.now(), blob.len() as u64]);
                fold(&hash, &blob.iter().map(|&b| b as u64).collect::<Vec<_>>());
            }),
        );
    }

    fn payload(&mut self, len: usize) -> Vec<u8> {
        assert!(len >= 8, "payload carries its verb index");
        let verb = self.verb();
        let mut p = verb.to_le_bytes().to_vec();
        p.extend((8..len).map(|i| (verb as usize + i) as u8));
        p
    }

    fn send(&mut self, qp: QpId, from: usize, len: usize) {
        let p = self.payload(len);
        self.fab.post_send(&mut self.sim, qp, self.nodes[from], p);
    }

    fn send_chain(&mut self, qp: QpId, from: usize, lens: &[usize]) {
        let chain: Vec<Vec<u8>> = lens.iter().map(|&l| self.payload(l)).collect();
        self.fab
            .post_send_batch(&mut self.sim, qp, self.nodes[from], chain);
    }

    /// The common burst: every verb shape once, posted back to back so they
    /// contend for the NIC engines. Node 0 initiates towards node 1 over
    /// `rdma` and `socket`, plus one cross hop to node 2 and one reverse
    /// write.
    fn burst(&mut self, rdma: QpId, socket: QpId, cross: QpId) {
        self.write(rdma, 0, 1, 0, 8);
        // Second WQE straddles the page-0/page-1 boundary.
        self.write_chain(
            rdma,
            0,
            1,
            &[(16, 4), (PAGE_WORDS - 2, 4), (2 * PAGE_WORDS, 1)],
        );
        self.read(rdma, 0, 1, 0, 64);
        self.read(rdma, 0, 1, PAGE_WORDS - 4, 61);
        self.send(rdma, 0, 32);
        self.send_chain(rdma, 0, &[16, 200, 9]);
        self.send(socket, 0, 40);
        self.send_chain(socket, 0, &[8, 100, 33]);
        self.write(cross, 0, 2, 3 * PAGE_WORDS, 2);
        self.write(rdma, 1, 0, 40, 3);
    }

    /// Drains the queue and closes a phase: folds the counters and every
    /// region's contents, returns the phase hash and starts a fresh one.
    fn close_phase(&mut self) -> u64 {
        self.sim.run();
        let s = self.fab.stats();
        fold(
            &self.hash,
            &[
                s.writes,
                s.reads,
                s.sends,
                s.bytes,
                s.doorbells,
                self.sim.now(),
            ],
        );
        let f = self.fab.fault_stats();
        fold(&self.hash, &[f.dropped, f.delayed, f.duplicated]);
        for &n in &self.nodes {
            let s = self.fab.node_stats(n);
            fold(
                &self.hash,
                &[
                    s.writes,
                    s.reads,
                    s.sends,
                    s.bytes_tx,
                    s.bytes_rx,
                    s.doorbells,
                    s.qp_cache_hits,
                    s.qp_cache_misses,
                    s.mtt_cache_hits,
                    s.mtt_cache_misses,
                    s.miss_penalty_ns,
                ],
            );
        }
        for (_, mem) in &self.regions {
            let image: Vec<u64> = mem.iter().map(|w| w.load(Ordering::Relaxed)).collect();
            fold(&self.hash, &image);
        }
        self.hash.replace(0xCBF2_9CE4_8422_2325)
    }
}

#[test]
fn fabric_cost_model_matches_the_pre_kernel_oracle() {
    let mut s = Script::new();
    let rdma = s.connect(0, 1, Transport::Rdma);
    let socket = s.connect(0, 1, Transport::Socket);
    let cross = s.connect(0, 2, Transport::Rdma);
    let (a, b) = (s.nodes[0], s.nodes[1]);
    let mut got = Vec::new();

    // quiet: a contended burst, then the same verbs on idle engines.
    s.burst(rdma, socket, cross);
    s.sim.run();
    s.burst(rdma, socket, cross);
    got.push(s.close_phase());

    // delay: pair-level program on a->b spanning a single, a chain and a
    // read; a QP-level one on the cross hop.
    s.fab.set_pair_fault(a, b, LinkFault::delay_next(5, 7_000));
    s.fab.set_qp_fault(cross, LinkFault::delay_next(1, 3_000));
    s.burst(rdma, socket, cross);
    got.push(s.close_phase());

    // duplicate: a Send and the head of a Write chain land twice.
    s.fab.set_pair_fault(a, b, LinkFault::duplicate_next(3));
    s.send(rdma, 0, 24);
    s.write_chain(rdma, 0, 1, &[(64, 2), (72, 2), (80, 2)]);
    s.send_chain(socket, 0, &[12, 12]);
    s.burst(rdma, socket, cross);
    got.push(s.close_phase());

    // drop: three singles vanish whole; then a seeded probabilistic program
    // takes WQEs out of the middle of a Write chain and a Send chain (the
    // chains' heads survive — asserted below).
    s.fab.set_pair_fault(a, b, LinkFault::drop_next(3));
    s.write(rdma, 0, 1, 96, 2);
    s.send(rdma, 0, 16);
    s.read(rdma, 0, 1, 0, 8);
    s.fab.set_pair_fault(
        a,
        b,
        LinkFault {
            drop_prob: 0.4,
            ..LinkFault::default()
        },
    );
    let first_write = s.next_verb + 1;
    s.write_chain(
        rdma,
        0,
        1,
        &[(100, 1), (102, 1), (104, 1), (106, 1), (108, 1), (110, 1)],
    );
    let first_send = s.next_verb + 1;
    s.send_chain(rdma, 0, &[8, 9, 10, 11, 12, 13]);
    s.send_chain(socket, 0, &[8, 9, 10, 11]);
    s.sim.run();
    for (first, what) in [(first_write, "write"), (first_send, "send")] {
        let delivered = s.delivered.borrow();
        let landed = (first..first + 6).filter(|v| delivered.contains(v)).count();
        assert!(
            delivered.contains(&first) && landed < 6,
            "script precondition: the {what} chain keeps its head and loses a later WQE \
             ({landed}/6 landed)"
        );
    }
    s.fab.heal();
    got.push(s.close_phase());

    // slow: a throttled target, then a throttled initiator as well.
    s.fab.set_node_slow(b, 3.0);
    s.burst(rdma, socket, cross);
    s.sim.run();
    s.fab.set_node_slow(a, 2.5);
    s.burst(rdma, socket, cross);
    s.sim.run();
    s.fab.set_node_slow(a, 1.0);
    s.fab.set_node_slow(b, 1.0);
    got.push(s.close_phase());

    // qp_pressure: both endpoints past qp_threshold (8) connections.
    let extra: Vec<QpId> = (0..12).map(|_| s.connect(0, 1, Transport::Rdma)).collect();
    s.burst(rdma, socket, cross);
    got.push(s.close_phase());

    // cache_thrash: round-robin over more QPs than ICM lines and more pages
    // than MTT lines, singles and chains alike.
    for round in 0..3 {
        for (i, &qp) in extra.iter().take(6).enumerate() {
            s.write(qp, 0, 1, (i % 4) * PAGE_WORDS + 8 * round, 2);
            s.send(qp, 0, 16);
        }
        for (i, &qp) in extra.iter().skip(6).enumerate() {
            s.write_chain(
                qp,
                0,
                1,
                &[
                    (i * 64, 1),
                    (PAGE_WORDS + i * 64, 1),
                    (3 * PAGE_WORDS - 1, 2),
                ],
            );
            s.send_chain(qp, 0, &[8, 24]);
            // One page's worth of bytes starting mid-page: two MTT entries.
            s.read(qp, 0, 1, (i % 3) * PAGE_WORDS + 256, 8 * PAGE_WORDS);
        }
    }
    got.push(s.close_phase());

    // revoked: a region of its own on node 1, every completion in error on
    // the a->b connection folded with its tick.
    let (x, x_mem) = s.fab.alloc_region(b, REGION_WORDS);
    {
        let hash = s.hash.clone();
        s.fab.set_error_handler(
            rdma,
            a,
            Rc::new(move |sim: &mut Sim, _qp, err: WcError| {
                fold(&hash, &[0xE44, sim.now(), err as u64]);
            }),
        );
    }
    // Refused at the post: a chain whose head aims at node 1's ordinary
    // region and whose tail goes through a handle revoked beforehand. The
    // head lands; the tail is charged like a dropped tail — no NIC time, no
    // counters, the one doorbell stays with the head — and bounces.
    let x1 = s.fab.revoke_write(x);
    let before = s.fab.stats();
    let chain = vec![
        s.wqe(1, 200, 2),
        s.wqe(1, 208, 2),
        s.wqe_into(x, x_mem.clone(), 0, 2),
        s.wqe_into(x, x_mem.clone(), 8, 2),
    ];
    s.fab.post_write_batch(&mut s.sim, rdma, a, chain);
    s.sim.run();
    let after = s.fab.stats();
    assert_eq!(
        (
            after.writes - before.writes,
            after.doorbells - before.doorbells,
            after.errors - before.errors
        ),
        (2, 1, 2),
        "two WQEs charged under one doorbell, two refused"
    );
    // Refused on arrival: the permission goes while the chain is in flight —
    // the head's delivery revokes it — so the rest has paid its way and
    // bounces off the target, the memory untouched.
    let mut chain = vec![
        s.wqe_into(x1, x_mem.clone(), 16, 2),
        s.wqe_into(x1, x_mem.clone(), 24, 2),
        s.wqe_into(x1, x_mem.clone(), 32, 2),
    ];
    let (fab, landed) = (s.fab.clone(), chain[0].on_delivered.take().unwrap());
    chain[0].on_delivered = Some(Box::new(move |sim: &mut Sim| {
        landed(sim);
        fab.revoke_write(x1);
    }));
    s.fab.post_write_batch(&mut s.sim, rdma, a, chain);
    s.burst(rdma, socket, cross);
    s.sim.run();
    let image: Vec<u64> = x_mem.iter().map(|w| w.load(Ordering::Relaxed)).collect();
    assert_eq!(
        image.iter().filter(|&&w| w != 0).count(),
        1,
        "of five WQEs aimed at the region, one landed (its first word consumed)"
    );
    fold(&s.hash, &image);
    fold(&s.hash, &[s.fab.stats().errors]);
    got.push(s.close_phase());

    if std::env::var("GOLDEN_PRINT").is_ok() {
        for ((name, _), hash) in GOLDEN.iter().zip(&got) {
            let h = format!("{hash:016X}");
            println!(
                "    ({:<15} 0x{}_{}_{}_{}),",
                format!("\"{name}\","),
                &h[0..4],
                &h[4..8],
                &h[8..12],
                &h[12..16]
            );
        }
        return;
    }
    for ((name, golden), hash) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            hash, golden,
            "phase {name}: fabric cost golden moved ({hash:#018X} vs {golden:#018X})"
        );
    }
}
