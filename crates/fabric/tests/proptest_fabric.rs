//! Property tests for the software verbs layer: delivery ordering, payload
//! integrity, snapshot semantics and conservation of traffic accounting
//! under arbitrary operation mixes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering;

use hydra_fabric::{BatchWrite, Fabric, FabricConfig, FabricStats, NodeStats, Transport};
use hydra_sim::Sim;
use proptest::prelude::*;

/// What one post leaves behind: delivery ticks, the target region's
/// contents (Sends: the payloads received), and every counter.
type Footprint = (Vec<u64>, Vec<u64>, FabricStats, [NodeStats; 2]);

/// Posts `writes` from a fresh two-node fabric's node a to node b — each as
/// a `post_write`, or each as a `post_write_batch` chain of one.
fn write_footprint(writes: &[Vec<u64>], as_chain: bool) -> Footprint {
    let mut sim = Sim::new(8);
    let fab = Fabric::new(FabricConfig::default());
    let (a, b) = (fab.add_node(), fab.add_node());
    let qp = fab.connect(a, b, Transport::Rdma);
    let (region, mem) = fab.alloc_region(b, writes.iter().map(|w| w.len()).sum());
    let ticks: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let mut off = 0;
    for words in writes {
        let t = ticks.clone();
        let w = BatchWrite {
            words: words.clone(),
            dst_region: region,
            dst_word_off: off,
            on_delivered: Some(Box::new(move |sim: &mut Sim| {
                t.borrow_mut().push(sim.now())
            })),
        };
        off += words.len();
        if as_chain {
            fab.post_write_batch(&mut sim, qp, a, [w]);
        } else {
            fab.post_write(
                &mut sim,
                qp,
                a,
                w.words,
                w.dst_region,
                w.dst_word_off,
                w.on_delivered,
            );
        }
    }
    sim.run();
    let image = mem.iter().map(|w| w.load(Ordering::Relaxed)).collect();
    let ticks = ticks.borrow().clone();
    (
        ticks,
        image,
        fab.stats(),
        [fab.node_stats(a), fab.node_stats(b)],
    )
}

/// The Send twin of [`write_footprint`], on either transport.
fn send_footprint(payloads: &[Vec<u8>], transport: Transport, as_chain: bool) -> Footprint {
    let mut sim = Sim::new(9);
    let fab = Fabric::new(FabricConfig::default());
    let (a, b) = (fab.add_node(), fab.add_node());
    let qp = fab.connect(a, b, transport);
    let got: Rc<RefCell<(Vec<u64>, Vec<u64>)>> = Rc::default();
    {
        let got = got.clone();
        fab.set_recv_handler(
            qp,
            b,
            Rc::new(move |sim: &mut Sim, _qp, p: Vec<u8>| {
                let mut got = got.borrow_mut();
                got.0.push(sim.now());
                got.1.push(p.len() as u64);
                got.1.extend(p.iter().map(|&b| b as u64));
            }),
        );
    }
    for p in payloads {
        if as_chain {
            fab.post_send_batch(&mut sim, qp, a, [p.clone()]);
        } else {
            fab.post_send(&mut sim, qp, a, p.clone());
        }
    }
    sim.run();
    let (ticks, received) = got.borrow().clone();
    (
        ticks,
        received,
        fab.stats(),
        [fab.node_stats(a), fab.node_stats(b)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `post_write` is `post_write_batch` of one WQE and `post_send` is
    /// `post_send_batch` of one payload, on both transports: same delivery
    /// ticks, same bytes landed, same counters.
    #[test]
    fn single_verbs_are_chains_of_one(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..600), 1..8),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..8),
    ) {
        prop_assert_eq!(write_footprint(&writes, true), write_footprint(&writes, false));
        for transport in [Transport::Rdma, Transport::Socket] {
            prop_assert_eq!(
                send_footprint(&payloads, transport, true),
                send_footprint(&payloads, transport, false)
            );
        }
    }

    /// Writes posted on one QP arrive in post order, every payload intact.
    #[test]
    fn writes_deliver_in_order_with_intact_payloads(
        batches in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..32), 1..20),
    ) {
        let mut sim = Sim::new(3);
        let fab = Fabric::new(FabricConfig::default());
        let a = fab.add_node();
        let b = fab.add_node();
        let qp = fab.connect(a, b, Transport::Rdma);
        let total: usize = batches.iter().map(|v| v.len()).sum();
        let (region, mem) = fab.alloc_region(b, total.max(1));
        let deliveries: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut off = 0usize;
        for (i, words) in batches.iter().enumerate() {
            let d = deliveries.clone();
            fab.post_write(
                &mut sim,
                qp,
                a,
                words.clone(),
                region,
                off,
                Some(Box::new(move |_| d.borrow_mut().push(i))),
            );
            off += words.len();
        }
        sim.run();
        // In-order delivery.
        let seen = deliveries.borrow();
        prop_assert_eq!(&*seen, &(0..batches.len()).collect::<Vec<_>>());
        // Payload integrity.
        let mut off = 0usize;
        for words in &batches {
            for (j, &w) in words.iter().enumerate() {
                prop_assert_eq!(mem[off + j].load(Ordering::Relaxed), w);
            }
            off += words.len();
        }
    }

    /// A read posted after a write on the same QP observes that write
    /// (same-channel ordering), and byte counts balance.
    #[test]
    fn read_after_write_same_qp_observes_the_write(value in any::<u64>(), len in 1usize..64) {
        let mut sim = Sim::new(4);
        let fab = Fabric::new(FabricConfig::default());
        let a = fab.add_node();
        let b = fab.add_node();
        let qp = fab.connect(a, b, Transport::Rdma);
        let (region, _mem) = fab.alloc_region(b, len);
        let words = vec![value; len];
        fab.post_write(&mut sim, qp, a, words, region, 0, None);
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
            // Post at a later virtual time than the write's delivery.
            let fab2 = fab.clone();
            sim.schedule_in(50_000, move |sim| {
                fab2.post_read(sim, qp, a, region, 0, len * 8, Box::new(move |_, blob| {
                    *got.borrow_mut() = blob;
                }));
            });
        }
        sim.run();
        let got = got.borrow();
        prop_assert_eq!(got.len(), len * 8);
        for chunk in got.chunks_exact(8) {
            prop_assert_eq!(u64::from_le_bytes(chunk.try_into().unwrap()), value);
        }
        let s = fab.stats();
        prop_assert_eq!(s.bytes, (len * 8 * 2) as u64);
        prop_assert_eq!(fab.node_stats(a).bytes_tx, (len * 8) as u64);
        prop_assert_eq!(fab.node_stats(a).bytes_rx, (len * 8) as u64);
    }

    /// Sends deliver exactly once per post, payload intact, on both
    /// transports.
    #[test]
    fn sends_deliver_exactly_once(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..16),
        socket in any::<bool>(),
    ) {
        let mut sim = Sim::new(5);
        let fab = Fabric::new(FabricConfig::default());
        let a = fab.add_node();
        let b = fab.add_node();
        let t = if socket { Transport::Socket } else { Transport::Rdma };
        let qp = fab.connect(a, b, t);
        let got: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
            fab.set_recv_handler(qp, b, Rc::new(move |_sim: &mut Sim, _qp, p: Vec<u8>| {
                got.borrow_mut().push(p);
            }));
        }
        for p in &payloads {
            fab.post_send(&mut sim, qp, a, p.clone());
        }
        sim.run();
        prop_assert_eq!(&*got.borrow(), &payloads);
        prop_assert_eq!(fab.stats().sends, payloads.len() as u64);
    }

    /// Completion times never precede posting times and grow monotonically
    /// for same-size back-to-back operations (FIFO NICs).
    #[test]
    fn completions_are_causal_and_fifo(n in 2usize..20, size in 1usize..128) {
        let mut sim = Sim::new(6);
        let fab = Fabric::new(FabricConfig::default());
        let a = fab.add_node();
        let b = fab.add_node();
        let qp = fab.connect(a, b, Transport::Rdma);
        let (region, _mem) = fab.alloc_region(b, size);
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..n {
            let t = times.clone();
            fab.post_read(&mut sim, qp, a, region, 0, size * 8, Box::new(move |sim, _| {
                t.borrow_mut().push(sim.now());
            }));
        }
        sim.run();
        let times = times.borrow();
        prop_assert_eq!(times.len(), n);
        prop_assert!(times[0] > 0);
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "completions reordered: {:?}", &*times);
        }
    }
}
