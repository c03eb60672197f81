//! Fabric latency/capacity model parameters.

use hydra_sim::time::{SimTime, US};

/// Which protocol stack a queue pair runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Native reliable-connection RDMA verbs: one-sided Read/Write plus
    /// Send/Recv, microsecond-scale latency, zero target CPU for one-sided
    /// operations.
    Rdma,
    /// Kernel socket path (TCP or IPoIB): Send/Recv only, tens of
    /// microseconds of protocol latency; receive processing costs target CPU
    /// (charged by the receiving actor).
    Socket,
}

// Calibrated latencies, approximating the paper's testbed: 40 Gbps
// ConnectX-3 on an IS5030 switch (RDMA read RTT 1–3 µs for small items)
// with IPoIB measured in the tens of microseconds. Absolute values only
// anchor the scale; the figures claim shapes/ratios (EXPERIMENTS.md). Every
// experiment runs at these values, so they are constants rather than
// `FabricConfig` fields.

/// One-way propagation + switch latency for RDMA packets.
pub(crate) const RDMA_PROP_NS: SimTime = 600;
/// Per-operation initiator NIC overhead (WQE fetch, doorbell).
pub(crate) const RDMA_OP_NS: SimTime = 100;
/// Marginal initiator NIC cost of each additional WQE in a doorbell batch:
/// the NIC fetches the chained WQE but the MMIO doorbell and PCIe round trip
/// were already paid by the first operation of the batch.
pub(crate) const RDMA_WQE_NS: SimTime = 25;
/// Target-side DMA engine setup cost for one-sided operations.
pub(crate) const RDMA_DMA_NS: SimTime = 120;
/// Additional cost of the two-sided path (recv WQE consumption + CQE)
/// applied at the receiver, on top of [`RDMA_DMA_NS`].
pub(crate) const SEND_RECV_EXTRA_NS: SimTime = 350;
/// NIC serialization cost per byte (0.2 ns/B = 40 Gbps).
pub(crate) const NIC_BYTE_NS: f64 = 0.2;
/// One-way latency of the kernel socket path (IPoIB/TCP).
pub(crate) const SOCKET_PROP_NS: SimTime = 28 * US;
/// Fractional per-op overhead added per QP beyond
/// [`FabricConfig::qp_threshold`] (0.004 → +40% at threshold + 100 QPs).
pub(crate) const QP_PENALTY_PER_CONN: f64 = 0.004;
/// PCIe round-trip surcharge for fetching evicted QP state or a translation
/// entry from host memory (per cold entry touched).
pub(crate) const NIC_MISS_NS: SimTime = 500;

// A miss surcharge is a PCIe round trip: same order of magnitude as the
// doorbell, far below the propagation delay.
const _: () = assert!(NIC_MISS_NS >= RDMA_OP_NS && NIC_MISS_NS <= RDMA_PROP_NS);

/// The fabric parameters experiments vary: socket-path costs, the
/// driver-penalty threshold, the NIC cache capacities and the default
/// translation page size.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Socket-path per-byte cost (protocol + copies; effective ~8 Gbps).
    pub socket_byte_ns: f64,
    /// Per-message socket stack overhead (syscalls, skb handling) per side.
    pub socket_op_ns: SimTime,
    /// QP count beyond which driver overhead starts growing (§6.3).
    pub qp_threshold: u32,
    /// Per-node on-chip QP-state (ICM) cache capacity, in connections. RC
    /// QP context lives in host memory and is cached on the NIC; once a
    /// node terminates more active connections than fit, every op on a
    /// cold QP pays a PCIe fetch (`NIC_MISS_NS`) — the RDMAvisor
    /// connection-scaling cliff. `0` disables the model (infinite cache).
    pub qp_cache_entries: usize,
    /// Per-node on-chip memory-translation (MTT) cache capacity, in page
    /// entries. Registered regions consume one translation entry per
    /// `page_bytes` page; accesses to pages evicted from the cache pay
    /// the same PCIe fetch. `0` disables the model.
    pub mtt_cache_entries: usize,
    /// Translation granularity for regions registered without an explicit
    /// page size ([`crate::Fabric::alloc_region`]). 4 KiB matches default mappings;
    /// huge-page registrations pass 2 MiB explicitly and collapse their
    /// MTT footprint ~512×.
    pub default_page_bytes: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            socket_byte_ns: 1.0,
            socket_op_ns: 4 * US,
            qp_threshold: 320,
            qp_cache_entries: 1024,
            mtt_cache_entries: 16 * 1024,
            default_page_bytes: 4096,
        }
    }
}

impl FabricConfig {
    /// Serialization/copy time of `bytes` on the socket path.
    pub(crate) fn socket_ser(&self, bytes: usize) -> SimTime {
        (bytes as f64 * self.socket_byte_ns).round() as SimTime
    }

    /// One-way latency of a `bytes`-long message on the socket path, stack
    /// to stack: both ends' per-message overhead and copies plus the flight
    /// — what a Send over a [`Transport::Socket`] QP takes on idle engines.
    /// Control messages that travel outside the fabric (to and from the
    /// coordination service) are charged this.
    pub fn socket_one_way(&self, bytes: usize) -> SimTime {
        2 * (self.socket_op_ns + self.socket_ser(bytes)) + SOCKET_PROP_NS
    }

    /// Driver-scalability multiplier for a node with `qps` connections.
    pub(crate) fn qp_penalty(&self, qps: u32) -> f64 {
        let excess = qps.saturating_sub(self.qp_threshold) as f64;
        1.0 + excess * QP_PENALTY_PER_CONN
    }
}

/// Serialization time of `bytes` on the RDMA NIC.
pub(crate) fn nic_ser(bytes: usize) -> SimTime {
    (bytes as f64 * NIC_BYTE_NS).round() as SimTime
}

/// Initiator NIC time of one WQE carrying `ser` ns of serialization under
/// the node's service-time multiplier `penalty`: the first WQE of a doorbell
/// pays the full per-op cost, each chained one only the marginal WQE fetch.
/// The posting kernel's formula, rounded once.
pub(crate) fn wqe_cost(first: bool, ser: SimTime, penalty: f64) -> SimTime {
    let base = if first { RDMA_OP_NS } else { RDMA_WQE_NS };
    scaled(base + ser, penalty)
}

/// `ns` of NIC service time stretched by a node's multiplier (QP-count
/// driver penalty × injected slowdown).
pub(crate) fn scaled(ns: SimTime, penalty: f64) -> SimTime {
    (ns as f64 * penalty).round() as SimTime
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_bytes() {
        let c = FabricConfig::default();
        assert_eq!(nic_ser(0), 0);
        assert_eq!(nic_ser(1000), 200);
        assert_eq!(c.socket_ser(1000), 1000);
    }

    #[test]
    fn nic_cache_defaults_are_coherent() {
        let c = FabricConfig::default();
        // The on-chip caches must be comfortably larger than the QP-penalty
        // threshold: the driver penalty is the soft slope, the cache cliff
        // the hard one, and they should engage in that order.
        assert!(c.qp_cache_entries as u32 > c.qp_threshold);
        assert!(c.mtt_cache_entries > c.qp_cache_entries);
        assert!(c.default_page_bytes.is_power_of_two());
        // Huge pages collapse the MTT footprint by 512x against the default.
        assert_eq!((2 << 20) / c.default_page_bytes, 512);
    }

    #[test]
    fn qp_penalty_kicks_in_past_threshold() {
        let c = FabricConfig::default();
        assert_eq!(c.qp_penalty(1), 1.0);
        assert_eq!(c.qp_penalty(320), 1.0);
        assert!(c.qp_penalty(520) > 1.5);
        assert!(wqe_cost(true, 0, c.qp_penalty(700)) > wqe_cost(true, 0, c.qp_penalty(10)));
    }

    #[test]
    fn small_rdma_read_rtt_is_one_to_three_microseconds() {
        // Sanity-anchor the default model against the paper's quoted range.
        let c = FabricConfig::default();
        let item = 64usize;
        let rtt = wqe_cost(true, 0, c.qp_penalty(4)) // initiator
            + RDMA_PROP_NS // request flight
            + RDMA_DMA_NS + nic_ser(item) // target DMA + response ser
            + RDMA_PROP_NS; // response flight
        assert!((1_000..=3_000).contains(&rtt), "rtt={rtt}ns");
    }

    #[test]
    fn doorbell_batch_amortizes_the_per_op_cost() {
        let c = FabricConfig::default();
        let ser = nic_ser(64);
        assert_eq!(wqe_cost(true, ser, 1.0), RDMA_OP_NS + ser);
        assert!(wqe_cost(false, ser, 1.0) < wqe_cost(true, ser, 1.0));
        // A 16-WQE doorbell batch costs well under half of 16 doorbells.
        let batch: SimTime = (0..16).map(|i| wqe_cost(i == 0, ser, 1.0)).sum();
        assert!(batch * 2 < 16 * wqe_cost(true, ser, 1.0), "batch={batch}");
        // The QP penalty still applies to chained WQEs, serialization
        // included, and the product is rounded once.
        let pen = c.qp_penalty(700);
        assert!(wqe_cost(false, ser, pen) > wqe_cost(false, ser, 1.0));
        assert_eq!(
            wqe_cost(false, ser, pen),
            ((RDMA_WQE_NS + ser) as f64 * pen).round() as SimTime
        );
    }
}
