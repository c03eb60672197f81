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

/// Calibrated latency and capacity parameters.
///
/// Defaults approximate the paper's testbed: 40 Gbps ConnectX-3 on an IS5030
/// switch (RDMA read RTT 1–3 µs for small items) with IPoIB measured in the
/// tens of microseconds. Absolute values only anchor the scale; the figures
/// claim shapes/ratios (EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One-way propagation + switch latency for RDMA packets.
    pub rdma_prop_ns: SimTime,
    /// Per-operation initiator NIC overhead (WQE fetch, doorbell).
    pub rdma_op_ns: SimTime,
    /// Marginal initiator NIC cost of each additional WQE in a doorbell
    /// batch: the NIC fetches the chained WQE but the MMIO doorbell and PCIe
    /// round trip were already paid by the first operation of the batch.
    pub rdma_wqe_ns: SimTime,
    /// Target-side DMA engine setup cost for one-sided operations.
    pub rdma_dma_ns: SimTime,
    /// Additional cost of the two-sided path (recv WQE consumption + CQE)
    /// applied at the receiver, on top of `rdma_op_ns`.
    pub send_recv_extra_ns: SimTime,
    /// NIC serialization cost per byte (0.2 ns/B = 40 Gbps).
    pub nic_byte_ns: f64,
    /// One-way latency of the kernel socket path (IPoIB/TCP).
    pub socket_prop_ns: SimTime,
    /// Socket-path per-byte cost (protocol + copies; effective ~8 Gbps).
    pub socket_byte_ns: f64,
    /// Per-message socket stack overhead (syscalls, skb handling) per side.
    pub socket_op_ns: SimTime,
    /// QP count beyond which driver overhead starts growing (§6.3).
    pub qp_threshold: u32,
    /// Fractional per-op overhead added per QP beyond the threshold
    /// (e.g. 0.004 → +40% at threshold+100 QPs).
    pub qp_penalty_per_conn: f64,
    /// Per-node on-chip QP-state (ICM) cache capacity, in connections. RC
    /// QP context lives in host memory and is cached on the NIC; once a
    /// node terminates more active connections than fit, every op on a
    /// cold QP pays a PCIe fetch ([`nic_miss_ns`](Self::nic_miss_ns)) —
    /// the RDMAvisor connection-scaling cliff. `0` disables the model
    /// (infinite cache).
    pub qp_cache_entries: usize,
    /// Per-node on-chip memory-translation (MTT) cache capacity, in page
    /// entries. Registered regions consume one translation entry per
    /// `page_bytes` page; accesses to pages evicted from the cache pay
    /// the same PCIe fetch. `0` disables the model.
    pub mtt_cache_entries: usize,
    /// PCIe round-trip surcharge for fetching evicted QP state or a
    /// translation entry from host memory (per cold entry touched).
    pub nic_miss_ns: SimTime,
    /// Translation granularity for regions registered without an explicit
    /// page size ([`crate::Fabric::register`] /
    /// [`crate::Fabric::alloc_region`]). 4 KiB matches default mappings;
    /// huge-page registrations pass 2 MiB explicitly and collapse their
    /// MTT footprint ~512×.
    pub default_page_bytes: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            rdma_prop_ns: 600,
            rdma_op_ns: 100,
            rdma_wqe_ns: 25,
            rdma_dma_ns: 120,
            send_recv_extra_ns: 350,
            nic_byte_ns: 0.2,
            socket_prop_ns: 28 * US,
            socket_byte_ns: 1.0,
            socket_op_ns: 4 * US,
            qp_threshold: 320,
            qp_penalty_per_conn: 0.004,
            qp_cache_entries: 1024,
            mtt_cache_entries: 16 * 1024,
            nic_miss_ns: 500,
            default_page_bytes: 4096,
        }
    }
}

impl FabricConfig {
    /// Serialization time of `bytes` on the RDMA NIC.
    pub fn nic_ser(&self, bytes: usize) -> SimTime {
        (bytes as f64 * self.nic_byte_ns).round() as SimTime
    }

    /// Serialization/copy time of `bytes` on the socket path.
    pub fn socket_ser(&self, bytes: usize) -> SimTime {
        (bytes as f64 * self.socket_byte_ns).round() as SimTime
    }

    /// One-way latency of a `bytes`-long message on the socket path, stack
    /// to stack: both ends' per-message overhead and copies plus the flight
    /// — what a Send over a [`Transport::Socket`] QP takes on idle engines.
    /// Control messages that travel outside the fabric (to and from the
    /// coordination service) are charged this.
    pub fn socket_one_way(&self, bytes: usize) -> SimTime {
        2 * (self.socket_op_ns + self.socket_ser(bytes)) + self.socket_prop_ns
    }

    /// Driver-scalability multiplier for a node with `qps` connections.
    pub fn qp_penalty(&self, qps: u32) -> f64 {
        let excess = qps.saturating_sub(self.qp_threshold) as f64;
        1.0 + excess * self.qp_penalty_per_conn
    }

    /// Initiator NIC time of one WQE carrying `ser` ns of serialization
    /// under the node's service-time multiplier `penalty`: the first WQE of
    /// a doorbell pays the full per-op cost, each chained one only the
    /// marginal WQE fetch. The posting kernel's formula, rounded once.
    pub(crate) fn wqe_cost(&self, first: bool, ser: SimTime, penalty: f64) -> SimTime {
        let base = if first {
            self.rdma_op_ns
        } else {
            self.rdma_wqe_ns
        };
        scaled(base + ser, penalty)
    }
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
        assert_eq!(c.nic_ser(0), 0);
        assert_eq!(c.nic_ser(1000), 200);
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
        // A miss surcharge is a PCIe round trip: same order of magnitude as
        // the doorbell, far below the propagation delay.
        assert!(c.nic_miss_ns >= c.rdma_op_ns && c.nic_miss_ns <= c.rdma_prop_ns);
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
        assert!(c.wqe_cost(true, 0, c.qp_penalty(700)) > c.wqe_cost(true, 0, c.qp_penalty(10)));
    }

    #[test]
    fn small_rdma_read_rtt_is_one_to_three_microseconds() {
        // Sanity-anchor the default model against the paper's quoted range.
        let c = FabricConfig::default();
        let item = 64usize;
        let rtt = c.wqe_cost(true, 0, c.qp_penalty(4)) // initiator
            + c.rdma_prop_ns // request flight
            + c.rdma_dma_ns + c.nic_ser(item) // target DMA + response ser
            + c.rdma_prop_ns; // response flight
        assert!((1_000..=3_000).contains(&rtt), "rtt={rtt}ns");
    }

    #[test]
    fn doorbell_batch_amortizes_the_per_op_cost() {
        let c = FabricConfig::default();
        let ser = c.nic_ser(64);
        assert_eq!(c.wqe_cost(true, ser, 1.0), c.rdma_op_ns + ser);
        assert!(c.wqe_cost(false, ser, 1.0) < c.wqe_cost(true, ser, 1.0));
        // A 16-WQE doorbell batch costs well under half of 16 doorbells.
        let batch: SimTime = (0..16).map(|i| c.wqe_cost(i == 0, ser, 1.0)).sum();
        assert!(batch * 2 < 16 * c.wqe_cost(true, ser, 1.0), "batch={batch}");
        // The QP penalty still applies to chained WQEs, serialization
        // included, and the product is rounded once.
        let pen = c.qp_penalty(700);
        assert!(c.wqe_cost(false, ser, pen) > c.wqe_cost(false, ser, 1.0));
        assert_eq!(
            c.wqe_cost(false, ser, pen),
            ((c.rdma_wqe_ns + ser) as f64 * pen).round() as SimTime
        );
    }
}
