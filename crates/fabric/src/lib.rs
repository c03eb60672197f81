//! Software RDMA verbs over the discrete-event simulator.
//!
//! This crate is the hardware-substitution layer of the reproduction (see
//! DESIGN.md §1): it provides the InfiniBand verbs surface HydraDB programs
//! against — registered memory regions, reliable-connection queue pairs,
//! one-sided `RDMA Write`/`RDMA Read`, two-sided `Send`/`Recv` — with transit
//! times supplied by a calibrated latency model instead of a physical HCA.
//!
//! Fidelity notes:
//!
//! * **One-sided semantics.** A Write mutates the target region *at delivery
//!   time* with zero involvement from the target's CPU; a Read snapshots the
//!   target memory at the moment the request reaches the target NIC, so races
//!   with concurrent guardian flips resolve exactly as on real hardware.
//! * **In-order delivery.** Words of a Write land in increasing address
//!   order within one delivery event, which (the simulation being
//!   deterministic) is indistinguishable from the HCA guarantee the
//!   indicator-framing protocol relies on.
//! * **NIC queueing.** Each node has FIFO TX/RX engines with 40 Gbps-class
//!   serialization; operations queue there, which is what saturates the
//!   100%-GET scale-up curves in Fig. 12.
//! * **QP scalability.** Per §6.3, drivers degrade beyond a few hundred
//!   connections; per-op NIC overhead grows once a node's QP count passes
//!   `FabricConfig::qp_threshold`.
//! * **Transports.** `Rdma` uses the native latency model; `Socket` models
//!   the IPoIB/TCP path (kernel round trips, no one-sided ops) used by the
//!   baseline stores and HydraDB's TCP mode.

mod config;
mod net;

pub use config::{FabricConfig, Transport};
pub use net::{
    BatchWrite, Fabric, FabricStats, LinkFault, NodeId, NodeStats, QpId, RegionId, WcError,
    WriteDelivered,
};
