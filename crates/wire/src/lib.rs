//! Wire formats for HydraDB.
//!
//! This crate is transport-agnostic byte layout: it knows nothing about the
//! fabric or the simulator. Four layers live here:
//!
//! * [`frame`] — the *indicator-encapsulated* message framing of §4.2.1 of
//!   the paper. One-sided RDMA Write cannot interrupt the receiver, so both
//!   sides detect messages by polling: a leading indicator word carries the
//!   payload size, a trailing indicator word marks completion, and the
//!   receiver zeroes the buffer after consuming. The framing operates on
//!   `AtomicU64` word slices so the same code is sound both under the
//!   simulator (single thread) and across real OS threads in tests.
//! * `codec` — request/response encodings for the key-value protocol
//!   (GET / INSERT / UPDATE / DELETE / SCAN) plus the
//!   remote-pointer and lease metadata piggybacked on GET responses and the
//!   packed multi-item payload of SCAN responses.
//! * `log` — replication log records written by the primary into the
//!   secondary's exposed ring (§5.2).
//! * `batch` — multi-message batch frames: pipelined clients pack several
//!   encoded requests (and servers several responses) into one framed
//!   payload, so a whole batch costs one doorbell and one polling sweep.

#![forbid(unsafe_code)]

mod batch;
mod codec;
pub mod frame;
mod log;
mod rptr;

pub use batch::{
    for_each_message_mut, messages, BatchBuilder, BatchFrame, BATCH_ENTRY_HDR, BATCH_HDR,
    BATCH_MAGIC,
};
pub use codec::{
    backlog_hint, channel_tag, scan_items_begin, scan_items_finish, scan_items_merge,
    scan_items_push, scan_items_rank, scan_response_begin, scan_response_finish, set_backlog_hint,
    set_channel_tag, written_value_len, ReplicaPtr, ReplicaSet, Request, Response, ScanItems,
    ScanSpan, Status, MAX_EXPORT_PTRS, RESP_HDR, SCAN_ENTRY_HDR, SCAN_ITEMS_HDR,
};
pub use frame::frame_to_words;
pub use log::{LogOp, LogRecord};
pub use rptr::RemotePtr;
