//! Request/response codecs for the HydraDB key-value protocol.
//!
//! Every server-handled operation travels as a framed payload ([`crate::frame`])
//! containing one encoded [`Request`]; the shard answers with one encoded
//! [`Response`]. Encodings are little-endian, length-prefixed, and borrow
//! from the input buffer on decode so the hot path performs no copies beyond
//! the frame extraction itself.
//!
//! Request layout:
//!
//! ```text
//! [op:1][flags:1][pad:2][klen:4][vlen:4][req_id:8][key][value]
//! ```
//!
//! Opcodes are GET 1, INSERT 2, UPDATE 3, DELETE 4 and SCAN 6; byte 5 is
//! retired and decodes as malformed. `SCAN` carries its start key in the key
//! area and its item limit as a 4-byte value; the scan *response* reuses the
//! value area for a packed multi-item list (`[more:1][pad:3][count:4]` then
//! `count` entries of `[klen:4][vlen:4][key][value]` — see [`ScanItems`]),
//! with the `more` flag doubling as the continuation token: the client
//! resumes from its last received key.
//!
//! Response layout:
//!
//! ```text
//! [status:1][flags:1][pad:2][vlen:4][req_id:8][rptr:16][lease_expiry:8][value]
//! ```
//!
//! When flags bit 0 ([`RESP_FLAG_REPLICAS`]) is set, a replica-pointer list
//! follows the value: `[version:1][count:1]` then `count` entries of
//! `[node:4][lease_class:1][rptr:16]`. The list carries alternative
//! one-sided read targets for a hot key (replica copies under the same
//! exported lease); `version` is the primary item's version at export time.

use crate::rptr::{RemotePtr, REMOTE_PTR_BYTES};

/// Response flags bit 0: a replica-pointer list is appended after the value.
pub(crate) const RESP_FLAG_REPLICAS: u8 = 1;

/// Upper bound on exported replica pointers per response (wire + hot-path
/// fixed arrays are sized to this).
pub const MAX_EXPORT_PTRS: usize = 4;

/// One exported replica read target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPtr {
    /// Fabric node index hosting the replica region.
    pub node: u32,
    /// Lease tier (0..=6) the primary granted. Nothing reads it: the byte
    /// is kept because it is part of the response layout.
    pub lease_class: u8,
    /// Where the replica's copy of the item lives.
    pub rptr: RemotePtr,
}

impl Default for ReplicaPtr {
    fn default() -> Self {
        ReplicaPtr {
            node: 0,
            lease_class: 0,
            rptr: RemotePtr::none(),
        }
    }
}

const REPLICA_PTR_BYTES: usize = 4 + 1 + REMOTE_PTR_BYTES;

/// A fixed-capacity set of exported replica pointers plus the primary item
/// version they were validated against. Copy + inline so appending it to a
/// response stays allocation-free on the serving hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSet {
    /// Primary item version (mod 128) at export time; a fetched blob whose
    /// stamped version differs is stale even if its guardian still validates.
    pub version: u8,
    count: u8,
    entries: [ReplicaPtr; MAX_EXPORT_PTRS],
}

impl ReplicaSet {
    /// An empty set carrying only the version stamp.
    pub fn new(version: u8) -> ReplicaSet {
        ReplicaSet {
            version,
            count: 0,
            entries: [ReplicaPtr::default(); MAX_EXPORT_PTRS],
        }
    }

    /// Appends an entry; returns `false` (dropping it) once full.
    pub fn push(&mut self, entry: ReplicaPtr) -> bool {
        if (self.count as usize) >= MAX_EXPORT_PTRS {
            return false;
        }
        self.entries[self.count as usize] = entry;
        self.count += 1;
        true
    }

    /// Number of exported pointers.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no pointers were exported.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exported entries.
    pub fn entries(&self) -> &[ReplicaPtr] {
        &self.entries[..self.count as usize]
    }

    fn encoded_len(&self) -> usize {
        2 + self.count as usize * REPLICA_PTR_BYTES
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.version);
        out.push(self.count);
        for e in self.entries() {
            out.extend_from_slice(&e.node.to_le_bytes());
            out.push(e.lease_class);
            out.extend_from_slice(&e.rptr.encode());
        }
    }

    fn decode(buf: &[u8]) -> Option<ReplicaSet> {
        let version = *buf.first()?;
        let count = *buf.get(1)?;
        if count as usize > MAX_EXPORT_PTRS {
            return None;
        }
        let mut set = ReplicaSet::new(version);
        let mut p = buf.get(2..)?;
        for _ in 0..count {
            let node = u32::from_le_bytes(p.get(..4)?.try_into().ok()?);
            let lease_class = *p.get(4)?;
            let rptr = RemotePtr::decode(p.get(5..5 + REMOTE_PTR_BYTES)?)?;
            set.push(ReplicaPtr {
                node,
                lease_class,
                rptr,
            });
            p = &p[REPLICA_PTR_BYTES..];
        }
        Some(set)
    }
}

/// Operation codes carried in request headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Read a value (server-side message path).
    Get = 1,
    /// Insert a new key (fails if present in reliable mode; upserts in cache mode).
    Insert = 2,
    /// Update an existing key (out-of-place; flips the old guardian).
    Update = 3,
    /// Remove a key.
    Delete = 4,
    /// Ordered range scan: up to `limit` items starting at `start_key`,
    /// served in bounded quanta (§11).
    Scan = 6,
}

impl OpCode {
    /// Parses a wire byte.
    pub(crate) fn from_u8(v: u8) -> Option<OpCode> {
        Some(match v {
            1 => OpCode::Get,
            2 => OpCode::Insert,
            3 => OpCode::Update,
            4 => OpCode::Delete,
            6 => OpCode::Scan,
            _ => return None,
        })
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Operation succeeded; value/rptr fields are valid per opcode.
    Ok = 1,
    /// Key not present.
    NotFound = 2,
    /// Insert collided with an existing key (reliable mode).
    Exists = 3,
    /// Server-side failure (allocation, shard shutting down, ...).
    Error = 4,
    /// The shard no longer owns the key's range: a live migration flipped
    /// ownership while this request was in flight. The response's
    /// `lease_expiry` field carries the post-flip ring generation; the
    /// client re-routes through its (shared, already-updated) directory.
    WrongOwner = 5,
}

impl Status {
    /// Parses a wire byte.
    pub fn from_u8(v: u8) -> Option<Status> {
        Some(match v {
            1 => Status::Ok,
            2 => Status::NotFound,
            3 => Status::Exists,
            4 => Status::Error,
            5 => Status::WrongOwner,
            _ => return None,
        })
    }
}

const REQ_HDR: usize = 1 + 1 + 2 + 4 + 4 + 8;
/// Bytes of the response header (everything before the value).
pub const RESP_HDR: usize = 1 + 1 + 2 + 4 + 8 + REMOTE_PTR_BYTES + 8;

/// A decoded request, borrowing key/value bytes from the frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// GET through the message path.
    Get { req_id: u64, key: &'a [u8] },
    /// INSERT a new key-value pair.
    Insert {
        req_id: u64,
        key: &'a [u8],
        value: &'a [u8],
    },
    /// UPDATE an existing key.
    Update {
        req_id: u64,
        key: &'a [u8],
        value: &'a [u8],
    },
    /// DELETE a key.
    Delete { req_id: u64, key: &'a [u8] },
    /// Ordered scan of up to `limit` items from the first key `>= start`.
    /// The server may truncate at its scan-quantum cap and set the response's
    /// [`ScanItems::more`] flag; the client then continues from the last key
    /// it received.
    Scan {
        req_id: u64,
        start: &'a [u8],
        limit: u32,
    },
}

impl<'a> Request<'a> {
    /// The request identifier echoed in the response.
    pub fn req_id(&self) -> u64 {
        match self {
            Request::Get { req_id, .. }
            | Request::Insert { req_id, .. }
            | Request::Update { req_id, .. }
            | Request::Delete { req_id, .. }
            | Request::Scan { req_id, .. } => *req_id,
        }
    }

    /// The opcode of this request.
    pub fn op(&self) -> OpCode {
        match self {
            Request::Get { .. } => OpCode::Get,
            Request::Insert { .. } => OpCode::Insert,
            Request::Update { .. } => OpCode::Update,
            Request::Delete { .. } => OpCode::Delete,
            Request::Scan { .. } => OpCode::Scan,
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REQ_HDR + 64);
        self.encode_into(&mut out);
        out
    }

    /// Encodes, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let limit_bytes: [u8; 4];
        let (op, req_id, key, value): (OpCode, u64, &[u8], &[u8]) = match self {
            Request::Get { req_id, key } => (OpCode::Get, *req_id, key, &[]),
            Request::Insert { req_id, key, value } => (OpCode::Insert, *req_id, key, value),
            Request::Update { req_id, key, value } => (OpCode::Update, *req_id, key, value),
            Request::Delete { req_id, key } => (OpCode::Delete, *req_id, key, &[]),
            Request::Scan {
                req_id,
                start,
                limit,
            } => {
                // The limit rides in the value area.
                limit_bytes = limit.to_le_bytes();
                (OpCode::Scan, *req_id, start, &limit_bytes)
            }
        };
        out.push(op as u8);
        out.push(0);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(&req_id.to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
    }

    /// Decodes a request from `buf`.
    pub fn decode(buf: &'a [u8]) -> Option<Request<'a>> {
        if buf.len() < REQ_HDR {
            return None;
        }
        let op = OpCode::from_u8(buf[0])?;
        let klen = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        let vlen = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
        let req_id = u64::from_le_bytes(buf[12..20].try_into().ok()?);
        let body = &buf[REQ_HDR..];
        if body.len() < klen + vlen {
            return None;
        }
        let key = &body[..klen];
        let value = &body[klen..klen + vlen];
        Some(match op {
            OpCode::Get => Request::Get { req_id, key },
            OpCode::Insert => Request::Insert { req_id, key, value },
            OpCode::Update => Request::Update { req_id, key, value },
            OpCode::Delete => Request::Delete { req_id, key },
            OpCode::Scan => Request::Scan {
                req_id,
                start: key,
                limit: u32::from_le_bytes(value.try_into().ok()?),
            },
        })
    }
}

/// Packed-items header: `[more:1][pad:3][count:4]`.
pub const SCAN_ITEMS_HDR: usize = 8;

/// Starts a packed scan-item list in `out` (clears it, reserves the header).
/// Append items with [`scan_items_push`], then stamp the header with
/// [`scan_items_finish`]. The server composes scan responses through these
/// so the hot path reuses one scratch buffer end to end.
pub fn scan_items_begin(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; SCAN_ITEMS_HDR]);
}

/// Per-entry overhead of a packed item (`[klen:4][vlen:4]`).
pub const SCAN_ENTRY_HDR: usize = 8;

/// Appends one `[klen:4][vlen:4][key][value]` entry.
pub fn scan_items_push(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Stamps the header started by [`scan_items_begin`].
pub fn scan_items_finish(out: &mut [u8], more: bool, count: u32) {
    out[0] = more as u8;
    out[4..8].copy_from_slice(&count.to_le_bytes());
}

/// Opens a scan response at the end of `out`: the response header for
/// `req_id` and an empty packed-items header, both to be completed by
/// [`scan_response_finish`] once the items have been appended behind them
/// with [`scan_items_push`]. The server frames a scan response in place
/// this way — every item is copied into the outgoing buffer once, with no
/// staging list to encode afterwards. Returns where the response starts.
pub fn scan_response_begin(out: &mut Vec<u8>, req_id: u64) -> usize {
    let at = out.len();
    Response {
        value: &[0u8; SCAN_ITEMS_HDR],
        ..Response::status_only(Status::Ok, req_id)
    }
    .encode_into(out);
    at
}

/// Completes the scan response opened at `at`, which runs to the end of
/// `out`: stamps the value length into the response header and `more` and
/// `count` into the packed-items header.
pub fn scan_response_finish(out: &mut [u8], at: usize, more: bool, count: u32) {
    let vlen = (out.len() - at - RESP_HDR) as u32;
    out[at + 4..at + 8].copy_from_slice(&vlen.to_le_bytes());
    scan_items_finish(&mut out[at + RESP_HDR..], more, count);
}

/// Merges key-sorted runs into `out` as one packed list of their `limit`
/// smallest items (`more = false`) — what concatenating the runs, sorting
/// by key (stably: the earlier run wins a tie) and truncating would pack,
/// without materialising an item — and returns how many that was. The
/// client merges the per-partition responses of a range scan with it,
/// straight out of the response buffers.
pub fn scan_items_merge<'a>(
    runs: impl IntoIterator<Item = ScanItems<'a>>,
    limit: u32,
    out: &mut Vec<u8>,
) -> u32 {
    let (mut items, mut bytes) = (0usize, 0usize);
    let mut heads: Vec<_> = runs
        .into_iter()
        .map(|run| {
            items += run.len();
            bytes += run.entries.len();
            let mut rest = run.iter();
            (rest.next(), rest)
        })
        .collect();
    scan_items_begin(out);
    // Exact when items are of one size, as a scan of fixed-size records is.
    let take = items.min(limit as usize);
    out.reserve((bytes * take).div_ceil(items.max(1)));
    for _ in 0..take {
        let (_, run) = heads
            .iter()
            .enumerate()
            .filter_map(|(run, (head, _))| head.map(|(key, _)| (key, run)))
            .min()
            .expect("fewer items taken than the runs hold");
        let (head, rest) = &mut heads[run];
        let (key, value) = head.take().expect("chosen by its head");
        scan_items_push(out, key, value);
        *head = rest.next();
    }
    scan_items_finish(out, false, take as u32);
    take as u32
}

/// [`scan_items_merge`] that emits nothing and stops at `key`: how many items
/// of key-sorted runs sort at or before it, counted straight off the
/// response buffers. With `key` the last one a partition has sent, this is
/// how far the merged answer is settled: a range scan that wants `limit`
/// items has read that partition far enough once the rank reaches `limit`.
pub fn scan_items_rank<'a>(runs: impl IntoIterator<Item = ScanItems<'a>>, key: &[u8]) -> usize {
    runs.into_iter()
        .map(|run| run.iter().take_while(|(k, _)| *k <= key).count())
        .sum()
}

/// The packed multi-item payload of a scan response — a *validated window*
/// over `[more:1][pad:3][count:4]([klen:4][vlen:4][key][value])*`, borrowed
/// from the response value: parsing walks the packing once to check every
/// bound, iteration then slices without re-validating or allocating.
#[derive(Clone, Copy)]
pub struct ScanItems<'a> {
    more: bool,
    count: u32,
    /// Entry bytes (header stripped); bounds validated by `parse`.
    entries: &'a [u8],
}

impl<'a> ScanItems<'a> {
    /// Validates `bytes` as a complete packed item list (header included, no
    /// trailing garbage) and wraps it.
    pub fn parse(bytes: &'a [u8]) -> Option<ScanItems<'a>> {
        let more = match *bytes.first()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let count = u32::from_le_bytes(bytes.get(4..SCAN_ITEMS_HDR)?.try_into().ok()?);
        let entries = bytes.get(SCAN_ITEMS_HDR..)?;
        let mut p = entries;
        for _ in 0..count {
            let kl = u32::from_le_bytes(p.get(..4)?.try_into().ok()?) as usize;
            let vl = u32::from_le_bytes(p.get(4..8)?.try_into().ok()?) as usize;
            p = p.get(8 + kl + vl..)?;
        }
        if !p.is_empty() {
            return None;
        }
        Some(ScanItems {
            more,
            count,
            entries,
        })
    }

    /// Whether the server truncated the scan (more items remain past the
    /// last entry) — the continuation signal.
    pub fn more(&self) -> bool {
        self.more
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the scan returned nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates over `(key, value)` pairs.
    pub fn iter(&self) -> ScanItemsIter<'a> {
        ScanItemsIter {
            remaining: self.count,
            rest: self.entries,
        }
    }
}

impl<'a> IntoIterator for &ScanItems<'a> {
    type Item = (&'a [u8], &'a [u8]);
    type IntoIter = ScanItemsIter<'a>;
    fn into_iter(self) -> ScanItemsIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for ScanItems<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanItems")
            .field("more", &self.more)
            .field("count", &self.count)
            .finish()
    }
}

/// The bounds of a [`ScanItems`] validated once inside a scan response
/// message, held apart from the borrow: kept beside the message, they view
/// its items again with no second decode and no second walk of the packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSpan {
    more: bool,
    count: u32,
    /// Byte range of the entries within the message.
    entries: (usize, usize),
}

impl ScanSpan {
    /// Decodes `msg` as a response and validates its value as a packed item
    /// list (see [`ScanItems::parse`]).
    pub fn of_response(msg: &[u8]) -> Option<ScanSpan> {
        let items = ScanItems::parse(Response::decode(msg)?.value)?;
        let start = RESP_HDR + SCAN_ITEMS_HDR;
        Some(ScanSpan {
            more: items.more,
            count: items.count,
            entries: (start, start + items.entries.len()),
        })
    }

    /// The items of `msg`, which must be the message the span was taken of.
    pub fn items<'a>(&self, msg: &'a [u8]) -> ScanItems<'a> {
        ScanItems {
            more: self.more,
            count: self.count,
            entries: &msg[self.entries.0..self.entries.1],
        }
    }
}

/// Iterator over [`ScanItems`] entries.
pub struct ScanItemsIter<'a> {
    remaining: u32,
    rest: &'a [u8],
}

impl<'a> Iterator for ScanItemsIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Bounds were validated by `ScanItems::parse`.
        let kl = u32::from_le_bytes(self.rest[..4].try_into().unwrap()) as usize;
        let vl = u32::from_le_bytes(self.rest[4..8].try_into().unwrap()) as usize;
        let key = &self.rest[8..8 + kl];
        let value = &self.rest[8 + kl..8 + kl + vl];
        self.rest = &self.rest[8 + kl + vl..];
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response<'a> {
    /// Outcome of the request.
    pub status: Status,
    /// Echo of the request identifier.
    pub req_id: u64,
    /// Value bytes (GET responses; empty otherwise).
    pub value: &'a [u8],
    /// Where the item lives for future RDMA Reads ([`RemotePtr::none`] when
    /// not applicable).
    pub rptr: RemotePtr,
    /// Absolute lease expiry (virtual ns) until which the remote pointer is
    /// guaranteed valid; 0 when no lease was granted.
    pub lease_expiry: u64,
    /// Replica read targets exported for hot keys (`None` for cold keys and
    /// non-GET responses).
    pub replicas: Option<ReplicaSet>,
}

impl<'a> Response<'a> {
    /// Convenience constructor for value-less responses.
    pub fn status_only(status: Status, req_id: u64) -> Response<'static> {
        Response {
            status,
            req_id,
            value: &[],
            rptr: RemotePtr::none(),
            lease_expiry: 0,
            replicas: None,
        }
    }

    /// A [`Status::WrongOwner`] redirect: the ring generation that made this
    /// shard stop owning the key travels in the (otherwise unused)
    /// `lease_expiry` field.
    pub fn wrong_owner(req_id: u64, generation: u64) -> Response<'static> {
        Response {
            lease_expiry: generation,
            ..Response::status_only(Status::WrongOwner, req_id)
        }
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let extra = self.replicas.map_or(0, |r| r.encoded_len());
        let mut out = Vec::with_capacity(RESP_HDR + self.value.len() + extra);
        self.encode_into(&mut out);
        out
    }

    /// Encodes, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.status as u8);
        out.push(if self.replicas.is_some() {
            RESP_FLAG_REPLICAS
        } else {
            0
        });
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&self.rptr.encode());
        out.extend_from_slice(&self.lease_expiry.to_le_bytes());
        out.extend_from_slice(self.value);
        if let Some(set) = &self.replicas {
            set.encode_into(out);
        }
    }

    /// Decodes a response from `buf`.
    pub fn decode(buf: &'a [u8]) -> Option<Response<'a>> {
        if buf.len() < RESP_HDR {
            return None;
        }
        let status = Status::from_u8(buf[0])?;
        let flags = buf[1];
        let vlen = u32::from_le_bytes(buf[4..8].try_into().ok()?) as usize;
        let req_id = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        let rptr = RemotePtr::decode(&buf[16..16 + REMOTE_PTR_BYTES])?;
        let lease_expiry =
            u64::from_le_bytes(buf[16 + REMOTE_PTR_BYTES..RESP_HDR].try_into().ok()?);
        let body = &buf[RESP_HDR..];
        if body.len() < vlen {
            return None;
        }
        let replicas = if flags & RESP_FLAG_REPLICAS != 0 {
            Some(ReplicaSet::decode(&body[vlen..])?)
        } else {
            None
        };
        Some(Response {
            status,
            req_id,
            value: &body[..vlen],
            rptr,
            lease_expiry,
            replicas,
        })
    }
}

/// Stamps the 16-bit shard-backlog hint into an encoded response's header
/// pad bytes (offsets 2..4, little-endian). The hint is piggybacked
/// congestion feedback — microseconds of queued shard-core work observed
/// when the response was posted — consumed by the client's AIMD window
/// controller. Encoders zero the pad, so un-stamped responses read as hint
/// 0 ("no backlog") and the field is wire-compatible both ways.
pub fn set_backlog_hint(resp: &mut [u8], hint: u16) {
    if resp.len() >= RESP_HDR {
        resp[2..4].copy_from_slice(&hint.to_le_bytes());
    }
}

/// Reads the backlog hint from an encoded response (0 when absent or the
/// buffer is too short to carry a header).
pub fn backlog_hint(resp: &[u8]) -> u16 {
    if resp.len() >= RESP_HDR {
        u16::from_le_bytes([resp[2], resp[3]])
    } else {
        0
    }
}

/// Stamps the 16-bit channel tag into an encoded request's header pad
/// bytes (offsets 2..4, little-endian). Multiplexed clients pool one QP
/// per (client, server-node) pair and carry many partitions over it; the
/// tag names the target partition's connection slot so the server can
/// demux without a dedicated QP per partition. Encoders zero the pad, so
/// un-stamped requests read as tag 0 — exactly what dedicated-QP
/// deployments use — and the field is wire-compatible both ways.
pub fn set_channel_tag(req: &mut [u8], tag: u16) {
    if req.len() >= REQ_HDR {
        req[2..4].copy_from_slice(&tag.to_le_bytes());
    }
}

/// Reads the channel tag from an encoded request (0 when absent or the
/// buffer is too short to carry a header).
pub fn channel_tag(req: &[u8]) -> u16 {
    if req.len() >= REQ_HDR {
        u16::from_le_bytes([req[2], req[3]])
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: &Request<'_>) {
        let enc = r.encode();
        let dec = Request::decode(&enc).expect("decodes");
        assert_eq!(&dec, r);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(&Request::Get {
            req_id: 1,
            key: b"user:42",
        });
        roundtrip_req(&Request::Insert {
            req_id: 2,
            key: b"k",
            value: b"v",
        });
        roundtrip_req(&Request::Update {
            req_id: 3,
            key: b"key16bytes......",
            value: &[0xAB; 32],
        });
        roundtrip_req(&Request::Delete {
            req_id: 4,
            key: b"",
        });
    }

    #[test]
    fn response_roundtrips() {
        let r = Response {
            status: Status::Ok,
            req_id: 99,
            value: b"the value",
            rptr: RemotePtr::new(3, 4096, 64),
            lease_expiry: 123_456_789,
            replicas: None,
        };
        let enc = r.encode();
        assert_eq!(Response::decode(&enc).unwrap(), r);

        let r2 = Response::status_only(Status::NotFound, 7);
        assert_eq!(Response::decode(&r2.encode()).unwrap(), r2);
    }

    #[test]
    fn wrong_owner_redirect_roundtrips_with_generation() {
        let r = Response::wrong_owner(99, 17);
        let enc = r.encode();
        let d = Response::decode(&enc).unwrap();
        assert_eq!(d.status, Status::WrongOwner);
        assert_eq!(d.req_id, 99);
        assert_eq!(d.lease_expiry, 17, "generation rides the lease field");
        assert!(d.value.is_empty());
        assert!(d.rptr.is_none());
    }

    #[test]
    fn response_with_replica_list_roundtrips() {
        let mut set = ReplicaSet::new(41);
        set.push(ReplicaPtr {
            node: 2,
            lease_class: 3,
            rptr: RemotePtr::new(9, 8192, 128),
        });
        set.push(ReplicaPtr {
            node: 5,
            lease_class: 0,
            rptr: RemotePtr::new(11, 64, 48),
        });
        let r = Response {
            status: Status::Ok,
            req_id: 1234,
            value: b"hot value",
            rptr: RemotePtr::new(3, 4096, 64),
            lease_expiry: 5_000_000,
            replicas: Some(set),
        };
        let enc = r.encode();
        let dec = Response::decode(&enc).unwrap();
        assert_eq!(dec, r);
        let got = dec.replicas.unwrap();
        assert_eq!(got.version, 41);
        assert_eq!(got.len(), 2);
        assert_eq!(got.entries()[1].node, 5);
        assert_eq!(got.entries()[1].rptr, RemotePtr::new(11, 64, 48));

        // An empty set still travels (version stamp alone).
        let r = Response {
            replicas: Some(ReplicaSet::new(7)),
            ..Response::status_only(Status::Ok, 2)
        };
        let enc = r.encode();
        let dec = Response::decode(&enc).unwrap();
        assert_eq!(dec.replicas.unwrap().version, 7);
    }

    #[test]
    fn replica_set_caps_at_max_entries() {
        let mut set = ReplicaSet::new(0);
        for i in 0..MAX_EXPORT_PTRS + 3 {
            let accepted = set.push(ReplicaPtr {
                node: i as u32,
                lease_class: 0,
                rptr: RemotePtr::new(1, 0, 8),
            });
            assert_eq!(accepted, i < MAX_EXPORT_PTRS);
        }
        assert_eq!(set.len(), MAX_EXPORT_PTRS);
        // An over-count on the wire is rejected, not trusted.
        let r = Response {
            replicas: Some(set),
            ..Response::status_only(Status::Ok, 3)
        };
        let mut enc = r.encode();
        let count_off = enc.len() - MAX_EXPORT_PTRS * (4 + 1 + REMOTE_PTR_BYTES) - 1;
        enc[count_off] = (MAX_EXPORT_PTRS + 1) as u8;
        assert!(Response::decode(&enc).is_none());
    }

    #[test]
    fn large_value_roundtrips() {
        let value = vec![0x5Au8; 4 << 20]; // 4 MiB MapReduce chunk
        let r = Request::Insert {
            req_id: 10,
            key: b"block-0/chunk-3",
            value: &value,
        };
        roundtrip_req(&r);
    }

    #[test]
    fn truncated_buffers_decode_none() {
        let enc = Request::Get {
            req_id: 1,
            key: b"user:42",
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(Request::decode(&enc[..cut]).is_none(), "cut={cut}");
        }
        let enc = Response {
            status: Status::Ok,
            req_id: 1,
            value: b"xyz",
            rptr: RemotePtr::none(),
            lease_expiry: 0,
            replicas: None,
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(Response::decode(&enc[..cut]).is_none(), "cut={cut}");
        }
        // With a replica list appended, every cut point must still fail to
        // decode — the list length is implied by the count byte, so each
        // entry access is bounds-checked.
        let mut set = ReplicaSet::new(9);
        set.push(ReplicaPtr {
            node: 1,
            lease_class: 2,
            rptr: RemotePtr::new(4, 512, 40),
        });
        let enc = Response {
            status: Status::Ok,
            req_id: 1,
            value: b"xyz",
            rptr: RemotePtr::new(2, 128, 40),
            lease_expiry: 10,
            replicas: Some(set),
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(Response::decode(&enc[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn unknown_opcode_and_status_rejected() {
        // No key and a 4-byte value: for opcode 5 that is the empty key
        // list the retired lease renewal carried.
        let mut enc = Request::Insert {
            req_id: 1,
            key: b"",
            value: &0u32.to_le_bytes(),
        }
        .encode();
        for op in [0, 5, 7, 0xFF] {
            enc[0] = op;
            assert!(Request::decode(&enc).is_none(), "opcode {op}");
        }
        let mut enc = Response::status_only(Status::Ok, 1).encode();
        enc[0] = 0;
        assert!(Response::decode(&enc).is_none());
    }

    #[test]
    fn scan_request_roundtrips() {
        roundtrip_req(&Request::Scan {
            req_id: 7,
            start: b"user:0000100",
            limit: 100,
        });
        roundtrip_req(&Request::Scan {
            req_id: 8,
            start: b"",
            limit: 0,
        });
        // The limit travels in the value area and must be exactly 4 bytes.
        let enc = Request::Scan {
            req_id: 9,
            start: b"s",
            limit: 3,
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(Request::decode(&enc[..cut]).is_none(), "cut={cut}");
        }
        let mut enc = enc;
        // Grow the declared value length past the buffer: rejected.
        enc[8..12].copy_from_slice(&8u32.to_le_bytes());
        assert!(Request::decode(&enc).is_none());
    }

    fn packed_items(items: &[(&[u8], &[u8])], more: bool) -> Vec<u8> {
        let mut out = Vec::new();
        scan_items_begin(&mut out);
        for (k, v) in items {
            scan_items_push(&mut out, k, v);
        }
        scan_items_finish(&mut out, more, items.len() as u32);
        out
    }

    #[test]
    fn scan_items_roundtrip() {
        let items: [(&[u8], &[u8]); 3] =
            [(b"a", b"1".as_slice()), (b"bb", b""), (b"", b"value-three")];
        let enc = packed_items(&items, true);
        let parsed = ScanItems::parse(&enc).expect("parses");
        assert!(parsed.more());
        assert_eq!(parsed.len(), 3);
        let got: Vec<(&[u8], &[u8])> = parsed.iter().collect();
        assert_eq!(got, items);

        let empty = packed_items(&[], false);
        let parsed = ScanItems::parse(&empty).expect("parses");
        assert!(!parsed.more());
        assert!(parsed.is_empty());
        assert_eq!(parsed.iter().count(), 0);
    }

    #[test]
    fn scan_items_reject_corruption() {
        let items: [(&[u8], &[u8]); 2] = [(b"k1", b"v1".as_slice()), (b"k2", b"v2")];
        let enc = packed_items(&items, false);
        // Every truncation point fails to parse.
        for cut in 0..enc.len() {
            assert!(ScanItems::parse(&enc[..cut]).is_none(), "cut={cut}");
        }
        // Inflated count beyond available bytes: rejected.
        let mut bad = enc.clone();
        bad[4..8].copy_from_slice(&1000u32.to_le_bytes());
        assert!(ScanItems::parse(&bad).is_none());
        // Deflated count leaves trailing garbage: rejected.
        let mut bad = enc.clone();
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(ScanItems::parse(&bad).is_none());
        // A non-boolean `more` byte is corruption, not a flag.
        let mut bad = enc.clone();
        bad[0] = 7;
        assert!(ScanItems::parse(&bad).is_none());
        // An entry whose klen points past the end: rejected.
        let mut bad = enc;
        bad[SCAN_ITEMS_HDR..SCAN_ITEMS_HDR + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ScanItems::parse(&bad).is_none());
    }

    #[test]
    fn a_scan_span_views_the_items_its_response_was_validated_with() {
        let items: [(&[u8], &[u8]); 3] =
            [(b"a", b"1".as_slice()), (b"bb", b""), (b"", b"value-three")];
        let mut msg = Vec::new();
        let at = scan_response_begin(&mut msg, 9);
        for (k, v) in items {
            scan_items_push(&mut msg, k, v);
        }
        scan_response_finish(&mut msg, at, true, items.len() as u32);
        let span = ScanSpan::of_response(&msg).expect("a scan response");
        let (viewed, parsed) = (
            span.items(&msg),
            ScanItems::parse(Response::decode(&msg).expect("decodes").value).expect("parses"),
        );
        assert_eq!((viewed.more(), viewed.len()), (parsed.more(), parsed.len()));
        assert!(viewed.iter().eq(parsed.iter()));
        assert!(viewed.iter().eq(items));
        // What the value fails to parse as, the span refuses too.
        for cut in 0..msg.len() {
            assert!(ScanSpan::of_response(&msg[..cut]).is_none(), "cut={cut}");
        }
        let mut bad = msg.clone();
        bad[RESP_HDR] = 7;
        assert!(ScanSpan::of_response(&bad).is_none());
    }

    #[test]
    fn backlog_hint_rides_the_pad_bytes() {
        let r = Response {
            status: Status::Ok,
            req_id: 31,
            value: b"payload",
            rptr: RemotePtr::new(1, 64, 32),
            lease_expiry: 99,
            replicas: None,
        };
        let clean = r.encode();
        assert_eq!(backlog_hint(&clean), 0);
        let mut stamped = clean.clone();
        set_backlog_hint(&mut stamped, 12_345);
        assert_eq!(backlog_hint(&stamped), 12_345);
        // The hint lives entirely in the pad: decode is oblivious to it.
        assert_eq!(Response::decode(&stamped).unwrap(), r);
        // Everything outside bytes 2..4 is untouched.
        let mut scrubbed = stamped;
        scrubbed[2..4].copy_from_slice(&[0, 0]);
        assert_eq!(scrubbed, clean);
        // Stamping/reading a too-short buffer is a harmless no-op.
        let mut short = vec![0u8; 3];
        set_backlog_hint(&mut short, 7);
        assert_eq!(short, vec![0u8; 3]);
        assert_eq!(backlog_hint(&short), 0);
    }

    #[test]
    fn channel_tag_rides_the_request_pad_bytes() {
        let r = Request::Insert {
            req_id: 77,
            key: b"user:42",
            value: b"payload",
        };
        let clean = r.encode();
        assert_eq!(channel_tag(&clean), 0, "encoders zero the pad");
        let mut stamped = clean.clone();
        set_channel_tag(&mut stamped, 513);
        assert_eq!(channel_tag(&stamped), 513);
        // The tag lives entirely in the pad: decode is oblivious to it.
        assert_eq!(Request::decode(&stamped).unwrap(), r);
        // Everything outside bytes 2..4 is untouched.
        let mut scrubbed = stamped;
        scrubbed[2..4].copy_from_slice(&[0, 0]);
        assert_eq!(scrubbed, clean);
        // Stamping/reading a too-short buffer is a harmless no-op.
        let mut short = vec![0u8; REQ_HDR - 1];
        set_channel_tag(&mut short, 7);
        assert_eq!(short, vec![0u8; REQ_HDR - 1]);
        assert_eq!(channel_tag(&short), 0);
    }

    #[test]
    fn req_id_and_op_accessors() {
        let r = Request::Update {
            req_id: 42,
            key: b"k",
            value: b"v",
        };
        assert_eq!(r.req_id(), 42);
        assert_eq!(r.op(), OpCode::Update);
    }
}
