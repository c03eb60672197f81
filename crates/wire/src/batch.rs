//! Multi-message batch frames.
//!
//! Pipelined clients pack several encoded requests into one framed payload
//! so the whole batch costs one RDMA Write (one doorbell, one polling sweep,
//! one frame) instead of one per request; servers answer with the responses
//! packed the same way. The layout is a validated length-prefixed window in
//! the spirit of [`crate::codec::ScanItems`] packed item lists:
//!
//! ```text
//! [magic:1][pad:3][count:4] ([len:4][msg: len bytes])*
//! ```
//!
//! The magic byte `0xB7` is deliberately outside the [`crate::OpCode`] and
//! [`crate::Status`] value ranges (1..=6 and 1..=5), so the first byte of a framed
//! payload tells the receiver whether it holds one message or a batch.
//! [`BatchFrame::parse`] validates the entire window once — count, per-entry
//! bounds, and the absence of trailing garbage — after which iteration is
//! allocation-free borrowed slicing.

/// First byte of every batch frame; never a valid `OpCode`/`Status`.
pub const BATCH_MAGIC: u8 = 0xB7;

/// Bytes of the batch header (`magic + pad + count`).
pub const BATCH_HDR: usize = 8;

/// Per-message overhead inside a batch (the length prefix).
pub const BATCH_ENTRY_HDR: usize = 4;

/// A parsed, validated view over a batch payload.
#[derive(Debug, Clone, Copy)]
pub struct BatchFrame<'a> {
    count: u32,
    /// The message window (everything after the header), fully validated.
    window: &'a [u8],
}

impl<'a> BatchFrame<'a> {
    /// Whether a framed payload is a batch (vs a single encoded message).
    pub fn is_batch(payload: &[u8]) -> bool {
        payload.first() == Some(&BATCH_MAGIC)
    }

    /// Validates `bytes` as a whole batch frame. Returns `None` on a bad
    /// magic, a truncated window, an entry overrunning the buffer, or
    /// trailing garbage after the last message.
    pub fn parse(bytes: &'a [u8]) -> Option<BatchFrame<'a>> {
        if bytes.len() < BATCH_HDR || bytes[0] != BATCH_MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let window = &bytes[BATCH_HDR..];
        let mut off = 0usize;
        for _ in 0..count {
            if off + BATCH_ENTRY_HDR > window.len() {
                return None;
            }
            let len = u32::from_le_bytes(window[off..off + 4].try_into().unwrap()) as usize;
            off = off.checked_add(BATCH_ENTRY_HDR + len)?;
            if off > window.len() {
                return None;
            }
        }
        if off != window.len() {
            return None; // trailing garbage
        }
        Some(BatchFrame { count, window })
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Borrowed iteration over the packed messages, in order.
    pub fn iter(&self) -> BatchIter<'a> {
        BatchIter {
            remaining: self.count,
            rest: self.window,
        }
    }
}

impl<'a> IntoIterator for &BatchFrame<'a> {
    type Item = &'a [u8];
    type IntoIter = BatchIter<'a>;
    fn into_iter(self) -> BatchIter<'a> {
        self.iter()
    }
}

/// Allocation-free iterator over a validated batch window.
pub struct BatchIter<'a> {
    remaining: u32,
    rest: &'a [u8],
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.remaining == 0 {
            return None;
        }
        // Bounds were validated by `parse`; slicing cannot fail.
        let len = u32::from_le_bytes(self.rest[..4].try_into().unwrap()) as usize;
        let msg = &self.rest[BATCH_ENTRY_HDR..BATCH_ENTRY_HDR + len];
        self.rest = &self.rest[BATCH_ENTRY_HDR + len..];
        self.remaining -= 1;
        Some(msg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for BatchIter<'_> {}

/// The encoded messages a payload carries, in order: the entries of a batch
/// frame, or the payload itself when it is one bare message. Lets both ends
/// of a connection treat "one request" and "a frame of requests" as the
/// same thing.
///
/// # Panics
/// If the payload claims to be a batch frame but does not validate.
pub fn messages(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
    let frame = BatchFrame::is_batch(payload)
        .then(|| BatchFrame::parse(payload).expect("well-formed batch frame"));
    let bare = frame.is_none().then_some(payload);
    frame.into_iter().flat_map(|f| f.iter()).chain(bare)
}

/// Applies `f` to each packed message of a batch frame, in place — the
/// mutable counterpart of [`BatchFrame::iter`], used by the server to stamp
/// per-response metadata (the backlog hint) into an already-built response
/// frame without reassembling it. Returns `false` (touching nothing past the
/// failure point) if the frame does not validate.
pub fn for_each_message_mut(bytes: &mut [u8], mut f: impl FnMut(&mut [u8])) -> bool {
    if bytes.len() < BATCH_HDR || bytes[0] != BATCH_MAGIC {
        return false;
    }
    let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let window = &mut bytes[BATCH_HDR..];
    let mut off = 0usize;
    for _ in 0..count {
        if off + BATCH_ENTRY_HDR > window.len() {
            return false;
        }
        let len = u32::from_le_bytes(window[off..off + 4].try_into().unwrap()) as usize;
        let Some(end) = off.checked_add(BATCH_ENTRY_HDR + len) else {
            return false;
        };
        if end > window.len() {
            return false;
        }
        f(&mut window[off + BATCH_ENTRY_HDR..end]);
        off = end;
    }
    off == window.len()
}

/// Reusable builder for batch frames. `clear` keeps the allocation, so a
/// steady-state sender builds every batch into the same buffer.
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    buf: Vec<u8>,
}

impl Default for BatchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchBuilder {
    /// Starts an empty batch.
    pub fn new() -> BatchBuilder {
        let mut b = BatchBuilder { buf: Vec::new() };
        b.clear();
        b
    }

    /// Resets to an empty batch, keeping the buffer allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.buf
            .extend_from_slice(&[BATCH_MAGIC, 0, 0, 0, 0, 0, 0, 0]);
    }

    /// Appends one already-encoded message.
    pub fn push(&mut self, msg: &[u8]) {
        self.push_with(|out| out.extend_from_slice(msg));
    }

    /// Appends one message encoded in place by `f` (e.g.
    /// `Request::encode_into`), avoiding a staging copy: a 4-byte length slot
    /// is reserved, `f` appends the message bytes, and the slot is patched
    /// with the actual length.
    pub fn push_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let slot = self.buf.len();
        self.buf.extend_from_slice(&[0u8; BATCH_ENTRY_HDR]);
        f(&mut self.buf);
        let len = (self.buf.len() - slot - BATCH_ENTRY_HDR) as u32;
        self.buf[slot..slot + 4].copy_from_slice(&len.to_le_bytes());
        let count = self.count() + 1;
        self.buf[4..8].copy_from_slice(&count.to_le_bytes());
    }

    /// Messages pushed so far.
    pub fn count(&self) -> u32 {
        u32::from_le_bytes(self.buf[4..8].try_into().unwrap())
    }

    /// The encoded frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Encoded size in bytes if one more `msg_len`-byte message were pushed.
    pub fn byte_len_with(&self, msg_len: usize) -> usize {
        self.buf.len() + BATCH_ENTRY_HDR + msg_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{OpCode, Request};

    #[test]
    fn messages_yields_frame_entries_or_the_bare_payload() {
        let mut b = BatchBuilder::new();
        b.push(b"one");
        b.push(b"two");
        let framed: Vec<&[u8]> = messages(b.bytes()).collect();
        assert_eq!(framed, vec![b"one".as_slice(), b"two".as_slice()]);
        b.clear();
        assert_eq!(messages(b.bytes()).count(), 0);
        let bare = [0x01u8, 2, 3];
        assert_eq!(messages(&bare).collect::<Vec<_>>(), vec![&bare[..]]);
    }

    #[test]
    fn round_trips_messages_in_order() {
        let mut b = BatchBuilder::new();
        assert_eq!(b.count(), 0);
        b.push(b"first");
        b.push(b"");
        b.push_with(|out| out.extend_from_slice(b"third"));
        let frame = BatchFrame::parse(b.bytes()).expect("valid frame");
        assert_eq!(frame.len(), 3);
        let msgs: Vec<&[u8]> = frame.iter().collect();
        assert_eq!(msgs, vec![b"first".as_slice(), b"", b"third"]);
    }

    #[test]
    fn clear_reuses_the_allocation() {
        let mut b = BatchBuilder::new();
        for _ in 0..8 {
            b.push(&[0u8; 64]);
        }
        let cap = b.buf.capacity();
        b.clear();
        assert_eq!(b.count(), 0);
        assert_eq!(b.buf.capacity(), cap);
        b.push(b"again");
        let frame = BatchFrame::parse(b.bytes()).unwrap();
        assert_eq!(frame.iter().next(), Some(b"again".as_slice()));
    }

    #[test]
    fn magic_discriminates_batches_from_single_requests() {
        let req = Request::Get {
            req_id: 9,
            key: b"k",
        };
        let single = req.encode();
        assert!(!BatchFrame::is_batch(&single));
        assert!(OpCode::from_u8(BATCH_MAGIC).is_none());
        let mut b = BatchBuilder::new();
        b.push(&single);
        assert!(BatchFrame::is_batch(b.bytes()));
    }

    #[test]
    fn rejects_truncation_bad_magic_and_trailing_garbage() {
        let mut b = BatchBuilder::new();
        b.push(b"hello");
        b.push(b"world!");
        let good = b.bytes().to_vec();
        assert!(BatchFrame::parse(&good).is_some());
        // Any strict prefix is rejected.
        for cut in 0..good.len() {
            assert!(BatchFrame::parse(&good[..cut]).is_none(), "cut={cut}");
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = OpCode::Get as u8;
        assert!(BatchFrame::parse(&bad).is_none());
        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.push(0xFF);
        assert!(BatchFrame::parse(&trailing).is_none());
        // Count inflated beyond the window.
        let mut inflated = good.clone();
        inflated[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(BatchFrame::parse(&inflated).is_none());
        // Entry length overrunning the buffer.
        let mut overrun = good;
        overrun[BATCH_HDR..BATCH_HDR + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BatchFrame::parse(&overrun).is_none());
    }

    #[test]
    fn for_each_message_mut_visits_every_message_in_place() {
        let mut b = BatchBuilder::new();
        b.push(b"aaa");
        b.push(b"");
        b.push(b"ccccc");
        let mut bytes = b.bytes().to_vec();
        let mut seen = Vec::new();
        assert!(for_each_message_mut(&mut bytes, |m| {
            seen.push(m.len());
            if !m.is_empty() {
                m[0] = b'X';
            }
        }));
        assert_eq!(seen, vec![3, 0, 5]);
        let frame = BatchFrame::parse(&bytes).unwrap();
        let msgs: Vec<&[u8]> = frame.iter().collect();
        assert_eq!(msgs, vec![b"Xaa".as_slice(), b"", b"Xcccc"]);
        // Invalid frames are refused.
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(!for_each_message_mut(&mut bad, |_| {}));
        let mut truncated = bytes[..bytes.len() - 1].to_vec();
        assert!(!for_each_message_mut(&mut truncated, |_| {}));
    }

    #[test]
    fn empty_batch_is_valid() {
        let b = BatchBuilder::new();
        let frame = BatchFrame::parse(b.bytes()).unwrap();
        assert!(frame.is_empty());
        assert_eq!(frame.iter().count(), 0);
    }
}
