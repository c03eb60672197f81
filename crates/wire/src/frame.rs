//! Indicator-encapsulated message framing (§4.2.1).
//!
//! Layout, in increasing address order over 8-byte words:
//!
//! ```text
//! word 0            : [ MAGIC_HEAD (32 bits) | payload length in bytes (32 bits) ]
//! words 1 ..= n     : payload bytes, little-endian packed, zero padded
//! word n + 1        : MAGIC_TAIL
//! ```
//!
//! The contract mirrors what an in-order RDMA Write provides on a real HCA:
//! the receiver polls word 0; once it observes `MAGIC_HEAD` the length field
//! is guaranteed consistent (it arrived in the same 8-byte word), so it can
//! skip `len` payload bytes and poll the trailing word. Only when the trailing
//! word reads `MAGIC_TAIL` is the payload complete. After processing, the
//! receiver zeroes the frame ([`consume_message`]) so the sender may reuse the
//! buffer; a sender must never start writing into a slot whose word 0 is
//! nonzero.
//!
//! Memory ordering: the writer stores payload words `Relaxed` and both
//! indicator words `Release`; the poller loads indicators `Acquire` and the
//! payload `Relaxed`. The Acquire load of `MAGIC_TAIL` synchronizes with the
//! Release store that followed every payload store, so payload reads are
//! data-race-free in the Rust memory model — the software analogue of the
//! NIC's in-order delivery guarantee.

use std::sync::atomic::{AtomicU64, Ordering};

/// Head-indicator tag stored in the upper 32 bits of word 0. Nonzero by
/// construction so an empty (zeroed) slot is distinguishable.
pub(crate) const MAGIC_HEAD: u32 = 0x4859_4452; // "HYDR"
/// Trailing indicator word.
pub(crate) const MAGIC_TAIL: u64 = 0x454E_445F_4D53_4721; // "END_MSG!"

/// Errors surfaced by the framing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The payload (plus indicators) does not fit in the destination slice.
    TooLarge {
        payload: usize,
        capacity_words: usize,
    },
    /// The destination slot still holds an unconsumed message.
    SlotBusy,
    /// A polled frame carries a corrupt header or tail.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge {
                payload,
                capacity_words,
            } => write!(
                f,
                "payload of {payload} bytes does not fit in {capacity_words} words"
            ),
            FrameError::SlotBusy => write!(f, "destination slot holds an unconsumed message"),
            FrameError::Corrupt => write!(f, "frame indicators are corrupt"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Number of 8-byte words a frame with `payload_len` bytes occupies,
/// including both indicator words.
#[inline]
pub const fn frame_words(payload_len: usize) -> usize {
    2 + payload_len.div_ceil(8)
}

/// Maximum payload (bytes) representable in a slot of `words` words.
#[inline]
pub const fn max_payload(words: usize) -> usize {
    if words < 2 {
        0
    } else {
        (words - 2) * 8
    }
}

/// Writes one framed message into `dst` starting at word 0.
///
/// Returns the number of words written. Fails with [`FrameError::SlotBusy`]
/// if the slot has not been consumed, and [`FrameError::TooLarge`] if the
/// payload does not fit.
///
/// ```
/// use std::sync::atomic::AtomicU64;
/// use hydra_wire::frame::{write_message, poll_message, consume_message};
///
/// let slot: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
/// write_message(&slot, b"GET user:42").unwrap();
/// let got = poll_message(&slot).unwrap().unwrap();
/// assert_eq!(got, b"GET user:42");
/// consume_message(&slot, got.len()); // slot is reusable again
/// ```
pub fn write_message(dst: &[AtomicU64], payload: &[u8]) -> Result<usize, FrameError> {
    let words = frame_words(payload.len());
    if words > dst.len() {
        return Err(FrameError::TooLarge {
            payload: payload.len(),
            capacity_words: dst.len(),
        });
    }
    if dst[0].load(Ordering::Acquire) != 0 {
        return Err(FrameError::SlotBusy);
    }
    // Payload body, packed little-endian, zero padded in the final word.
    let mut chunks = payload.chunks_exact(8);
    let mut w = 1;
    for chunk in chunks.by_ref() {
        let v = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        dst[w].store(v, Ordering::Relaxed);
        w += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        dst[w].store(u64::from_le_bytes(buf), Ordering::Relaxed);
    }
    // Trailing indicator, then head indicator. Both Release: the Acquire load
    // of either one synchronizes with all payload stores above.
    dst[words - 1].store(MAGIC_TAIL, Ordering::Release);
    let head = ((MAGIC_HEAD as u64) << 32) | payload.len() as u64;
    dst[0].store(head, Ordering::Release);
    Ok(words)
}

/// Builds the framed representation of `payload` as plain words, for callers
/// that stage a frame locally and ship it with one RDMA Write (the message
/// path and the replication log both do this). The word sequence is exactly
/// what [`write_message`] would store.
pub fn frame_to_words(payload: &[u8]) -> Vec<u64> {
    let words = frame_words(payload.len());
    let mut out = Vec::with_capacity(words);
    out.push(((MAGIC_HEAD as u64) << 32) | payload.len() as u64);
    let mut chunks = payload.chunks_exact(8);
    for c in chunks.by_ref() {
        out.push(u64::from_le_bytes(c.try_into().expect("exact chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        out.push(u64::from_le_bytes(buf));
    }
    out.push(MAGIC_TAIL);
    debug_assert_eq!(out.len(), words);
    out
}

/// Polls `src` for a complete message. Returns the payload if both
/// indicators are present, `Ok(None)` when no (or an incomplete) message is
/// in flight, and [`FrameError::Corrupt`] when word 0 holds a foreign value.
pub fn poll_message(src: &[AtomicU64]) -> Result<Option<Vec<u8>>, FrameError> {
    let head = src[0].load(Ordering::Acquire);
    if head == 0 {
        return Ok(None);
    }
    if (head >> 32) as u32 != MAGIC_HEAD {
        return Err(FrameError::Corrupt);
    }
    let len = (head & 0xFFFF_FFFF) as usize;
    let words = frame_words(len);
    if words > src.len() {
        return Err(FrameError::Corrupt);
    }
    // The paper's shard skips `len` bytes and polls the trailing word.
    if src[words - 1].load(Ordering::Acquire) != MAGIC_TAIL {
        return Ok(None); // body still in flight
    }
    let mut payload = Vec::with_capacity(len);
    let full = len / 8;
    for w in 0..full {
        payload.extend_from_slice(&src[1 + w].load(Ordering::Relaxed).to_le_bytes());
    }
    let rem = len % 8;
    if rem != 0 {
        let v = src[1 + full].load(Ordering::Relaxed).to_le_bytes();
        payload.extend_from_slice(&v[..rem]);
    }
    Ok(Some(payload))
}

/// Zeroes the frame occupying the front of `src`, releasing the slot for the
/// next message. `payload_len` must be the length returned by the matching
/// poll.
pub fn consume_message(src: &[AtomicU64], payload_len: usize) {
    let words = frame_words(payload_len);
    // Zero the body and tail first; the head goes last, with Release. The
    // sender's busy-check is an Acquire load of the head, so once it observes
    // head==0 every other word of the frame is already cleared. Clearing the
    // head before the tail would let a sender start the next frame while our
    // tail-zeroing store is still in flight — that store then lands on top of
    // the new frame's MAGIC_TAIL and wedges both sides (the sender sees
    // SlotBusy forever, the receiver sees a body that never completes).
    for w in src.iter().take(words).skip(1) {
        w.store(0, Ordering::Relaxed);
    }
    src[0].store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn slot(words: usize) -> Vec<AtomicU64> {
        (0..words).map(|_| AtomicU64::new(0)).collect()
    }

    #[test]
    fn roundtrip_empty_payload() {
        let s = slot(4);
        let w = write_message(&s, &[]).unwrap();
        assert_eq!(w, 2);
        let got = poll_message(&s).unwrap().unwrap();
        assert!(got.is_empty());
        consume_message(&s, 0);
        assert!(poll_message(&s).unwrap().is_none());
    }

    #[test]
    fn roundtrip_various_lengths() {
        for len in [1usize, 7, 8, 9, 15, 16, 63, 64, 255, 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let s = slot(frame_words(len) + 2);
            write_message(&s, &payload).unwrap();
            let got = poll_message(&s).unwrap().unwrap();
            assert_eq!(got, payload, "len={len}");
            consume_message(&s, len);
            for w in &s {
                assert_eq!(w.load(Ordering::Relaxed), 0, "len={len}");
            }
        }
    }

    #[test]
    fn empty_slot_polls_none() {
        let s = slot(8);
        assert_eq!(poll_message(&s).unwrap(), None);
    }

    #[test]
    fn oversized_payload_rejected() {
        let s = slot(3); // max payload 8 bytes
        let err = write_message(&s, &[0u8; 9]).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }));
        // Exactly-fitting payload succeeds.
        write_message(&s, &[0xAB; 8]).unwrap();
    }

    #[test]
    fn busy_slot_rejected() {
        let s = slot(8);
        write_message(&s, b"hello").unwrap();
        assert_eq!(
            write_message(&s, b"world").unwrap_err(),
            FrameError::SlotBusy
        );
        let got = poll_message(&s).unwrap().unwrap();
        assert_eq!(got, b"hello");
        consume_message(&s, got.len());
        write_message(&s, b"world").unwrap();
    }

    #[test]
    fn incomplete_body_polls_none() {
        let s = slot(8);
        // Simulate a head indicator that landed before the tail (the scenario
        // in-order delivery creates mid-transfer).
        let head = ((MAGIC_HEAD as u64) << 32) | 16;
        s[0].store(head, Ordering::Release);
        assert_eq!(poll_message(&s).unwrap(), None);
        s[3].store(MAGIC_TAIL, Ordering::Release);
        assert!(poll_message(&s).unwrap().is_some());
    }

    #[test]
    fn corrupt_head_detected() {
        let s = slot(8);
        s[0].store(0xDEAD_BEEF_0000_0010, Ordering::Release);
        assert_eq!(poll_message(&s).unwrap_err(), FrameError::Corrupt);
    }

    #[test]
    fn length_overflowing_slot_is_corrupt() {
        let s = slot(4);
        let head = ((MAGIC_HEAD as u64) << 32) | 1_000_000;
        s[0].store(head, Ordering::Release);
        assert_eq!(poll_message(&s).unwrap_err(), FrameError::Corrupt);
    }

    /// Real two-thread producer/consumer over the same slot: validates the
    /// Acquire/Release protocol under genuine concurrency.
    #[test]
    fn cross_thread_ping_pong() {
        let s: Arc<Vec<AtomicU64>> = Arc::new(slot(16));
        let rounds = 2_000;
        let producer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..rounds {
                    let msg = format!("msg-{i}");
                    loop {
                        match write_message(&s, msg.as_bytes()) {
                            Ok(_) => break,
                            Err(FrameError::SlotBusy) => std::thread::yield_now(),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            })
        };
        let mut seen = 0;
        while seen < rounds {
            if let Some(p) = poll_message(&s).unwrap() {
                assert_eq!(p, format!("msg-{seen}").as_bytes());
                consume_message(&s, p.len());
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn frame_to_words_matches_write_message() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let s = slot(frame_words(len));
            write_message(&s, &payload).unwrap();
            let direct: Vec<u64> = s.iter().map(|w| w.load(Ordering::Relaxed)).collect();
            assert_eq!(frame_to_words(&payload), direct, "len={len}");
        }
    }

    #[test]
    fn frame_words_formula() {
        assert_eq!(frame_words(0), 2);
        assert_eq!(frame_words(1), 3);
        assert_eq!(frame_words(8), 3);
        assert_eq!(frame_words(9), 4);
        assert_eq!(max_payload(2), 0);
        assert_eq!(max_payload(3), 8);
        assert_eq!(max_payload(0), 0);
    }
}
