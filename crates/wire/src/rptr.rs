//! Remote pointers: the client-cached description of where a key-value item
//! lives inside a server's registered memory (§4.2.2).
//!
//! A GET served through the message path returns, besides the value, a
//! `RemotePtr` and a lease expiry. The client caches the pointer and, while
//! the lease holds, later GETs of the same key fetch the item directly with a
//! one-sided RDMA Read — zero server CPU.
//!
//! # Address stability
//!
//! A cached pointer names *item* memory in the arena, never index memory.
//! This is the contract that lets the server resize or rebuild its hash
//! index (including the packed table's incremental group splits) without
//! invalidating a single outstanding pointer: resizes move index **entries**
//! — (tag, offset) pairs — while the items they point at stay at fixed
//! arena offsets until an update/delete retires them through the guardian
//! word plus lease-deferred reclamation. Clients therefore never need to be
//! notified of index maintenance; staleness is only ever signalled by the
//! guardian protocol on the item itself.

/// Location of an item inside a server-side registered memory region.
///
/// The paper packs this into a 48-bit offset + metadata; we keep an explicit
/// 16-byte encoding: region id (which memory region / rkey), byte offset
/// within the region, and the full item length to fetch (header + key +
/// value + guardian word), so a single RDMA Read retrieves everything needed
/// to validate freshness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RemotePtr {
    /// Registered-region identifier (acts as the rkey in the simulation).
    pub region: u32,
    /// Byte offset of the item within the region. Must fit in 48 bits, like
    /// the paper's slot encoding.
    pub offset: u64,
    /// Total bytes to read (item header through guardian word).
    pub len: u32,
}

/// Byte length of the wire encoding of a [`RemotePtr`].
pub(crate) const REMOTE_PTR_BYTES: usize = 16;

impl RemotePtr {
    /// Maximum representable offset (48 bits, matching the compact slot
    /// layout of §4.1.3).
    pub(crate) const MAX_OFFSET: u64 = (1 << 48) - 1;

    /// Creates a pointer, asserting the 48-bit offset invariant.
    pub fn new(region: u32, offset: u64, len: u32) -> Self {
        assert!(offset <= Self::MAX_OFFSET, "offset exceeds 48 bits");
        RemotePtr {
            region,
            offset,
            len,
        }
    }

    /// Encodes into 16 bytes: `[region:4][offset:6][len:4][pad:2]`.
    pub fn encode(&self) -> [u8; REMOTE_PTR_BYTES] {
        let mut out = [0u8; REMOTE_PTR_BYTES];
        out[0..4].copy_from_slice(&self.region.to_le_bytes());
        out[4..10].copy_from_slice(&self.offset.to_le_bytes()[..6]);
        out[10..14].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Decodes a 16-byte encoding.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < REMOTE_PTR_BYTES {
            return None;
        }
        let region = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let mut off = [0u8; 8];
        off[..6].copy_from_slice(&buf[4..10]);
        let offset = u64::from_le_bytes(off);
        let len = u32::from_le_bytes(buf[10..14].try_into().ok()?);
        Some(RemotePtr {
            region,
            offset,
            len,
        })
    }

    /// A sentinel meaning "no pointer available" (e.g. item not
    /// RDMA-readable). Encoded as all zeros with `len == 0`.
    pub fn none() -> Self {
        RemotePtr {
            region: 0,
            offset: 0,
            len: 0,
        }
    }

    /// Whether this is the [`none`](Self::none) sentinel.
    pub fn is_none(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let p = RemotePtr::new(7, 0x0000_1234_5678_9ABC, 4096);
        let enc = p.encode();
        assert_eq!(RemotePtr::decode(&enc), Some(p));
    }

    #[test]
    fn max_offset_roundtrips() {
        let p = RemotePtr::new(u32::MAX, RemotePtr::MAX_OFFSET, u32::MAX);
        assert_eq!(RemotePtr::decode(&p.encode()), Some(p));
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_offset_panics() {
        RemotePtr::new(0, 1 << 48, 1);
    }

    #[test]
    fn short_buffer_decodes_none() {
        assert_eq!(RemotePtr::decode(&[0u8; 8]), None);
    }

    #[test]
    fn none_sentinel() {
        let p = RemotePtr::none();
        assert!(p.is_none());
        assert!(!RemotePtr::new(0, 0, 1).is_none());
        assert_eq!(RemotePtr::decode(&p.encode()), Some(p));
    }
}
