//! Self-verifying items à la Pilaf — the alternative §4.2.3 argues against.
//!
//! Pilaf lets clients detect read-write races by storing a checksum over the
//! whole item; every one-sided read re-computes it. HydraDB's guardian word
//! replaces that with a single atomic flag plus out-of-place updates, paying
//! O(1) per validation instead of O(item size) (and nothing on the server
//! beyond the flip). This module implements the checksum design for the
//! A-CONSISTENCY ablation so the cost difference is measurable rather than
//! asserted: see `hydra-bench run abl_consistency`.

/// CRC-64/XZ (ECMA-182 polynomial, reflected), table-driven.
pub struct Crc64 {
    table: [u64; 256],
}

const POLY: u64 = 0xC96C_5795_D787_0F42; // reflected ECMA-182

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Builds the lookup table.
    pub fn new() -> Self {
        let mut table = [0u64; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        Crc64 { table }
    }

    /// Checksums `data`.
    pub(crate) fn checksum(&self, data: &[u8]) -> u64 {
        let mut crc = u64::MAX;
        for &b in data {
            crc = self.table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }
}

/// A Pilaf-style self-verifying item: `[klen:4][vlen:4][key][value][crc:8]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumItem {
    buf: Vec<u8>,
}

/// Validation outcome for a fetched self-verifying blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChecksumVerdict {
    /// Checksum matched; value extracted.
    Valid(Vec<u8>),
    /// Torn or modified read detected.
    Mismatch,
    /// Structurally unparseable.
    Corrupt,
}

impl ChecksumItem {
    /// Serializes an item with its trailing checksum (what Pilaf's server
    /// pays on *every* write — O(key+value)).
    pub fn build(crc: &Crc64, key: &[u8], value: &[u8]) -> ChecksumItem {
        let mut buf = Vec::with_capacity(16 + key.len() + value.len());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        let sum = crc.checksum(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        ChecksumItem { buf }
    }

    /// The serialized bytes (what a one-sided read fetches).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Client-side validation: recompute the checksum over the fetched blob
    /// (what Pilaf pays on *every* read — O(key+value)).
    pub fn verify(crc: &Crc64, blob: &[u8]) -> ChecksumVerdict {
        if blob.len() < 16 {
            return ChecksumVerdict::Corrupt;
        }
        let klen = u32::from_le_bytes(blob[0..4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(blob[4..8].try_into().unwrap()) as usize;
        let body = 8 + klen + vlen;
        if blob.len() < body + 8 {
            return ChecksumVerdict::Corrupt;
        }
        let stored = u64::from_le_bytes(blob[body..body + 8].try_into().unwrap());
        if crc.checksum(&blob[..body]) != stored {
            return ChecksumVerdict::Mismatch;
        }
        ChecksumVerdict::Valid(blob[8 + klen..body].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vector() {
        // CRC-64/XZ("123456789") = 0x995DC9BBDF1939FA
        let crc = Crc64::new();
        assert_eq!(crc.checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc.checksum(b""), 0);
    }

    #[test]
    fn roundtrip_validates() {
        let crc = Crc64::new();
        let item = ChecksumItem::build(&crc, b"user:42", b"some value bytes");
        match ChecksumItem::verify(&crc, item.bytes()) {
            ChecksumVerdict::Valid(v) => assert_eq!(v, b"some value bytes"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_bit_flip_detected() {
        let crc = Crc64::new();
        let item = ChecksumItem::build(&crc, b"key", b"value-value-value");
        let mut blob = item.bytes().to_vec();
        for byte in 0..blob.len() - 8 {
            blob[byte] ^= 0x10;
            assert_ne!(
                ChecksumItem::verify(&crc, &blob),
                ChecksumVerdict::Valid(b"value-value-value".to_vec()),
                "flip at byte {byte} undetected"
            );
            blob[byte] ^= 0x10;
        }
    }

    #[test]
    fn torn_read_detected() {
        // Simulate a read racing an in-place update: half old, half new.
        let crc = Crc64::new();
        let old = ChecksumItem::build(&crc, b"k", &[0xAAu8; 64]);
        let new = ChecksumItem::build(&crc, b"k", &[0xBBu8; 64]);
        let mut torn = old.bytes().to_vec();
        torn[40..].copy_from_slice(&new.bytes()[40..]);
        assert_eq!(ChecksumItem::verify(&crc, &torn), ChecksumVerdict::Mismatch);
    }

    #[test]
    fn truncation_is_corrupt() {
        let crc = Crc64::new();
        let item = ChecksumItem::build(&crc, b"key", b"value");
        assert_eq!(
            ChecksumItem::verify(&crc, &item.bytes()[..10]),
            ChecksumVerdict::Corrupt
        );
        assert_eq!(ChecksumItem::verify(&crc, &[]), ChecksumVerdict::Corrupt);
    }
}
