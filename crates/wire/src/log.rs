//! Replication log records (§5.2).
//!
//! The primary shard replicates every write into each secondary's exposed
//! memory ring as a *log record* carried inside an indicator-encapsulated
//! frame. Records bear a sequence number incremented by one per record; the
//! secondary acknowledges the highest contiguously applied sequence. An
//! `AckRequest` record (no payload) asks the secondary to publish its
//! acknowledgement counter — the "relaxed request/acknowledge" model where
//! the primary only solicits an ack every few tens of records.
//!
//! # Cumulative acknowledgement (group commit)
//!
//! The acknowledgement is always *cumulative*: the secondary RDMA-writes
//! `[acked_seq + 1, resend_from + 1]` into the primary's ack region, where
//! `acked_seq` is the highest sequence such that every record `<= acked_seq`
//! has been contiguously staged and merged (or is a consumed `AckRequest`).
//! Group-commit mode leans on this: the primary ships a whole quantum with
//! one doorbell, appends a single `AckRequest` to the same doorbell, and the
//! one returning watermark releases *every* held response at or below it in
//! sequence order. A gap (lost/overtaken frame) or a processing failure
//! stalls the watermark at the last good sequence — the second word then
//! carries `resend_from + 1` and the primary rolls back and re-ships from
//! there — so an acknowledged record is always covered by replica state,
//! never skipped over.

/// Operation captured in a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LogOp {
    /// Insert or upsert a key-value pair.
    Put = 1,
    /// Remove a key.
    Delete = 2,
    /// Solicit an acknowledgement from the secondary.
    AckRequest = 3,
}

impl LogOp {
    /// Parses a wire byte.
    pub fn from_u8(v: u8) -> Option<LogOp> {
        Some(match v {
            1 => LogOp::Put,
            2 => LogOp::Delete,
            3 => LogOp::AckRequest,
            _ => return None,
        })
    }
}

const LOG_HDR: usize = 8 + 1 + 3 + 4 + 4;

/// One replication log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord<'a> {
    /// Primary-assigned sequence number (monotonic, +1 per record).
    pub seq: u64,
    /// What to apply.
    pub op: LogOp,
    /// Key bytes (empty for `AckRequest`).
    pub key: &'a [u8],
    /// Value bytes (empty for `Delete` / `AckRequest`).
    pub value: &'a [u8],
}

impl<'a> LogRecord<'a> {
    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        LOG_HDR + self.key.len() + self.value.len()
    }

    /// Encoded length a record with the given key/value sizes would have,
    /// without constructing it — lets shippers size-check before framing.
    pub const fn encoded_len_for(key_len: usize, value_len: usize) -> usize {
        LOG_HDR + key_len + value_len
    }

    /// Encodes into a fresh buffer:
    /// `[seq:8][op:1][pad:3][klen:4][vlen:4][key][value]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.op as u8);
        out.extend_from_slice(&[0, 0, 0]);
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(self.key);
        out.extend_from_slice(self.value);
        out
    }

    /// Decodes a record from `buf`.
    pub fn decode(buf: &'a [u8]) -> Option<LogRecord<'a>> {
        if buf.len() < LOG_HDR {
            return None;
        }
        let seq = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        let op = LogOp::from_u8(buf[8])?;
        let klen = u32::from_le_bytes(buf[12..16].try_into().ok()?) as usize;
        let vlen = u32::from_le_bytes(buf[16..20].try_into().ok()?) as usize;
        let body = &buf[LOG_HDR..];
        if body.len() < klen + vlen {
            return None;
        }
        Some(LogRecord {
            seq,
            op,
            key: &body[..klen],
            value: &body[klen..klen + vlen],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_roundtrips() {
        let r = LogRecord {
            seq: 17,
            op: LogOp::Put,
            key: b"k1",
            value: b"value-bytes",
        };
        let enc = r.encode();
        assert_eq!(enc.len(), r.encoded_len());
        assert_eq!(LogRecord::decode(&enc).unwrap(), r);
    }

    #[test]
    fn delete_and_ack_roundtrip() {
        let d = LogRecord {
            seq: 1,
            op: LogOp::Delete,
            key: b"gone",
            value: &[],
        };
        assert_eq!(LogRecord::decode(&d.encode()).unwrap(), d);
        let a = LogRecord {
            seq: 999,
            op: LogOp::AckRequest,
            key: &[],
            value: &[],
        };
        assert_eq!(LogRecord::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn truncation_rejected() {
        let r = LogRecord {
            seq: 5,
            op: LogOp::Put,
            key: b"abc",
            value: b"defg",
        };
        let enc = r.encode();
        for cut in 0..enc.len() {
            assert!(LogRecord::decode(&enc[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn bad_op_rejected() {
        let mut enc = LogRecord {
            seq: 1,
            op: LogOp::AckRequest,
            key: &[],
            value: &[],
        }
        .encode();
        enc[8] = 200;
        assert!(LogRecord::decode(&enc).is_none());
    }
}
