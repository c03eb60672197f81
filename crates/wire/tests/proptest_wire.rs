//! Property-based tests: every encode/decode pair in the wire layer must
//! round-trip arbitrary inputs, and framing must tolerate arbitrary payload
//! lengths against arbitrary (sufficient) slot sizes.

use std::sync::atomic::AtomicU64;

use hydra_wire::{
    frame, scan_items_begin, scan_items_finish, scan_items_merge, scan_items_push, scan_items_rank,
    scan_response_begin, scan_response_finish, BatchBuilder, BatchFrame, LogOp, LogRecord,
    RemotePtr, Request, Response, ScanItems, Status,
};
use proptest::prelude::*;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_roundtrips_any_payload(payload in bytes(2048), slack in 0usize..8) {
        let words = frame::frame_words(payload.len()) + slack;
        let slot: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        frame::write_message(&slot, &payload).unwrap();
        let got = frame::poll_message(&slot).unwrap().expect("complete");
        prop_assert_eq!(&got, &payload);
        frame::consume_message(&slot, got.len());
        for w in &slot {
            prop_assert_eq!(w.load(std::sync::atomic::Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn frame_to_words_equals_write_message(payload in bytes(1024)) {
        let slot: Vec<AtomicU64> =
            (0..frame::frame_words(payload.len())).map(|_| AtomicU64::new(0)).collect();
        frame::write_message(&slot, &payload).unwrap();
        let direct: Vec<u64> =
            slot.iter().map(|w| w.load(std::sync::atomic::Ordering::Relaxed)).collect();
        prop_assert_eq!(frame::frame_to_words(&payload), direct);
    }

    #[test]
    fn request_roundtrips(req_id in any::<u64>(), key in bytes(64), value in bytes(256), op in 0u8..4) {
        let req = match op {
            0 => Request::Get { req_id, key: &key },
            1 => Request::Insert { req_id, key: &key, value: &value },
            2 => Request::Update { req_id, key: &key, value: &value },
            _ => Request::Delete { req_id, key: &key },
        };
        let enc = req.encode();
        let dec = Request::decode(&enc).expect("decodes");
        prop_assert_eq!(dec, req);
    }

    /// Decoding borrows; re-encoding the borrowed form must reproduce the
    /// original bytes exactly for every request shape.
    #[test]
    fn borrowed_reencode_is_byte_identical(
        req_id in any::<u64>(),
        key in bytes(64),
        value in bytes(256),
        op in 0u8..4,
    ) {
        let req = match op {
            0 => Request::Get { req_id, key: &key },
            1 => Request::Insert { req_id, key: &key, value: &value },
            2 => Request::Update { req_id, key: &key, value: &value },
            _ => Request::Delete { req_id, key: &key },
        };
        let enc = req.encode();
        let dec = Request::decode(&enc).expect("decodes");
        prop_assert_eq!(dec.encode(), enc);
    }

    #[test]
    fn response_roundtrips(
        req_id in any::<u64>(),
        value in bytes(512),
        region in any::<u32>(),
        offset in 0u64..(1 << 48),
        len in any::<u32>(),
        lease in any::<u64>(),
        status in 1u8..5,
    ) {
        let resp = Response {
            status: Status::from_u8(status).unwrap(),
            req_id,
            value: &value,
            rptr: RemotePtr::new(region, offset, len),
            lease_expiry: lease,
            replicas: None,
        };
        let enc = resp.encode();
        prop_assert_eq!(Response::decode(&enc).expect("decodes"), resp);
    }

    #[test]
    fn log_record_roundtrips(seq in any::<u64>(), key in bytes(64), value in bytes(256), op in 1u8..4) {
        let rec = LogRecord { seq, op: LogOp::from_u8(op).unwrap(), key: &key, value: &value };
        let enc = rec.encode();
        prop_assert_eq!(enc.len(), rec.encoded_len());
        prop_assert_eq!(LogRecord::decode(&enc).expect("decodes"), rec);
    }

    #[test]
    fn truncated_requests_never_panic(payload in bytes(128), cut in 0usize..128) {
        // Arbitrary garbage and truncations must decode to None, not panic.
        let slice = &payload[..cut.min(payload.len())];
        let _ = Request::decode(slice);
        let _ = Response::decode(slice);
        let _ = LogRecord::decode(slice);
    }

    #[test]
    fn remote_ptr_roundtrips(region in any::<u32>(), offset in 0u64..(1 << 48), len in any::<u32>()) {
        let p = RemotePtr::new(region, offset, len);
        prop_assert_eq!(RemotePtr::decode(&p.encode()), Some(p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_frame_roundtrips_any_messages(msgs in proptest::collection::vec(bytes(128), 0..20)) {
        let mut b = BatchBuilder::new();
        for m in &msgs {
            b.push(m);
        }
        prop_assert_eq!(b.count() as usize, msgs.len());
        prop_assert!(BatchFrame::is_batch(b.bytes()) );
        let frame = BatchFrame::parse(b.bytes()).expect("builder output parses");
        prop_assert_eq!(frame.len(), msgs.len());
        let got: Vec<Vec<u8>> = frame.iter().map(|m| m.to_vec()).collect();
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn batch_of_requests_decodes_back(reqs in proptest::collection::vec(
        (any::<u64>(), bytes(48), bytes(96)), 1..12)
    ) {
        // The production shape: encoded requests packed via push_with, then
        // each window entry decoded independently on the server side.
        let mut b = BatchBuilder::new();
        for (req_id, key, value) in &reqs {
            b.push_with(|out| Request::Update { req_id: *req_id, key, value }.encode_into(out));
        }
        let frame = BatchFrame::parse(b.bytes()).expect("parses");
        for (msg, (req_id, key, value)) in frame.iter().zip(&reqs) {
            let dec = Request::decode(msg).expect("entry decodes");
            prop_assert_eq!(dec, Request::Update { req_id: *req_id, key, value });
        }
    }

    #[test]
    fn truncated_batches_rejected(msgs in proptest::collection::vec(bytes(64), 0..8), cut in 0usize..512) {
        let mut b = BatchBuilder::new();
        for m in &msgs {
            b.push(m);
        }
        let full = b.bytes();
        // Every strict prefix fails validation: the entry chain must land
        // exactly on the frame's end.
        let cut = cut % full.len().max(1);
        prop_assert!(BatchFrame::parse(&full[..cut]).is_none());
        // So does any extension.
        let mut extended = full.to_vec();
        extended.push(0);
        prop_assert!(BatchFrame::parse(&extended).is_none());
    }

    #[test]
    fn corrupted_batches_never_panic(msgs in proptest::collection::vec(bytes(64), 1..8),
                                     idx in any::<usize>(), bit in 0u8..8) {
        // Single-bit corruption anywhere either still parses (payload bits)
        // or is rejected — iteration over whatever parses must stay in
        // bounds and yield exactly `len()` messages.
        let mut buf = {
            let mut b = BatchBuilder::new();
            for m in &msgs {
                b.push(m);
            }
            b.bytes().to_vec()
        };
        let idx = idx % buf.len();
        buf[idx] ^= 1 << bit;
        if let Some(frame) = BatchFrame::parse(&buf) {
            prop_assert_eq!(frame.iter().count(), frame.len());
        }
    }
}

fn pack(items: &[(Vec<u8>, Vec<u8>)], more: bool) -> Vec<u8> {
    let mut out = Vec::new();
    scan_items_begin(&mut out);
    for (k, v) in items {
        scan_items_push(&mut out, k, v);
    }
    scan_items_finish(&mut out, more, items.len() as u32);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging key-sorted runs under a limit packs, byte for byte, what
    /// concatenating them, sorting by key (stably) and truncating packs —
    /// empty runs, no runs, duplicate keys across runs and limit 0 included.
    #[test]
    fn merging_sorted_runs_equals_concatenate_sort_truncate(
        runs in proptest::collection::vec(
            proptest::collection::vec((bytes(6), bytes(40)), 0..12), 0..7),
        limit in prop_oneof![Just(0u32), 0u32..80, Just(u32::MAX)],
        more in any::<bool>(),
    ) {
        let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = runs
            .into_iter()
            .map(|mut run| {
                run.sort_by(|a, b| a.0.cmp(&b.0));
                run
            })
            .collect();
        let packed: Vec<Vec<u8>> = runs.iter().map(|run| pack(run, more)).collect();
        let mut merged = vec![0xEE; 3]; // stale contents must not survive
        scan_items_merge(
            packed.iter().map(|p| ScanItems::parse(p).expect("packed above")),
            limit,
            &mut merged,
        );
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = runs.concat();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.truncate(limit as usize);
        prop_assert_eq!(merged, pack(&all, false));
    }

    /// A key's rank among key-sorted runs is how many of their items sort at
    /// or before it — present or absent, before the first or past the last,
    /// with duplicates across runs each counted.
    #[test]
    fn rank_counts_the_items_at_or_before_a_key(
        runs in proptest::collection::vec(
            proptest::collection::vec((bytes(3), bytes(8)), 0..12), 0..7),
        key in bytes(3),
    ) {
        let runs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = runs
            .into_iter()
            .map(|mut run| {
                run.sort_by(|a, b| a.0.cmp(&b.0));
                run
            })
            .collect();
        let packed: Vec<Vec<u8>> = runs.iter().map(|run| pack(run, false)).collect();
        let rank = scan_items_rank(
            packed.iter().map(|p| ScanItems::parse(p).expect("packed above")),
            &key,
        );
        prop_assert_eq!(rank, runs.concat().iter().filter(|(k, _)| *k <= key).count());
    }

    /// A scan response framed in place — header opened, items appended,
    /// lengths patched — is the response `encode_into` builds from a staged
    /// item list, wherever in a buffer it starts.
    #[test]
    fn scan_response_framed_in_place_equals_encoded_response(
        prefix in bytes(24),
        req_id in any::<u64>(),
        items in proptest::collection::vec((bytes(16), bytes(48)), 0..10),
        more in any::<bool>(),
    ) {
        let mut framed = prefix.clone();
        let at = scan_response_begin(&mut framed, req_id);
        prop_assert_eq!(at, prefix.len());
        for (k, v) in &items {
            scan_items_push(&mut framed, k, v);
        }
        scan_response_finish(&mut framed, at, more, items.len() as u32);
        let staged = pack(&items, more);
        let mut encoded = prefix;
        Response { value: &staged, ..Response::status_only(Status::Ok, req_id) }
            .encode_into(&mut encoded);
        prop_assert_eq!(framed, encoded);
    }
}
