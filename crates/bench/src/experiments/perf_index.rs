//! Index microbenchmark (§4.1.3): the packed cache-line-group table against
//! the compact signature table and the chained-list baseline, probing
//! through a simulated item heap so the full-key confirm pays realistic
//! cache costs.
//!
//! Sweeps load factor × value size and reports single-key hit-probe
//! throughput for the three structures plus the packed/chained speedup. The
//! headline datum (`speedup_lf90_v32_b1`) is the speedup at load factor 0.9
//! with 16 B keys / 32 B values — the regime the paper's YCSB runs live in.
//! Datum keys keep the `_b1` (one key per probe) suffix of the rows they
//! continue.
//!
//! The packed table is pinned at the target load factor with growth disabled
//! (`with_max_load(groups, 8)`); the compact table has as many 64 B buckets
//! of seven slots (`CompactTable::new(groups)`), so it sits at the same load
//! factor, chaining overflow buckets where a line fills; the chained
//! baseline uses the seed engine's sizing of one bucket per four entries,
//! i.e. four pointer dereferences per expected chain walk against the
//! packed table's one-line group probes. The structural counts behind these
//! rates are `abl_hashtable`'s.

use std::time::Instant;

use hydra_store::{hash_key, ChainedTable, CompactTable, PackedTable, GROUP_SLOTS};

use crate::{Lcg, Report, Scale};

/// One synthetic item: 16 B key followed by the value bytes.
const KEY_LEN: usize = 16;

struct Heap {
    bytes: Vec<u8>,
    stride: usize,
}

impl Heap {
    fn new(n: usize, value_len: usize) -> Heap {
        let stride = KEY_LEN + value_len;
        let mut bytes = vec![0u8; n * stride];
        for i in 0..n {
            bytes[i * stride..i * stride + KEY_LEN].copy_from_slice(key_bytes(i).as_slice());
        }
        Heap { bytes, stride }
    }

    #[inline]
    fn key_at(&self, off: u64) -> &[u8] {
        &self.bytes[off as usize..off as usize + KEY_LEN]
    }
}

fn key_bytes(i: usize) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..4].copy_from_slice(b"user");
    let digits = format!("{i:012}");
    k[4..].copy_from_slice(digits.as_bytes());
    k
}

/// Deterministic probe order: a full-period LCG walk over `[0, n)`.
fn probe_order(n: usize, ops: usize) -> Vec<u32> {
    let mut lcg = Lcg(0x9e37_79b9_7f4a_7c15);
    (0..ops).map(|_| ((lcg.step() >> 33) % n as u64) as u32).collect()
}

/// Hit-probe throughput (Mops) of one table type: the tables share no
/// trait, so the probe loop is written once and instantiated per type.
macro_rules! bench_probes {
    ($name:ident, $table:ty) => {
        fn $name(t: &mut $table, heap: &Heap, hashes: &[u64], order: &[u32]) -> f64 {
            let stride = heap.stride as u64;
            let start = Instant::now();
            let mut hits = 0usize;
            for &i in order {
                let want = i as u64 * stride;
                if t.lookup(hashes[i as usize], |off| heap.key_at(off) == heap.key_at(want))
                    == Some(want)
                {
                    hits += 1;
                }
            }
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(hits, order.len(), "all probes must hit");
            hits as f64 / secs / 1e6
        }
    };
}

bench_probes!(bench_chained, ChainedTable);
bench_probes!(bench_compact, CompactTable);
bench_probes!(bench_packed, PackedTable);

pub(crate) fn run(scale: Scale, report: &mut Report) {
    // Groups sized so load factor 0.9 holds ~`records()` entries.
    let groups = ((scale.records() as usize) / GROUP_SLOTS)
        .next_power_of_two()
        .max(64);
    let slots = groups * GROUP_SLOTS;
    let ops = match scale {
        Scale::Smoke => 200_000,
        Scale::Normal => 4_000_000,
        Scale::Paper => 20_000_000,
    };

    report.line(&format!(
        "# {groups} groups ({slots} slots); {ops} hit-probes per cell; 16 B keys"
    ));
    report.header("lf<6.2|value>6|chained_mops>14.2|compact_mops>14.2|packed_mops>14.2|speedup>9");

    let mut headline = 0.0f64;
    for &lf in &[0.5f64, 0.7, 0.9] {
        let n = (lf * slots as f64) as usize;
        for &value_len in &[16usize, 32, 256] {
            let heap = Heap::new(n, value_len);
            let hashes: Vec<u64> = (0..n).map(|i| hash_key(&key_bytes(i))).collect();
            // Growth disabled: the load factor under test stays pinned.
            let mut packed = PackedTable::with_max_load(groups, 8);
            let mut compact = CompactTable::new(groups);
            let mut chained = ChainedTable::new((n / 4).max(16));
            for (i, &h) in hashes.iter().enumerate() {
                let off = (i * heap.stride) as u64;
                packed.insert(h, off, |_| unreachable!("growth disabled"));
                compact.insert(h, off);
                chained.insert(h, off);
            }
            let order = probe_order(n, ops);
            // Warm every structure's caches identically, then measure.
            let _ = bench_chained(&mut chained, &heap, &hashes, &order[..ops / 10]);
            let _ = bench_compact(&mut compact, &heap, &hashes, &order[..ops / 10]);
            let _ = bench_packed(&mut packed, &heap, &hashes, &order[..ops / 10]);
            let c = bench_chained(&mut chained, &heap, &hashes, &order);
            let k = bench_compact(&mut compact, &heap, &hashes, &order);
            let p = bench_packed(&mut packed, &heap, &hashes, &order);
            let speedup = p / c;
            if (lf - 0.9).abs() < 1e-9 && value_len == 32 {
                headline = speedup;
            }
            report.row(&[&lf, &value_len, &c, &k, &p, &format!("{speedup:.2}x")]);
            report.datum(
                &format!("lf{:02}_v{}_b1", (lf * 100.0) as u32, value_len),
                serde_json::json!({
                    "load_factor": lf,
                    "value_len": value_len,
                    "chained_mops": c,
                    "compact_mops": k,
                    "packed_mops": p,
                    "speedup": speedup,
                }),
            );
        }
    }
    report.datum("speedup_lf90_v32_b1", headline);
    report.line(&format!(
        "# headline: packed is {headline:.2}x chained on single-key probes at LF 0.9 / 32 B values"
    ));
    report.line("# packed touches one 64 B line per group probed (tags + slots inline);");
    report.line("# compact one line per bucket, then its overflow chain; chained one heap node per hop");
}
