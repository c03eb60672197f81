//! Operation history recording and consistency checking.
//!
//! The recorder is a cheap `Rc` handle threaded through instrumented
//! clients; every op logs its invocation and response on the virtual clock.
//! Checks run after the run settles:
//!
//! * [`History::check_linearizable`] — per-key *register* linearizability:
//!   there must exist a total order of the ops on each key, consistent with
//!   real time (if op A's response precedes op B's invocation, A orders
//!   before B), in which every successful read returns the latest written
//!   value. Failed or unresolved writes are *maybe-applied*: the search may
//!   include or exclude them. Failed reads constrain nothing.
//! * [`History::check_reads_observed_writes`] — value integrity: a read may
//!   only ever return bytes some client actually wrote to that key (or
//!   "absent"). A torn RDMA read that slipped past the guardian word, or a
//!   stale value fetched through a dangling cached pointer after lease
//!   expiry, shows up here even when the interleaving happens to make the
//!   stale value linearizable.
//! * [`check_convergence`] — replica equality: after heal + settle, every
//!   replica of a partition must hold an identical key→value map.
//!
//! Violations carry the run's seed; failing runs reproduce with
//! `HYDRA_SEED=<seed>`.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use hydra_sim::time::SimTime;

/// What kind of op a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Get,
    Insert,
    Update,
    Put,
    Delete,
}

impl OpKind {
    fn is_write(self) -> bool {
        !matches!(self, OpKind::Get)
    }
}

/// How an op ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Still in flight when the run ended. Writes are maybe-applied; reads
    /// constrain nothing.
    Pending,
    /// Completed successfully. For a `Get`, carries the observed value
    /// (`None` = key absent); for writes the payload is `None`.
    Ok(Option<Vec<u8>>),
    /// Failed (timeout or server error). A failed write is maybe-applied —
    /// the request may have executed after the client gave up — so it gets
    /// an unbounded effect window.
    Failed,
}

/// One recorded client op.
#[derive(Debug)]
struct OpRecord {
    kind: OpKind,
    key: Vec<u8>,
    /// The written value for `Insert`/`Update`/`Put` (`None` for `Delete`
    /// and `Get`).
    value: Option<Vec<u8>>,
    invoke: SimTime,
    response: Option<SimTime>,
    outcome: Outcome,
}

struct HistoryInner {
    seed: u64,
    records: Vec<OpRecord>,
}

/// Shared handle to the op log. Clones are cheap and append to the same
/// history.
#[derive(Clone)]
pub struct History {
    inner: Rc<RefCell<HistoryInner>>,
}

/// A consistency-check failure. `Display` (and `Debug`, so `unwrap()`
/// failures are actionable) include the reproduction seed.
pub struct Violation {
    seed: u64,
    detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} — reproduce with HYDRA_SEED={}",
            self.detail, self.seed
        )
    }
}

impl fmt::Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl History {
    /// Creates an empty history tagged with the run's seed.
    pub(crate) fn new(seed: u64) -> Self {
        History {
            inner: Rc::new(RefCell::new(HistoryInner {
                seed,
                records: Vec::new(),
            })),
        }
    }

    /// Records an invocation at `now`; returns the record id to close with
    /// [`end`](Self::end).
    pub(crate) fn begin(
        &self,
        kind: OpKind,
        key: &[u8],
        value: Option<&[u8]>,
        now: SimTime,
    ) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.records.push(OpRecord {
            kind,
            key: key.to_vec(),
            value: value.map(|v| v.to_vec()),
            invoke: now,
            response: None,
            outcome: Outcome::Pending,
        });
        inner.records.len() - 1
    }

    /// Records the response for op `id` at `now`.
    pub(crate) fn end(&self, id: usize, now: SimTime, outcome: Outcome) {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.records[id];
        debug_assert!(r.response.is_none(), "op completed twice");
        r.response = Some(now);
        r.outcome = outcome;
    }

    /// Number of ops invoked so far (including pending ones).
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// Whether no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ops that completed with `Outcome::Ok`.
    pub fn completed_ok(&self) -> usize {
        self.inner
            .borrow()
            .records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok(_)))
            .count()
    }

    /// Number of ops that failed.
    pub fn failed(&self) -> usize {
        self.inner
            .borrow()
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Failed)
            .count()
    }

    /// Checks per-key register linearizability over the recorded history.
    pub fn check_linearizable(&self) -> Result<(), Violation> {
        let inner = self.inner.borrow();
        for (key, ops) in group_by_key(&inner.records) {
            if ops.len() > 128 {
                return Err(Violation {
                    seed: inner.seed,
                    detail: format!(
                        "key {:?}: {} ops exceed the checker's 128-op-per-key budget; \
                         spread the workload over more keys",
                        String::from_utf8_lossy(key),
                        ops.len()
                    ),
                });
            }
            if !linearizable(&ops) {
                return Err(Violation {
                    seed: inner.seed,
                    detail: format!(
                        "history of key {:?} is not linearizable:\n{}",
                        String::from_utf8_lossy(key),
                        render_ops(&ops)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Checks that every successful read of each key returned either a
    /// value some client wrote to that key (at any time, by any op,
    /// including failed ones) or "absent". Catches torn and stale reads
    /// independently of ordering.
    pub fn check_reads_observed_writes(&self) -> Result<(), Violation> {
        let inner = self.inner.borrow();
        let mut written: HashMap<&[u8], HashSet<&[u8]>> = HashMap::new();
        for r in &inner.records {
            if r.kind.is_write() {
                if let Some(v) = &r.value {
                    written.entry(&r.key).or_default().insert(v);
                }
            }
        }
        for r in &inner.records {
            if r.kind != OpKind::Get {
                continue;
            }
            if let Outcome::Ok(Some(v)) = &r.outcome {
                let ok = written
                    .get(r.key.as_slice())
                    .is_some_and(|s| s.contains(v.as_slice()));
                if !ok {
                    return Err(Violation {
                        seed: inner.seed,
                        detail: format!(
                            "read of key {:?} at t={} returned {:?}, which no client ever wrote \
                             (torn or stale value)",
                            String::from_utf8_lossy(&r.key),
                            r.invoke,
                            String::from_utf8_lossy(v)
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One replica's contents for the convergence checker: a label naming the
/// replica in violations, plus its sorted `(key, value)` items.
pub(crate) type ReplicaDump = (String, Vec<(Vec<u8>, Vec<u8>)>);

/// Checks that every replica dump holds the same key→value map.
pub fn check_convergence(seed: u64, replicas: &[ReplicaDump]) -> Result<(), Violation> {
    let Some((ref_label, reference)) = replicas.first() else {
        return Ok(());
    };
    for (label, dump) in &replicas[1..] {
        if dump.len() != reference.len() {
            return Err(Violation {
                seed,
                detail: format!(
                    "replica divergence: {ref_label} holds {} items but {label} holds {}",
                    reference.len(),
                    dump.len()
                ),
            });
        }
        for ((rk, rv), (dk, dv)) in reference.iter().zip(dump) {
            if rk != dk || rv != dv {
                return Err(Violation {
                    seed,
                    detail: format!(
                        "replica divergence on key {:?}: {ref_label} has ({:?}, {:?}), \
                         {label} has ({:?}, {:?})",
                        String::from_utf8_lossy(rk),
                        String::from_utf8_lossy(rk),
                        String::from_utf8_lossy(rv),
                        String::from_utf8_lossy(dk),
                        String::from_utf8_lossy(dv),
                    ),
                });
            }
        }
    }
    Ok(())
}

/// One key's op, reduced to what the register checker needs.
struct KeyOp {
    invoke: SimTime,
    /// `SimTime::MAX` when the effect window is unbounded (pending, or a
    /// failed write that may have executed after the client gave up).
    response: SimTime,
    is_write: bool,
    /// Must appear in the linearization (definite writes and successful
    /// reads). Maybe-applied writes are optional.
    must: bool,
    /// Written value for writes (`None` = delete/absent); observed value
    /// for reads.
    value: Option<Vec<u8>>,
}

fn group_by_key(records: &[OpRecord]) -> HashMap<&[u8], Vec<KeyOp>> {
    let mut by_key: HashMap<&[u8], Vec<KeyOp>> = HashMap::new();
    for r in records {
        let op = if r.kind.is_write() {
            let definite = matches!(r.outcome, Outcome::Ok(_));
            KeyOp {
                invoke: r.invoke,
                response: if definite {
                    r.response.expect("ok op has a response")
                } else {
                    SimTime::MAX
                },
                is_write: true,
                must: definite,
                value: r.value.clone(),
            }
        } else {
            match &r.outcome {
                Outcome::Ok(observed) => KeyOp {
                    invoke: r.invoke,
                    response: r.response.expect("ok op has a response"),
                    is_write: false,
                    must: true,
                    value: observed.clone(),
                },
                // Failed/pending reads constrain nothing; drop them.
                _ => continue,
            }
        };
        by_key.entry(&r.key).or_default().push(op);
    }
    by_key
}

/// Wing & Gong search: try to extend a linearization one minimal op at a
/// time, memoizing visited (linearized-set, register) states. `u128` mask
/// caps keys at 128 ops, enforced by the caller.
fn linearizable(ops: &[KeyOp]) -> bool {
    let n = ops.len();
    let all_must: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.must)
        .fold(0, |m, (i, _)| m | (1 << i));
    // Register state: index of the last linearized write, n = initial
    // (absent).
    let mut memo: HashSet<(u128, usize)> = HashSet::new();
    let mut stack: Vec<(u128, usize)> = vec![(0, n)];
    while let Some((mask, reg)) = stack.pop() {
        if mask & all_must == all_must {
            return true;
        }
        if !memo.insert((mask, reg)) {
            continue;
        }
        for i in 0..n {
            if mask & (1 << i) != 0 {
                continue;
            }
            // Real-time order: `i` may go next only if no other pending op
            // already responded before `i` was invoked.
            let blocked = (0..n).any(|j| {
                j != i && mask & (1 << j) == 0 && ops[j].must && ops[j].response < ops[i].invoke
            });
            if blocked {
                continue;
            }
            if ops[i].is_write {
                stack.push((mask | (1 << i), i));
            } else {
                let current = if reg == n { &None } else { &ops[reg].value };
                if *current == ops[i].value {
                    stack.push((mask | (1 << i), reg));
                }
            }
        }
    }
    false
}

fn render_ops(ops: &[KeyOp]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut sorted: Vec<&KeyOp> = ops.iter().collect();
    sorted.sort_by_key(|o| o.invoke);
    for o in sorted {
        let resp = if o.response == SimTime::MAX {
            "?".to_string()
        } else {
            o.response.to_string()
        };
        let _ = writeln!(
            s,
            "  [{:>12} .. {:>12}] {} {} {:?}",
            o.invoke,
            resp,
            if o.is_write { "write" } else { "read " },
            if o.must { "definite" } else { "maybe   " },
            o.value.as_ref().map(|v| String::from_utf8_lossy(v)),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> History {
        History::new(42)
    }

    fn write(h: &History, key: &[u8], val: &[u8], t0: SimTime, t1: SimTime) {
        let id = h.begin(OpKind::Put, key, Some(val), t0);
        h.end(id, t1, Outcome::Ok(None));
    }

    fn read(h: &History, key: &[u8], saw: Option<&[u8]>, t0: SimTime, t1: SimTime) {
        let id = h.begin(OpKind::Get, key, None, t0);
        h.end(id, t1, Outcome::Ok(saw.map(|v| v.to_vec())));
    }

    #[test]
    fn sequential_history_linearizes() {
        let h = h();
        write(&h, b"k", b"a", 0, 10);
        read(&h, b"k", Some(b"a"), 20, 30);
        write(&h, b"k", b"b", 40, 50);
        read(&h, b"k", Some(b"b"), 60, 70);
        read(&h, b"k2", None, 60, 70);
        h.check_linearizable().unwrap();
        h.check_reads_observed_writes().unwrap();
    }

    #[test]
    fn stale_read_after_overwrite_is_flagged() {
        let h = h();
        write(&h, b"k", b"a", 0, 10);
        write(&h, b"k", b"b", 20, 30);
        // Reads strictly after the overwrite responded must not see "a".
        read(&h, b"k", Some(b"a"), 40, 50);
        assert!(h.check_linearizable().is_err());
        // ... but the value itself was once written, so the integrity check
        // alone does not fire.
        h.check_reads_observed_writes().unwrap();
    }

    #[test]
    fn torn_read_is_flagged_by_integrity_check() {
        let h = h();
        write(&h, b"k", b"aaaa", 0, 10);
        read(&h, b"k", Some(b"aaXX"), 20, 30);
        let err = h.check_reads_observed_writes().unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("HYDRA_SEED=42"),
            "violation must print seed: {msg}"
        );
    }

    #[test]
    fn concurrent_writes_allow_either_order() {
        let h = h();
        // Two overlapping writes; a later read may see either winner.
        let w1 = h.begin(OpKind::Put, b"k", Some(b"x"), 0);
        let w2 = h.begin(OpKind::Put, b"k", Some(b"y"), 5);
        h.end(w1, 20, Outcome::Ok(None));
        h.end(w2, 25, Outcome::Ok(None));
        read(&h, b"k", Some(b"x"), 30, 40);
        h.check_linearizable().unwrap();
    }

    #[test]
    fn failed_write_is_maybe_applied() {
        // A timed-out overwrite may or may not have landed — even *after*
        // its timeout fired — so a later read may see either value.
        let h2 = History::new(1);
        write(&h2, b"k", b"a", 0, 10);
        let w = h2.begin(OpKind::Put, b"k", Some(b"b"), 20);
        h2.end(w, 30, Outcome::Failed);
        read(&h2, b"k", Some(b"a"), 40, 50);
        h2.check_linearizable().unwrap();
        let h3 = History::new(2);
        write(&h3, b"k", b"a", 0, 10);
        let w = h3.begin(OpKind::Put, b"k", Some(b"b"), 20);
        h3.end(w, 30, Outcome::Failed);
        read(&h3, b"k", Some(b"b"), 40, 50);
        h3.check_linearizable().unwrap();
    }

    #[test]
    fn value_resurrection_after_delete_is_flagged() {
        let h = h();
        write(&h, b"k", b"a", 0, 10);
        let d = h.begin(OpKind::Delete, b"k", None, 20);
        h.end(d, 30, Outcome::Ok(None));
        read(&h, b"k", Some(b"a"), 40, 50);
        assert!(h.check_linearizable().is_err());
        let h2 = History::new(9);
        write(&h2, b"k", b"a", 0, 10);
        let d = h2.begin(OpKind::Delete, b"k", None, 20);
        h2.end(d, 30, Outcome::Ok(None));
        read(&h2, b"k", None, 40, 50);
        h2.check_linearizable().unwrap();
    }

    #[test]
    fn pending_ops_do_not_block_later_ops() {
        let h = h();
        // A write that never responds can linearize arbitrarily late: read
        // "b", then the pending "a" lands, then read "a". Valid.
        h.begin(OpKind::Put, b"k", Some(b"a"), 0);
        write(&h, b"k", b"b", 100, 110);
        read(&h, b"k", Some(b"b"), 120, 130);
        read(&h, b"k", Some(b"a"), 140, 150);
        h.check_linearizable().unwrap();
        // But it cannot linearize *early*: w(b) responded before the first
        // read was invoked, so "a" then "b" has no valid order.
        let h2 = History::new(3);
        h2.begin(OpKind::Put, b"k", Some(b"a"), 0);
        write(&h2, b"k", b"b", 100, 110);
        read(&h2, b"k", Some(b"a"), 120, 130);
        read(&h2, b"k", Some(b"b"), 140, 150);
        assert!(h2.check_linearizable().is_err());
    }

    #[test]
    fn convergence_check_compares_sorted_dumps() {
        let a = (
            "p0/primary".to_string(),
            vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec()),
            ],
        );
        let same = ("p0/sec0".to_string(), a.1.clone());
        check_convergence(7, &[a.clone(), same]).unwrap();
        let diff = (
            "p0/sec0".to_string(),
            vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), b"XX".to_vec()),
            ],
        );
        let err = check_convergence(7, &[a, diff]).unwrap_err();
        assert!(format!("{err}").contains("HYDRA_SEED=7"));
    }

    #[test]
    fn read_concurrent_with_write_may_see_old_or_new() {
        for saw in [Some(b"new".as_slice()), None] {
            let h = History::new(5);
            let w = h.begin(OpKind::Insert, b"k", Some(b"new"), 0);
            let r = h.begin(OpKind::Get, b"k", None, 5);
            h.end(r, 8, Outcome::Ok(saw.map(|v| v.to_vec())));
            h.end(w, 10, Outcome::Ok(None));
            h.check_linearizable()
                .unwrap_or_else(|e| panic!("saw={saw:?}: {e}"));
        }
    }
}
