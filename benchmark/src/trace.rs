//! In-memory spans and the counting allocator for `--trace 1`.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions, and written out once when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations while [`set_counting`] is on. The untraced run
/// pays one predictable branch per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    // Relaxed: the counters publish no other data, and the process is
    // single-threaded.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded span. Times are host nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// Counters snapshotted at the span's end (name, value).
    pub counters: Vec<(&'static str, f64)>,
}

/// Span recorder for one run.
pub struct Tracer {
    t0: Instant,
    workload: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Starts the clock and opens the root span (index 0).
    pub fn new(workload: &'static str) -> Tracer {
        let mut t = Tracer {
            t0: Instant::now(),
            workload,
            spans: Vec::new(),
        };
        t.begin("run", None);
        t
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes span `id` and attaches counters read at that boundary.
    pub fn end_with(&mut self, id: usize, counters: Vec<(&'static str, f64)>) {
        self.end(id);
        self.spans[id].counters = counters;
    }

    /// Records an already-timed child span (used for sampled per-op spans,
    /// whose start and end are taken inside callbacks).
    pub fn push_timed(
        &mut self,
        name: &str,
        parent: usize,
        start: Instant,
        end: Instant,
        counters: Vec<(&'static str, f64)>,
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: rel(start),
            end_ns: rel(end),
            parent: Some(parent),
            counters,
        });
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// A span's self time: its duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(covered)
    }

    /// Renders every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\":\"");
        out.push_str(self.workload);
        out.push_str("\",\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{}\",\"start\":{},\"end\":{},\"self\":{},\"parent\":{parent},\"counters\":{{",
                s.name,
                self.workload,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
            );
            for (j, (k, v)) in s.counters.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}");
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_lists_every_span() {
        let mut t = Tracer::new("unit");
        let a = t.begin("phase", Some(0));
        let b = t.begin("inner", Some(a));
        t.end(b);
        t.end_with(a, vec![("ops", 3.0)]);
        t.end(0);
        // Pin the times so the arithmetic is checkable.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[a].start_ns = 10;
        t.spans[a].end_ns = 70;
        t.spans[b].start_ns = 20;
        t.spans[b].end_ns = 50;
        assert_eq!(t.self_ns(0), 40);
        assert_eq!(t.self_ns(a), 30);
        assert_eq!(t.self_ns(b), 30);
        let json = t.to_json();
        assert_eq!(json.matches("\"name\":").count(), 3);
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"ops\":3"));
    }
}
