//! The traced run's instruments: an in-memory span recorder and a counting
//! wrapper around the systolic matmul backend. Both live in the benchmark;
//! the program is measured from outside, at the calls the benchmark makes.

use crate::stats::Dist;
use asr_accel::SystolicBackend;
use asr_tensor::{MatMul, Matrix};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cumulative kernel work, read at span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTotals {
    /// Matmul calls.
    pub calls: u64,
    /// Multiply-accumulates (`l·m·n` per `l×m · m×n` call).
    pub macs: u64,
    /// Bytes moved, computed from shapes: 4 B × (lm + mn + ln) per call.
    pub bytes: u64,
    /// Host nanoseconds inside the kernel.
    pub busy_ns: u64,
}

impl KernelTotals {
    /// The work of both.
    pub fn plus(self, other: KernelTotals) -> KernelTotals {
        KernelTotals {
            calls: self.calls + other.calls,
            macs: self.macs + other.macs,
            bytes: self.bytes + other.bytes,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }

    /// Whether both did the same work: equal calls, MACs and bytes.
    pub fn same_work(self, other: KernelTotals) -> bool {
        (self.calls, self.macs, self.bytes) == (other.calls, other.macs, other.bytes)
    }

    /// Work done between two readings.
    pub fn since(self, earlier: KernelTotals) -> KernelTotals {
        KernelTotals {
            calls: self.calls - earlier.calls,
            macs: self.macs - earlier.macs,
            bytes: self.bytes - earlier.bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// A [`MatMul`] that forwards to [`SystolicBackend`] unchanged and counts
/// and times every call. It also notes when a call multiplies by `marker`
/// (a weight matrix the caller names), which lets the traced run cut a
/// library call into the steps that begin with that weight.
pub struct CountingBackend {
    inner: SystolicBackend,
    epoch: Instant,
    marker: usize,
    calls: AtomicU64,
    macs: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    marks: Mutex<Vec<u64>>,
}

impl CountingBackend {
    /// Wrap `inner`; timestamps count from `epoch`.
    pub fn new(inner: SystolicBackend, epoch: Instant, marker: &Matrix) -> Self {
        CountingBackend {
            inner,
            epoch,
            marker: marker as *const Matrix as usize,
            calls: AtomicU64::new(0),
            macs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Work counted so far.
    pub fn totals(&self) -> KernelTotals {
        KernelTotals {
            calls: self.calls.load(Ordering::Relaxed),
            macs: self.macs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Start times (ns since the epoch) of the calls that multiplied by the
    /// marker weight since the last take.
    pub fn take_marks(&self) -> Vec<u64> {
        std::mem::take(&mut *self.marks.lock().expect("mark list never poisoned"))
    }
}

impl MatMul for CountingBackend {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let t0 = Instant::now();
        if b as *const Matrix as usize == self.marker {
            let at = t0.duration_since(self.epoch).as_nanos() as u64;
            self.marks.lock().expect("mark list never poisoned").push(at);
        }
        let out = self.inner.matmul(a, b);
        let ns = t0.elapsed().as_nanos() as u64;
        let (l, m, n) = (a.rows() as u64, a.cols() as u64, b.cols() as u64);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.macs.fetch_add(l * m * n, Ordering::Relaxed);
        self.bytes.fetch_add(4 * (l * m + m * n + l * n), Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `transformer.encode`.
    pub name: &'static str,
    /// Utterance, request-batch or ladder-point id the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Kernel work inside the span.
    pub kernel: KernelTotals,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder: spans are appended as they close and written
/// out once, at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, KernelTotals)>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().map(|&(i, _)| i);
        let start_ns = self.now_ns();
        let kernel = KernelTotals::default();
        self.spans.push(Span { name, id, start_ns, end_ns: start_ns, parent, kernel });
        self.open.push((idx, kernel));
        idx
    }

    /// Close span `idx`, the innermost open one.
    pub fn end(&mut self, idx: usize) {
        let (i, _) = self.open.pop().expect("span stack balanced");
        assert_eq!(i, idx, "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`; `kernel` supplies the counters
    /// whose change the span records.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        kernel: Option<&CountingBackend>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let k0 = kernel.map(CountingBackend::totals).unwrap_or_default();
        let idx = self.begin(name, id);
        let out = f(self);
        self.end(idx);
        self.spans[idx].kernel = kernel.map(|k| k.totals().since(k0)).unwrap_or_default();
        out
    }

    /// Record an already-measured interval as a child of span `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
    ) {
        let kernel = KernelTotals::default();
        self.spans.push(Span { name, id, start_ns, end_ns, parent: Some(parent), kernel });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently opened span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time of each span, ms: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn dist_ms(&self, name: &str) -> Dist {
        let v: Vec<f64> = self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect();
        Dist::of(&v)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let self_ms = self.self_ms();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"id\":{},\"parent\":{},\
                 \"self_us\":{:.3},\"kernel_calls\":{},\"kernel_us\":{:.3},\"macs\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.id,
                parent,
                self_ms[i] * 1e3,
                s.kernel.calls,
                s.kernel.busy_ns as f64 / 1e3,
                s.kernel.macs,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::init;

    #[test]
    fn counting_backend_is_transparent_and_counts_shapes() {
        let epoch = Instant::now();
        let a = init::uniform(3, 5, -1.0, 1.0, 1);
        let b = init::uniform(5, 7, -1.0, 1.0, 2);
        let be = CountingBackend::new(SystolicBackend::paper_default(), epoch, &b);
        let plain = SystolicBackend::paper_default().matmul(&a, &b);
        assert_eq!(be.matmul(&a, &b), plain, "the wrapper must not change bits");
        let _ = be.matmul(&a, &b.clone());
        let t = be.totals();
        assert_eq!(t.calls, 2);
        assert_eq!(t.macs, 2 * 3 * 5 * 7);
        assert_eq!(t.bytes, 2 * 4 * (15 + 35 + 21));
        assert_eq!(be.take_marks().len(), 1, "only the call on the marker weight marks");
        assert!(be.take_marks().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("a.outer", 0, None, |tr| {
            tr.span("a.inner", 0, None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        let self_ms = tr.self_ms();
        assert!((self_ms[0] + s[1].ms() - s[0].ms()).abs() < 1e-9);
        assert!(self_ms[0] >= 1.0 && s[1].ms() >= 2.0);
        assert_eq!(tr.dist_ms("a.inner").n, 1);
        assert!(tr.chrome_json().contains("\"name\":\"a.inner\""));
    }
}
