//! Span recording from outside the program: a timing decorator around
//! the `SystemMatrix` trait object in `RunCtx.ws`, plus spans the
//! benchmark opens around its own calls into each layer.
//!
//! The decorator sees the `clear → add… → factor → solve…` cycle of
//! every Newton iteration and splits the op's wall time into:
//! - `spice.assemble`: `clear` to `factor` (device load and stamping);
//! - `numerics.factor_cold` / `numerics.refactor`: the `factor` call,
//!   classified by which `SolverStats` counter it moved;
//! - `numerics.solve`: the triangular solves;
//! - `spice.step_control`: from the end of a `solve` to the next
//!   `clear` (Newton update, convergence tests, LTE step control).

use mems_numerics::Result as NumResult;
use mems_spice::system::{MatrixBackend, SolverStats, SystemMatrix};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span store, written out as JSONL when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Phase of the matrix lifecycle the decorator last saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before the first `clear` of the op.
    Start,
    Assemble,
    Solved,
}

/// Counters and spans the decorator collects for one op.
#[derive(Debug)]
pub struct MatrixTrace {
    pub op: u64,
    pub parent: usize,
    /// First `clear` of the op (end of the pre-assembly build).
    pub first_clear: Option<Instant>,
    /// End of the last phase the decorator closed.
    pub last_mark: Option<Instant>,
    pub assemble_n: u64,
    pub stamps: u64,
    pub factor_cold_n: u64,
    pub refactor_n: u64,
    pub solve_n: u64,
    phase: Phase,
    mark: Option<Instant>,
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl MatrixTrace {
    fn new(op: u64, parent: usize) -> MatrixTrace {
        MatrixTrace {
            op,
            parent,
            first_clear: None,
            last_mark: None,
            assemble_n: 0,
            stamps: 0,
            factor_cold_n: 0,
            refactor_n: 0,
            solve_n: 0,
            phase: Phase::Start,
            mark: None,
            spans: Vec::new(),
        }
    }

    /// Starts the trace afresh for the next run on the same decorated
    /// system (a pooled context runs many points).
    pub fn begin(&mut self, op: u64, parent: usize) {
        *self = MatrixTrace::new(op, parent);
    }

    /// Moves the collected spans into the recorder under the op span.
    pub fn drain_into(&mut self, rec: &mut Recorder) {
        for (name, a, b) in self.spans.drain(..) {
            rec.push(name, a, b, Some(self.parent), self.op);
        }
    }
}

/// The decorator. `add` only bumps a local counter; phase changes
/// take one uncontended lock, a few thousand times per op.
pub struct TimedSystem {
    inner: Box<dyn SystemMatrix<f64>>,
    trace: Arc<Mutex<MatrixTrace>>,
    stamps: u64,
}

impl TimedSystem {
    /// Wraps `inner`; the returned handle reads the trace after the run.
    pub fn wrap(
        inner: Box<dyn SystemMatrix<f64>>,
        op: u64,
        parent: usize,
    ) -> (TimedSystem, Arc<Mutex<MatrixTrace>>) {
        let trace = Arc::new(Mutex::new(MatrixTrace::new(op, parent)));
        let sys = TimedSystem {
            inner,
            trace: Arc::clone(&trace),
            stamps: 0,
        };
        (sys, trace)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MatrixTrace> {
        self.trace
            .lock()
            .expect("trace lock is never held across a panic")
    }
}

impl SystemMatrix<f64> for TimedSystem {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn clear(&mut self) {
        let now = Instant::now();
        {
            let mut t = self.lock();
            if t.first_clear.is_none() {
                t.first_clear = Some(now);
            }
            if let (Phase::Solved, Some(m)) = (t.phase, t.mark) {
                t.spans.push(("spice.step_control", m, now));
            }
            t.phase = Phase::Assemble;
            t.mark = Some(now);
            t.assemble_n += 1;
        }
        self.inner.clear();
    }

    fn add(&mut self, row: usize, col: usize, v: f64) {
        self.stamps += 1;
        self.inner.add(row, col, v);
    }

    fn all_finite(&self) -> bool {
        self.inner.all_finite()
    }

    fn factor(&mut self) -> NumResult<()> {
        let before = self.inner.solver_stats();
        let start = Instant::now();
        let result = self.inner.factor();
        let end = Instant::now();
        let after = self.inner.solver_stats();
        let stamps = std::mem::take(&mut self.stamps);
        let mut t = self.lock();
        t.stamps += stamps;
        if let (Phase::Assemble, Some(m)) = (t.phase, t.mark) {
            t.spans.push(("spice.assemble", m, start));
        }
        let name = if after.factors > before.factors || after.refactors == before.refactors {
            t.factor_cold_n += 1;
            "numerics.factor_cold"
        } else {
            t.refactor_n += 1;
            "numerics.refactor"
        };
        t.spans.push((name, start, end));
        t.phase = Phase::Solved;
        t.mark = Some(end);
        t.last_mark = Some(end);
        result
    }

    fn solve(&self, b: &[f64]) -> NumResult<Vec<f64>> {
        let start = Instant::now();
        let x = self.inner.solve(b);
        let end = Instant::now();
        let mut t = self.lock();
        // The gap since the factor (the residual negation) or since an
        // earlier solve is analysis-side work.
        if let (Phase::Solved, Some(m)) = (t.phase, t.mark) {
            t.spans.push(("spice.step_control", m, start));
        }
        t.spans.push(("numerics.solve", start, end));
        t.solve_n += 1;
        t.phase = Phase::Solved;
        t.mark = Some(end);
        t.last_mark = Some(end);
        x
    }

    fn backend(&self) -> MatrixBackend {
        self.inner.backend()
    }

    fn get(&self, row: usize, col: usize) -> f64 {
        self.inner.get(row, col)
    }

    fn solver_stats(&self) -> SolverStats {
        self.inner.solver_stats()
    }
}
