//! The backend-agnostic system matrix: every analysis stamps its MNA
//! Jacobian (or complex AC admittance matrix) through the
//! [`SystemMatrix`] trait and solves through the same interface, so
//! the choice between a dense LU and the sparse
//! Gilbert–Peierls factorization is a per-circuit policy decision, not
//! a per-analysis code path.
//!
//! Two implementations:
//!
//! - [`DenseSystem`]: a [`DenseMatrix`] refactored from scratch each
//!   [`factor`](SystemMatrix::factor) — the right default for the
//!   paper-scale circuits of a few dozen unknowns.
//! - [`SparseSystem`]: a growable sparsity pattern over
//!   [`SparseLu`], with split symbolic/numeric factorization. The
//!   pattern is discovered from the stamps themselves (a stamp at a
//!   new coordinate grows the pattern and invalidates the symbolic
//!   analysis), and once the pattern is stable every subsequent
//!   [`factor`](SystemMatrix::factor) is a numeric-only
//!   [`SparseLu::refactor`] — the hot path for Newton iterations,
//!   transient steps, AC frequency points, and `.STEP`/`.MC` batch
//!   points that share one topology.
//!
//! Stamping into [`SparseSystem`] is hash-free once an assembly
//! repeats. The system records the slot of every
//! [`add`](SystemMatrix::add) since the last
//! [`clear`](SystemMatrix::clear), in call order; a later assembly
//! whose stamp at the same position has the same `(row, col)` adds
//! straight into that slot. A stamp off the sequence cuts the record
//! at that point, finds its slot through the coordinate map, and
//! records from there on, so one divergent assembly (the DC →
//! transient switch, where capacitors start stamping) heals the
//! record for the next. Each entry still sums its stamps in call
//! order, so replay never changes a result bit.
//! [`SolverStats::stamp_misses`] counts the stamps that took the map.
//! Whenever the pattern grows, the next factor renumbers the value
//! slots into `(col, row)` order: the assembled values are then the
//! CSC value array the LU reads, with no scatter copy per factor.
//!
//! Backend selection is [`MatrixBackend`]: `Auto` switches to sparse
//! at [`AUTO_SPARSE_THRESHOLD`] unknowns, and
//! [`SimOptions::matrix`](crate::solver::SimOptions) (deck option
//! `sparse=0/1`) overrides it either way.
//!
//! The sparse backend additionally applies a fill-reducing
//! [`FillOrdering`] at symbolic time: when the (re)discovered pattern
//! stabilizes, a column order is computed once — AMD
//! ([`mems_numerics::ordering::amd_order`]) for moderate systems,
//! multilevel nested dissection ([`mems_numerics::ordering::nd_order`])
//! at scale — through the machine-wide ordering cache
//! ([`mems_numerics::ordering::order_cached`]), and every
//! factorization — first and replayed — eliminates in that order.
//! Deck option `order=nd|amd|natural|auto` (default `auto`) selects
//! the policy.
//!
//! Above the scalar sparse LU sits a second policy axis,
//! [`FactorKind`]: at [`SUPERNODAL_AUTO_THRESHOLD`] unknowns (deck
//! option `factor=auto|scalar|super`) the sparse backend switches its
//! numeric engine to the supernodal, level-scheduled parallel
//! factorization ([`mems_numerics::supernodal::SupernodalLu`]). The
//! supernodal engine uses static (matched-diagonal) pivots guarded by
//! the same drift threshold as the scalar refactor; any rejected
//! pivot makes the system fall back — stickily, until the pattern
//! changes — to the scalar re-pivoting path, so enabling it can only
//! cost speed, never correctness. [`SolverStats`] snapshots what the
//! backend actually did (engine, counts, fill, timings) for
//! `mems run --json` and the serve job metadata.

use mems_numerics::dense::DenseMatrix;
use mems_numerics::lu::LuFactors;
use mems_numerics::ordering::order_cached;
use mems_numerics::scalar::Scalar;
use mems_numerics::sparse_lu::{CscView, SparseLu};
use mems_numerics::supernodal::SupernodalLu;
use mems_numerics::{NumericsError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub use mems_numerics::ordering::FillOrdering;

/// Unknown count at which `Auto` switches from dense to sparse.
///
/// Dense LU is `O(n³)` with a small constant; the sparse path wins
/// once the Jacobian is big *and* mostly structural zeros, which for
/// MNA matrices (a handful of entries per device) is around here.
pub const AUTO_SPARSE_THRESHOLD: usize = 50;

/// Which linear-algebra backend assembles and solves the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixBackend {
    /// Pick by unknown count ([`AUTO_SPARSE_THRESHOLD`]).
    #[default]
    Auto,
    /// Force the dense LU path.
    Dense,
    /// Force the sparse LU path.
    Sparse,
}

impl MatrixBackend {
    /// Resolves `Auto` against an unknown count.
    pub fn resolve(self, n: usize) -> MatrixBackend {
        match self {
            MatrixBackend::Auto => {
                if n >= AUTO_SPARSE_THRESHOLD {
                    MatrixBackend::Sparse
                } else {
                    MatrixBackend::Dense
                }
            }
            other => other,
        }
    }
}

/// Unknown count at which [`FactorKind::Auto`] engages the supernodal
/// parallel factorization on the sparse path.
///
/// Below this the scalar Gilbert–Peierls refactor is already a few
/// tens of microseconds and the supernodal machinery (panel assembly,
/// level scheduling) would only add overhead; above it the DFS
/// symbolic analysis and scattered CSC updates start to dominate.
pub const SUPERNODAL_AUTO_THRESHOLD: usize = 2000;

/// Which numeric engine the sparse backend factors with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorKind {
    /// Pick by unknown count ([`SUPERNODAL_AUTO_THRESHOLD`]).
    #[default]
    Auto,
    /// Force the scalar column-by-column LU (always available).
    Scalar,
    /// Force the supernodal, level-scheduled parallel LU.
    Supernodal,
}

impl FactorKind {
    /// Resolves `Auto` against an unknown count.
    pub fn resolve(self, n: usize) -> FactorKind {
        match self {
            FactorKind::Auto => {
                if n >= SUPERNODAL_AUTO_THRESHOLD {
                    FactorKind::Supernodal
                } else {
                    FactorKind::Scalar
                }
            }
            other => other,
        }
    }
}

/// What the solver actually did: a copyable snapshot for reports
/// (`mems run --json`, serve job metadata) and regressions tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// `"dense"` or `"sparse"`.
    pub backend: &'static str,
    /// `"dense"`, `"scalar"`, `"supernodal"`, or `"none"` before the
    /// first successful factor.
    pub factor_path: &'static str,
    /// Ordering *policy* name: `"amd"`, `"nd"`, `"natural"`, or
    /// `"auto"` (sparse only).
    pub ordering: &'static str,
    /// Where the active engine's fill order actually came from:
    /// `"amd"` / `"nd"` / `"natural"` when computed, `"cached"` on a
    /// machine-wide ordering-cache hit, `"none"` before the first
    /// factor.
    pub order_source: &'static str,
    /// Microseconds the last symbolic analysis spent computing the
    /// fill order — 0 on a cache hit, which is how a warm ordering
    /// cache is proven end to end.
    pub order_us: u64,
    /// Matrix order.
    pub n: usize,
    /// Structural nonzeros of the assembled pattern.
    pub pattern_nnz: usize,
    /// Stored factor entries (L + U) of the last factorization.
    pub factor_nnz: usize,
    /// Supernode count (supernodal path only).
    pub supernodes: usize,
    /// Level-schedule depth (supernodal path only).
    pub levels: usize,
    /// Worker threads the last factorization used.
    pub threads: usize,
    /// Fresh (symbolic + numeric) factorizations performed.
    pub factors: u64,
    /// Numeric-only refactorizations performed.
    pub refactors: u64,
    /// Times a fast path gave up (supernodal → scalar, or scalar
    /// refactor → fresh re-pivoting factor).
    pub fallbacks: u64,
    /// Wall time of the last fresh factorization, microseconds.
    pub last_factor_us: u64,
    /// Wall time of the last refactorization, microseconds.
    pub last_refactor_us: u64,
    /// Stamps that missed the recorded stamp sequence and took the
    /// hash lookup (sparse only, cumulative). The first assembly and
    /// each divergent one count here; a steady Newton loop adds none.
    pub stamp_misses: u64,
}

impl Default for SolverStats {
    fn default() -> Self {
        SolverStats {
            backend: "none",
            factor_path: "none",
            ordering: "natural",
            order_source: "none",
            order_us: 0,
            n: 0,
            pattern_nnz: 0,
            factor_nnz: 0,
            supernodes: 0,
            levels: 0,
            threads: 0,
            factors: 0,
            refactors: 0,
            fallbacks: 0,
            last_factor_us: 0,
            last_refactor_us: 0,
            stamp_misses: 0,
        }
    }
}

impl SolverStats {
    /// Factor fill ratio `factor_nnz / pattern_nnz` (0 when unknown).
    pub fn fill_ratio(&self) -> f64 {
        if self.pattern_nnz == 0 {
            0.0
        } else {
            self.factor_nnz as f64 / self.pattern_nnz as f64
        }
    }
}

/// A square system matrix that devices stamp into and analyses solve
/// through.
///
/// The lifecycle per solve is `clear → add… → factor → solve…`;
/// implementations may cache whatever structure survives between
/// cycles (the sparse backend keeps its sparsity pattern and symbolic
/// factorization).
pub trait SystemMatrix<S: Scalar>: Send {
    /// Matrix order.
    fn n(&self) -> usize;

    /// Zeroes all values, keeping cached structure.
    fn clear(&mut self);

    /// Accumulates `v` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, v: S);

    /// `true` when every stored value is finite.
    fn all_finite(&self) -> bool;

    /// Factorizes the current values.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Singular`] for singular systems.
    fn factor(&mut self) -> Result<()>;

    /// Solves `A·x = b` against the last [`factor`](Self::factor).
    ///
    /// # Errors
    ///
    /// Dimension mismatches, or calling before a successful factor.
    fn solve(&self, b: &[S]) -> Result<Vec<S>>;

    /// Which concrete backend this is, for reports and tests.
    fn backend(&self) -> MatrixBackend;

    /// Value at `(row, col)` — diagnostic/test accessor, zero when
    /// unstamped.
    fn get(&self, row: usize, col: usize) -> S;

    /// Snapshot of solver counters and last timings; backends that
    /// don't track them return the empty default.
    fn solver_stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

/// The policy a system matrix is built under: the
/// [`SimOptions`](crate::solver::SimOptions)
/// `matrix`/`ordering`/`factor`/`factor_threads` tuple. The dense
/// backend ignores all but `backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverPolicy {
    /// Matrix backend.
    pub backend: MatrixBackend,
    /// Sparse fill-reducing ordering.
    pub ordering: FillOrdering,
    /// Sparse numeric factorization path.
    pub factor: FactorKind,
    /// Supernodal worker-thread request (0 = auto, see
    /// `mems_numerics::par`).
    pub factor_threads: usize,
}

impl SolverPolicy {
    /// Builds a system matrix of order `n` for the resolved backend.
    pub fn build<S: Scalar + Send + Sync + 'static>(&self, n: usize) -> Box<dyn SystemMatrix<S>> {
        match self.backend.resolve(n) {
            MatrixBackend::Sparse => Box::new(SparseSystem::with_solver(
                n,
                self.ordering,
                self.factor,
                self.factor_threads,
            )),
            _ => Box::new(DenseSystem::new(n)),
        }
    }

    /// Whether a system of order `built_n` built under this policy can
    /// serve `n` unknowns under `want`, keeping its cached structure
    /// (sparsity pattern, ordering, symbolic factorization). The order
    /// and the resolved backend must match; the ordering and the
    /// factorization path only matter on the sparse backend. Every
    /// cached system (the real [`Workspace`](crate::solver::Workspace)
    /// and the batch engine's complex `.AC` system) reuses by this rule.
    pub fn fits(&self, built_n: usize, n: usize, want: &SolverPolicy) -> bool {
        let backend = want.backend.resolve(n);
        built_n == n
            && self.backend.resolve(n) == backend
            && (backend == MatrixBackend::Dense
                || (self.ordering == want.ordering
                    && self.factor.resolve(n) == want.factor.resolve(n)
                    && self.factor_threads == want.factor_threads))
    }
}

/// Dense backend: [`DenseMatrix`] + full pivoted LU per factor.
pub struct DenseSystem<S: Scalar> {
    m: DenseMatrix<S>,
    lu: Option<LuFactors<S>>,
    factors: u64,
    last_factor_us: u64,
}

impl<S: Scalar> DenseSystem<S> {
    /// Zero-filled dense system of order `n`.
    pub fn new(n: usize) -> Self {
        DenseSystem {
            m: DenseMatrix::zeros(n, n),
            lu: None,
            factors: 0,
            last_factor_us: 0,
        }
    }
}

impl<S: Scalar + Send + 'static> SystemMatrix<S> for DenseSystem<S> {
    fn n(&self) -> usize {
        self.m.rows()
    }

    fn clear(&mut self) {
        self.m.fill_zero();
        self.lu = None;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        self.m.add_at(row, col, v);
    }

    fn all_finite(&self) -> bool {
        self.m.all_finite()
    }

    fn factor(&mut self) -> Result<()> {
        let t0 = Instant::now();
        self.lu = Some(LuFactors::factor(&self.m)?);
        self.factors += 1;
        self.last_factor_us = t0.elapsed().as_micros() as u64;
        Ok(())
    }

    fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        match &self.lu {
            Some(lu) => lu.solve(b),
            None => Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            )),
        }
    }

    fn backend(&self) -> MatrixBackend {
        MatrixBackend::Dense
    }

    fn get(&self, row: usize, col: usize) -> S {
        self.m[(row, col)]
    }

    fn solver_stats(&self) -> SolverStats {
        let n = self.m.rows();
        SolverStats {
            backend: "dense",
            factor_path: if self.lu.is_some() { "dense" } else { "none" },
            n,
            pattern_nnz: n * n,
            factor_nnz: if self.lu.is_some() { n * n } else { 0 },
            threads: 1,
            factors: self.factors,
            last_factor_us: self.last_factor_us,
            ..SolverStats::default()
        }
    }
}

/// Sparse backend: growable stamp pattern + split symbolic/numeric LU.
pub struct SparseSystem<S: Scalar> {
    n: usize,
    /// `(row << 32 | col)` → slot in [`vals`](Self::vals). Consulted
    /// only by stamps that miss the [`record`](Self::record), and by
    /// [`get`](SystemMatrix::get).
    slots: HashMap<u64, usize>,
    /// Slot → coordinate. Once the pattern is analyzed, slots are in
    /// `(col, row)` order, so `coords` lists the CSC pattern.
    coords: Vec<(u32, u32)>,
    /// Assembled values, by slot: the CSC value array of the analyzed
    /// pattern (plus, while the pattern is dirty, new entries appended
    /// at the end until the next factor renumbers them).
    vals: Vec<S>,
    /// CSC image of the pattern (rebuilt when the pattern grows).
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// The slot each `add` since the last `clear` hit, in call order.
    /// An assembly that stamps the same sequence again replays it: the
    /// stamp at `cursor` is checked against `coords` and accumulates
    /// without a hash lookup.
    record: Vec<u32>,
    /// Position of the next `add` in [`record`](Self::record).
    cursor: usize,
    pattern_dirty: bool,
    lu: Option<SparseLu<S>>,
    factored: bool,
    /// Fill-reducing ordering policy for this system.
    ordering: FillOrdering,
    /// Column elimination order for the *scalar* engine, computed
    /// lazily from the current pattern the first time the scalar path
    /// actually factors (`None` under a natural resolution, or while
    /// the supernodal engine — which orders its own symmetrized
    /// pattern — is carrying the load). Shared with the machine-wide
    /// ordering cache.
    col_order: Option<Arc<Vec<usize>>>,
    /// `col_order` reflects the current pattern (distinguishes "not
    /// computed yet" from "natural → none").
    col_order_ready: bool,
    /// Numeric-engine policy ([`FactorKind::Auto`] switches on size).
    factor_kind: FactorKind,
    /// Requested supernodal worker threads (0 = auto).
    factor_threads: usize,
    /// Supernodal engine for the current pattern, when engaged.
    snl: Option<SupernodalLu<S>>,
    /// Sticky per-pattern opt-out: set when the supernodal engine
    /// rejected a pivot, cleared when the pattern changes. Keeps a
    /// drifting Newton/transient run from paying a failed supernodal
    /// attempt on every factor.
    snl_dead: bool,
    /// `true` when the last successful factor was supernodal.
    active_supernodal: bool,
    stat_factors: u64,
    stat_refactors: u64,
    stat_fallbacks: u64,
    stat_last_factor_us: u64,
    stat_last_refactor_us: u64,
    stat_stamp_misses: u64,
    /// Ordering cost/source of the scalar path's last analysis (the
    /// supernodal engine reports its own).
    stat_order_us: u64,
    stat_order_source: &'static str,
}

impl<S: Scalar> SparseSystem<S> {
    /// Empty sparse system of order `n` (pattern grows with stamps)
    /// with the default fill-reducing ordering.
    pub fn new(n: usize) -> Self {
        Self::with_solver(n, FillOrdering::default(), FactorKind::default(), 0)
    }

    /// [`new`](Self::new) with the full solver policy: ordering,
    /// numeric engine, and supernodal thread request (0 = auto).
    pub fn with_solver(
        n: usize,
        ordering: FillOrdering,
        factor: FactorKind,
        factor_threads: usize,
    ) -> Self {
        SparseSystem {
            n,
            slots: HashMap::new(),
            coords: Vec::new(),
            vals: Vec::new(),
            col_ptr: Vec::new(),
            row_idx: Vec::new(),
            record: Vec::new(),
            cursor: 0,
            pattern_dirty: true,
            lu: None,
            factored: false,
            ordering,
            col_order: None,
            col_order_ready: false,
            factor_kind: factor,
            factor_threads,
            snl: None,
            snl_dead: false,
            active_supernodal: false,
            stat_factors: 0,
            stat_refactors: 0,
            stat_fallbacks: 0,
            stat_last_factor_us: 0,
            stat_last_refactor_us: 0,
            stat_stamp_misses: 0,
            stat_order_us: 0,
            stat_order_source: "none",
        }
    }

    /// Structural nonzero count of the current pattern.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The ordering policy this system eliminates with.
    pub fn ordering(&self) -> FillOrdering {
        self.ordering
    }

    /// The numeric-engine policy this system factors with.
    pub fn factor_kind(&self) -> FactorKind {
        self.factor_kind
    }

    /// Nonzeros `(nnz(L), nnz(U))` of the last factorization, `None`
    /// before the first successful factor — the fill diagnostic the
    /// ordering benches report. For the supernodal engine this is the
    /// dense panel storage (including amalgamation padding).
    pub fn factor_nnz(&self) -> Option<(usize, usize)> {
        if self.active_supernodal {
            self.snl.as_ref().map(SupernodalLu::nnz)
        } else {
            self.lu.as_ref().map(SparseLu::nnz)
        }
    }

    /// `true` when the next factor can replay the recorded symbolic
    /// factorization (pattern stable and analyzed).
    pub fn has_symbolic(&self) -> bool {
        !self.pattern_dirty && (self.lu.is_some() || self.snl.is_some())
    }

    fn rebuild_csc(&mut self) {
        // Renumber slots into (col, row) order, so `vals` is the CSC
        // value array, and carry the map and the record along.
        let mut order: Vec<usize> = (0..self.coords.len()).collect();
        order.sort_unstable_by_key(|&s| (self.coords[s].1, self.coords[s].0));
        let mut new_slot = vec![0u32; order.len()];
        for (pos, &slot) in order.iter().enumerate() {
            new_slot[slot] = pos as u32;
        }
        self.coords = order.iter().map(|&slot| self.coords[slot]).collect();
        self.vals = order.iter().map(|&slot| self.vals[slot]).collect();
        self.slots
            .values_mut()
            .for_each(|slot| *slot = new_slot[*slot] as usize);
        self.record
            .iter_mut()
            .for_each(|slot| *slot = new_slot[*slot as usize]);
        self.col_ptr = vec![0; self.n + 1];
        self.row_idx = Vec::with_capacity(order.len());
        for &(r, c) in &self.coords {
            self.col_ptr[c as usize + 1] += 1;
            self.row_idx.push(r as usize);
        }
        for c in 0..self.n {
            self.col_ptr[c + 1] += self.col_ptr[c];
        }
        // The scalar engine's fill order is computed lazily (see
        // `ensure_col_order`): when the supernodal engine carries this
        // pattern it orders its own symmetrized image through the
        // ordering cache, and paying a second ordering of the raw
        // pattern up front would double the cold-start cost.
        self.col_order = None;
        self.col_order_ready = false;
        self.pattern_dirty = false;
        self.lu = None;
        self.snl = None;
        self.snl_dead = false;
        self.active_supernodal = false;
    }

    /// A stamp off the recorded sequence: the record is cut at the
    /// cursor, the slot is found (or created) through the hash map, and
    /// recording resumes from there — one divergent assembly heals the
    /// record for the next.
    #[cold]
    #[inline(never)]
    fn add_miss(&mut self, row: usize, col: usize, v: S) {
        self.stat_stamp_misses += 1;
        self.record.truncate(self.cursor);
        let key = ((row as u64) << 32) | col as u64;
        let slot = match self.slots.get(&key) {
            Some(&slot) => {
                self.vals[slot] += v;
                slot
            }
            None => {
                let slot = self.vals.len();
                self.slots.insert(key, slot);
                self.coords.push((row as u32, col as u32));
                self.vals.push(v);
                // A new structural entry invalidates the symbolic
                // analysis; the pattern only ever grows, so devices
                // whose Jacobian entries come and go (HDL models with
                // locally-zero derivatives) converge on a stable
                // superset after the first few assemblies.
                self.pattern_dirty = true;
                slot
            }
        };
        self.record.push(slot as u32);
        self.cursor += 1;
    }

    /// Symbolic-time ordering for the scalar path: computed once per
    /// (stable) pattern through the machine-wide ordering cache and
    /// reused by every subsequent factor/refactor.
    fn ensure_col_order(&mut self) {
        if self.col_order_ready {
            return;
        }
        let resolved = self.ordering.resolve(self.n);
        self.col_order = match resolved {
            FillOrdering::Amd | FillOrdering::Nd if self.n > 1 => {
                let lookup = order_cached(resolved, self.n, &self.col_ptr, &self.row_idx);
                self.stat_order_us = lookup.order_us;
                self.stat_order_source = if lookup.hit {
                    "cached"
                } else {
                    resolved.name()
                };
                Some(lookup.perm)
            }
            _ => {
                self.stat_order_us = 0;
                self.stat_order_source = "natural";
                None
            }
        };
        self.col_order_ready = true;
    }
}

impl<S: Scalar + Send + Sync + 'static> SystemMatrix<S> for SparseSystem<S> {
    fn n(&self) -> usize {
        self.n
    }

    fn clear(&mut self) {
        self.vals.iter_mut().for_each(|v| *v = S::zero());
        self.cursor = 0;
        self.factored = false;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        debug_assert!(row < self.n && col < self.n, "stamp out of bounds");
        if let Some(&slot) = self.record.get(self.cursor) {
            let slot = slot as usize;
            if self.coords[slot] == (row as u32, col as u32) {
                self.vals[slot] += v;
                self.cursor += 1;
                return;
            }
        }
        self.add_miss(row, col, v);
    }

    fn all_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite_scalar())
    }

    fn factor(&mut self) -> Result<()> {
        self.factored = false;
        if self.pattern_dirty {
            self.rebuild_csc();
        }
        // Scalar-path ordering is resolved lazily here rather than in
        // `rebuild_csc`: when the supernodal engine is active it orders
        // its own (symmetrized, matched) pattern and the scalar order
        // would be dead weight on the cold path.
        if self.snl_dead || self.factor_kind.resolve(self.n) != FactorKind::Supernodal {
            self.ensure_col_order();
        }
        let mut view = CscView {
            n: self.n,
            col_ptr: &self.col_ptr,
            row_idx: &self.row_idx,
            values: &self.vals,
        };
        // Supernodal engine first when the policy selects it: a
        // numeric-only replay when the symbolic analysis exists, a
        // fresh analysis + factor otherwise. Any failure (a static
        // pivot past the drift guard, or a structurally unmatched
        // pattern) drops to the scalar re-pivoting path below and
        // stays there until the pattern changes.
        if !self.snl_dead && self.factor_kind.resolve(self.n) == FactorKind::Supernodal {
            let t0 = Instant::now();
            let replay = self.snl.is_some();
            let res = match &mut self.snl {
                Some(snl) => snl.refactor(&view),
                None => SupernodalLu::factor(&view, self.ordering, self.factor_threads)
                    .map(|snl| self.snl = Some(snl)),
            };
            match res {
                Ok(()) => {
                    let us = t0.elapsed().as_micros() as u64;
                    if replay {
                        self.stat_refactors += 1;
                        self.stat_last_refactor_us = us;
                    } else {
                        self.stat_factors += 1;
                        self.stat_last_factor_us = us;
                    }
                    self.active_supernodal = true;
                    self.factored = true;
                    return Ok(());
                }
                Err(_) => {
                    self.snl = None;
                    self.snl_dead = true;
                    self.stat_fallbacks += 1;
                }
            }
        }
        self.active_supernodal = false;
        if !self.col_order_ready {
            // First scalar factor after a supernodal fallback: the
            // ordering was skipped above while the supernodal engine
            // looked viable, so pattern and values are re-borrowed
            // here (cheaply — `view` is rebuilt from the same slices).
            self.ensure_col_order();
            view = CscView {
                n: self.n,
                col_ptr: &self.col_ptr,
                row_idx: &self.row_idx,
                values: &self.vals,
            };
        }
        let t0 = Instant::now();
        let order = self.col_order.as_deref().map(Vec::as_slice);
        let fresh = |view: &CscView<'_, S>| match order {
            Some(q) => SparseLu::factor_ordered(view, q),
            None => SparseLu::factor(view),
        };
        let mut replayed = true;
        match &mut self.lu {
            Some(lu) => {
                // Numeric-only replay; a dead pivot means the values
                // moved too far from the analyzed ones — fall back to
                // a full re-pivoting factorization (under the same
                // column order: the fallback re-picks rows only).
                if lu.refactor(&view).is_err() {
                    self.lu = Some(fresh(&view)?);
                    self.stat_fallbacks += 1;
                    replayed = false;
                }
            }
            None => {
                self.lu = Some(fresh(&view)?);
                replayed = false;
            }
        }
        let us = t0.elapsed().as_micros() as u64;
        if replayed {
            self.stat_refactors += 1;
            self.stat_last_refactor_us = us;
        } else {
            self.stat_factors += 1;
            self.stat_last_factor_us = us;
        }
        self.factored = true;
        Ok(())
    }

    fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        if !self.factored {
            return Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            ));
        }
        if self.active_supernodal {
            if let Some(snl) = &self.snl {
                return snl.solve(b);
            }
        }
        match &self.lu {
            Some(lu) => lu.solve(b),
            None => Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            )),
        }
    }

    fn backend(&self) -> MatrixBackend {
        MatrixBackend::Sparse
    }

    fn get(&self, row: usize, col: usize) -> S {
        let key = ((row as u64) << 32) | col as u64;
        self.slots
            .get(&key)
            .map_or_else(S::zero, |&slot| self.vals[slot])
    }

    fn solver_stats(&self) -> SolverStats {
        let (factor_path, factor_nnz, supernodes, levels, threads, order_source, order_us) =
            if let (true, Some(snl)) = (self.active_supernodal, self.snl.as_ref()) {
                let (l, u) = snl.nnz();
                (
                    "supernodal",
                    l + u,
                    snl.supernodes(),
                    snl.levels(),
                    snl.threads_used(),
                    snl.order_source(),
                    snl.order_us(),
                )
            } else if let Some(lu) = &self.lu {
                let (l, u) = lu.nnz();
                (
                    "scalar",
                    l + u,
                    0,
                    0,
                    1,
                    self.stat_order_source,
                    self.stat_order_us,
                )
            } else {
                ("none", 0, 0, 0, 0, "none", 0)
            };
        SolverStats {
            backend: "sparse",
            factor_path,
            ordering: self.ordering.name(),
            order_source,
            order_us,
            n: self.n,
            pattern_nnz: self.vals.len(),
            factor_nnz,
            supernodes,
            levels,
            threads,
            factors: self.stat_factors,
            refactors: self.stat_refactors,
            fallbacks: self.stat_fallbacks,
            last_factor_us: self.stat_last_factor_us,
            last_refactor_us: self.stat_last_refactor_us,
            stamp_misses: self.stat_stamp_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_all<S: Scalar + 'static>(
        sys: &mut dyn SystemMatrix<S>,
        entries: &[(usize, usize, S)],
    ) {
        for &(r, c, v) in entries {
            sys.add(r, c, v);
        }
    }

    #[test]
    fn dense_and_sparse_agree_on_a_small_solve() {
        let entries = [
            (0usize, 0usize, 2.0),
            (0, 1, 1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, 0.5),
            (2, 2, 1.5),
        ];
        let b = [1.0, -2.0, 3.0];
        let mut dense = DenseSystem::<f64>::new(3);
        let mut sparse = SparseSystem::<f64>::new(3);
        stamp_all(&mut dense, &entries);
        stamp_all(&mut sparse, &entries);
        dense.factor().unwrap();
        sparse.factor().unwrap();
        let xd = dense.solve(&b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-13, "{xd:?} vs {xs:?}");
        }
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(sparse.get(0, 1), 1.0);
        assert_eq!(sparse.get(2, 0), 0.0);
    }

    #[test]
    fn sparse_reuses_symbolic_across_value_changes() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 2.0);
        sys.add(1, 1, 4.0);
        sys.add(0, 1, 1.0);
        sys.factor().unwrap();
        assert!(sys.has_symbolic());
        sys.clear();
        sys.add(0, 0, 3.0);
        sys.add(1, 1, 5.0);
        sys.add(0, 1, 1.0);
        assert!(sys.has_symbolic(), "clear must keep the pattern");
        sys.factor().unwrap();
        let x = sys.solve(&[7.0, 10.0]).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - (7.0 - 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_growth_invalidates_symbolic() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.factor().unwrap();
        sys.clear();
        sys.add(0, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.add(1, 0, 0.5); // new structural entry
        assert!(!sys.has_symbolic());
        sys.factor().unwrap();
        let x = sys.solve(&[1.0, 1.5]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert_eq!(sys.nnz(), 3);
    }

    #[test]
    fn singular_sparse_system_errors() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 2.0);
        sys.add(1, 0, 2.0);
        sys.add(1, 1, 4.0);
        assert!(matches!(sys.factor(), Err(NumericsError::Singular { .. })));
        assert!(sys.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn refactor_falls_back_to_full_factor_on_dead_pivot() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.factor().unwrap();
        // New values make the replayed (0,0) pivot exactly zero; the
        // fallback full factorization must re-pivot and still solve.
        sys.clear();
        sys.add(0, 0, 0.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.factor().unwrap();
        let x = sys.solve(&[2.0, 5.0]).unwrap();
        assert!((x[0] + 1.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn ordering_reduces_fill_and_agrees_with_natural() {
        // Arrow pattern: natural elimination fills the whole matrix,
        // AMD keeps it sparse. Same solution either way.
        let n = 24;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0 + i as f64 * 0.1));
            if i > 0 {
                entries.push((0, i, 0.5));
                entries.push((i, 0, 0.25));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut amd =
            SparseSystem::<f64>::with_solver(n, FillOrdering::Amd, FactorKind::default(), 0);
        let mut nat =
            SparseSystem::<f64>::with_solver(n, FillOrdering::Natural, FactorKind::default(), 0);
        stamp_all(&mut amd, &entries);
        stamp_all(&mut nat, &entries);
        amd.factor().unwrap();
        nat.factor().unwrap();
        let (l_amd, _) = amd.factor_nnz().unwrap();
        let (l_nat, _) = nat.factor_nnz().unwrap();
        assert!(l_amd < l_nat, "AMD fill {l_amd} vs natural {l_nat}");
        let xa = amd.solve(&b).unwrap();
        let xn = nat.solve(&b).unwrap();
        for (a, n) in xa.iter().zip(&xn) {
            assert!((a - n).abs() < 1e-11, "{xa:?} vs {xn:?}");
        }
        // Symbolic (and the ordering) survive a value-only refactor.
        amd.clear();
        stamp_all(&mut amd, &entries);
        assert!(amd.has_symbolic());
        amd.factor().unwrap();
        let xa2 = amd.solve(&b).unwrap();
        assert_eq!(xa, xa2);
    }

    #[test]
    fn ordered_dead_pivot_falls_back_to_full_refactor() {
        let mut sys =
            SparseSystem::<f64>::with_solver(3, FillOrdering::Amd, FactorKind::default(), 0);
        let entries = [
            (0usize, 0usize, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (2, 2, 1.0),
        ];
        stamp_all(&mut sys, &entries);
        sys.factor().unwrap();
        // Kill the replayed pivot; the fallback re-pivots rows under
        // the same column order and must still solve.
        sys.clear();
        sys.add(0, 0, 0.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.add(2, 2, 1.0);
        sys.factor().unwrap();
        let x = sys.solve(&[2.0, 5.0, 1.0]).unwrap();
        assert!((x[0] + 1.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
        assert!((x[2] - 1.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn forced_supernodal_agrees_with_scalar_and_reports_stats() {
        // 10×10 grid MNA-ish pattern: small enough that Auto would
        // stay scalar, so force the supernodal engine on one copy.
        let (r, c) = (10usize, 10usize);
        let n = r * c;
        let idx = |i: usize, j: usize| i * c + j;
        let mut entries = Vec::new();
        for i in 0..r {
            for j in 0..c {
                entries.push((idx(i, j), idx(i, j), 4.0 + (i * c + j) as f64 * 0.01));
                if i + 1 < r {
                    entries.push((idx(i, j), idx(i + 1, j), -1.0));
                    entries.push((idx(i + 1, j), idx(i, j), -0.8));
                }
                if j + 1 < c {
                    entries.push((idx(i, j), idx(i, j + 1), -1.1));
                    entries.push((idx(i, j + 1), idx(i, j), -0.9));
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut snl =
            SparseSystem::<f64>::with_solver(n, FillOrdering::Amd, FactorKind::Supernodal, 2);
        let mut sca = SparseSystem::<f64>::with_solver(n, FillOrdering::Amd, FactorKind::Scalar, 0);
        stamp_all(&mut snl, &entries);
        stamp_all(&mut sca, &entries);
        snl.factor().unwrap();
        sca.factor().unwrap();
        let xs = snl.solve(&b).unwrap();
        let xc = sca.solve(&b).unwrap();
        for (a, bb) in xs.iter().zip(&xc) {
            assert!((a - bb).abs() < 1e-10, "{xs:?} vs {xc:?}");
        }
        let st = snl.solver_stats();
        assert_eq!(st.backend, "sparse");
        assert_eq!(st.factor_path, "supernodal");
        assert_eq!(st.ordering, "amd");
        assert_eq!(st.factors, 1);
        assert!(st.supernodes >= 1 && st.levels >= 1);
        assert!(st.factor_nnz >= st.pattern_nnz / 2);
        assert_eq!(sca.solver_stats().factor_path, "scalar");
        // Value-only change: the supernodal symbolic is replayed.
        snl.clear();
        stamp_all(&mut snl, &entries);
        snl.factor().unwrap();
        let st = snl.solver_stats();
        assert_eq!(st.refactors, 1);
        let xs2 = snl.solve(&b).unwrap();
        assert_eq!(xs, xs2);
    }

    #[test]
    fn supernodal_pivot_failure_falls_back_to_scalar() {
        // The value-aware matching dodges pivots that are bad *in A*,
        // but nothing static can dodge a pivot that cancels to zero
        // *during* elimination. First factor: strongly diagonal values
        // (off-diagonals below the match filter pin the transversal to
        // the identity). Then refactor the same pattern with values
        // whose second diagonal pivot cancels exactly — the drift
        // guard must reject and the system must fall back to the
        // scalar re-pivoting engine and still produce the right
        // answer.
        let pattern: &[(usize, usize)] = &[(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)];
        let mut sys =
            SparseSystem::<f64>::with_solver(3, FillOrdering::Natural, FactorKind::Supernodal, 1);
        for &(r, c) in pattern {
            sys.add(r, c, if r == c { 4.0 } else { 1e-6 });
        }
        sys.factor().unwrap();
        assert_eq!(sys.solver_stats().factor_path, "supernodal");
        // Cancellation values: eliminating column 0 sends the (1,1)
        // pivot to 1 − 1·1 = 0 while |(2,1)| stays 1. Partial pivoting
        // swaps rows and survives; the static replay cannot.
        let refill = |sys: &mut SparseSystem<f64>| {
            sys.clear();
            for &(r, c) in pattern {
                sys.add(r, c, 1.0);
            }
        };
        refill(&mut sys);
        sys.factor().unwrap();
        let st = sys.solver_stats();
        assert_eq!(st.factor_path, "scalar", "fell back");
        assert!(st.fallbacks >= 1);
        let x = sys.solve(&[2.0, 3.0, 2.0]).unwrap();
        for (i, xi) in x.iter().enumerate() {
            assert!((xi - 1.0).abs() < 1e-12, "x[{i}] = {xi}");
        }
        // The opt-out is sticky for this pattern: the next factor goes
        // straight to the scalar path without a second failed attempt.
        let fallbacks = st.fallbacks;
        refill(&mut sys);
        sys.factor().unwrap();
        assert_eq!(sys.solver_stats().fallbacks, fallbacks);
    }

    #[test]
    fn factor_kind_resolves_by_size() {
        assert_eq!(FactorKind::Auto.resolve(100), FactorKind::Scalar);
        assert_eq!(
            FactorKind::Auto.resolve(SUPERNODAL_AUTO_THRESHOLD),
            FactorKind::Supernodal
        );
        assert_eq!(FactorKind::Scalar.resolve(1 << 20), FactorKind::Scalar);
        assert_eq!(FactorKind::Supernodal.resolve(2), FactorKind::Supernodal);
    }

    #[test]
    fn auto_backend_resolves_by_size() {
        assert_eq!(MatrixBackend::Auto.resolve(10), MatrixBackend::Dense);
        assert_eq!(
            MatrixBackend::Auto.resolve(AUTO_SPARSE_THRESHOLD),
            MatrixBackend::Sparse
        );
        assert_eq!(MatrixBackend::Dense.resolve(1000), MatrixBackend::Dense);
        assert_eq!(MatrixBackend::Sparse.resolve(2), MatrixBackend::Sparse);
        let sys = SolverPolicy::default().build::<f64>(100);
        assert_eq!(sys.backend(), MatrixBackend::Sparse);
        let sys = SolverPolicy::default().build::<f64>(10);
        assert_eq!(sys.backend(), MatrixBackend::Dense);
    }
}
