//! Stamp replay in [`SparseSystem`]: every `add` that repeats the
//! recorded stamp sequence skips the hash lookup, and an `add` off the
//! sequence heals the record. These tests pin that the replay is
//! invisible in the results and visible in the counters:
//!
//! - a differential property over random stamp streams (entries
//!   omitted, reordered, duplicated and added between rounds, `f64`
//!   and `Complex64`): after every round `get` and `solve` are
//!   bit-identical to a fresh system fed the same round, and within
//!   1e-12 of the dense backend;
//! - a generated grid `.TRAN` deck over hundreds of Newton iterations
//!   misses the record on fewer stamps than three assemblies make.

use mems::netlist::elab::sim_options;
use mems::netlist::gen::{grid_deck_with, GridDeckOptions};
use mems::netlist::{run_deck, Deck, Elaborator, ParamEnv};
use mems::numerics::ode::IntegrationMethod;
use mems::numerics::scalar::Scalar;
use mems::numerics::Complex64;
use mems::spice::analysis::dcop;
use mems::spice::device::LoadKind;
use mems::spice::solver::{assemble, Workspace};
use mems::spice::system::{DenseSystem, SparseSystem, SystemMatrix};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A scalar whose bits can be compared exactly.
trait Bits: Scalar + std::fmt::Debug + Send + Sync + 'static {
    fn draw(next: &mut dyn FnMut() -> f64, diag: bool) -> Self;
    fn bits(self) -> (u64, u64);
}

impl Bits for f64 {
    fn draw(next: &mut dyn FnMut() -> f64, diag: bool) -> Self {
        if diag {
            1.0 + next()
        } else {
            2.0 * next() - 1.0
        }
    }
    fn bits(self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
}

impl Bits for Complex64 {
    fn draw(next: &mut dyn FnMut() -> f64, diag: bool) -> Self {
        let re = f64::draw(next, diag);
        Complex64::new(re, 2.0 * next() - 1.0)
    }
    fn bits(self) -> (u64, u64) {
        (self.re.to_bits(), self.im.to_bits())
    }
}

/// One assembly: stamps in call order.
type Round<S> = Vec<(usize, usize, S)>;

/// Seeded stamp streams: a base sequence (every diagonal entry plus
/// random off-diagonals, some stamped twice) that each round replays
/// with random edits — stamps dropped, adjacent stamps swapped, extra
/// stamps on seen coordinates, and new coordinates inserted anywhere
/// (which then join the base for later rounds). About a third of the
/// rounds replay the previous round's coordinates unedited.
fn stamp_rounds<S: Bits>(seed: u64, n: usize, rounds: usize) -> Vec<Round<S>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pick = |next: &mut dyn FnMut() -> f64, k: usize| ((next() * k as f64) as usize).min(k - 1);
    let mut base: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        base.push((i, i));
        for _ in 0..2 {
            let j = pick(&mut next, n);
            if j != i {
                base.push((i, j));
            }
        }
    }
    for _ in 0..n / 2 {
        base.push(base[pick(&mut next, base.len())]);
    }
    let mut out = Vec::with_capacity(rounds);
    let mut coords = base.clone();
    for r in 0..rounds {
        if r > 0 && next() < 0.67 {
            coords = base.clone();
            let mut k = 0;
            while k < coords.len() {
                let u = next();
                if u < 0.05 && coords[k].0 != coords[k].1 {
                    coords.remove(k);
                    continue;
                } else if u < 0.10 && k + 1 < coords.len() {
                    coords.swap(k, k + 1);
                } else if u < 0.13 {
                    coords.insert(k, coords[pick(&mut next, coords.len())]);
                } else if u < 0.15 {
                    let c = (pick(&mut next, n), pick(&mut next, n));
                    coords.insert(k, c);
                    base.push(c);
                }
                k += 1;
            }
        }
        // Every diagonal entry of a row carries its row's off-diagonal
        // mass plus one, so each round is strictly diagonally dominant
        // whatever was dropped or repeated.
        let mut round: Round<S> = coords
            .iter()
            .map(|&(i, j)| (i, j, S::draw(&mut next, i == j)))
            .collect();
        let mut mass = vec![0.0; n];
        for &(i, j, v) in &round {
            if i != j {
                mass[i] += v.modulus();
            }
        }
        for (i, m) in mass.iter().enumerate() {
            round.push((i, i, S::from_f64(m + 1.0)));
        }
        out.push(round);
    }
    out
}

fn rhs<S: Scalar>(n: usize) -> Vec<S> {
    (0..n)
        .map(|i| S::from_f64(((i * 7 + 3) % 11) as f64 - 5.0))
        .collect()
}

/// Feeds every round through one replaying system and checks it
/// against a fresh system and the dense backend after each round.
fn check_rounds<S: Bits>(n: usize, rounds: &[Round<S>]) -> Result<(), TestCaseError> {
    let b = rhs::<S>(n);
    let mut sys = SparseSystem::<S>::new(n);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (r, round) in rounds.iter().enumerate() {
        sys.clear();
        for &(i, j, v) in round {
            sys.add(i, j, v);
        }
        sys.factor()
            .map_err(|e| TestCaseError(format!("round {r}: {e}")))?;
        let x = sys.solve(&b).unwrap();

        // The fresh system sees the same pattern (every coordinate
        // stamped so far, primed with zeros), so it orders and
        // factors like the replaying one.
        let stamped: BTreeSet<(usize, usize)> = round.iter().map(|&(i, j, _)| (i, j)).collect();
        seen.extend(stamped.iter().copied());
        let mut fresh = SparseSystem::<S>::new(n);
        for &(i, j) in seen.difference(&stamped) {
            fresh.add(i, j, S::zero());
        }
        let mut dense = DenseSystem::<S>::new(n);
        for &(i, j, v) in round {
            fresh.add(i, j, v);
            dense.add(i, j, v);
        }
        fresh.factor().unwrap();
        dense.factor().unwrap();
        for i in 0..n {
            for j in 0..n {
                let (got, want) = (sys.get(i, j), fresh.get(i, j));
                prop_assert!(
                    got.bits() == want.bits(),
                    "round {r}: get({i}, {j}) = {got:?}, fresh {want:?}"
                );
            }
        }
        prop_assert!(sys.nnz() == fresh.nnz(), "round {r}: pattern size");
        let x_fresh = fresh.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        let scale = x_dense.iter().fold(1e-300f64, |m, v| m.max(v.modulus()));
        for k in 0..n {
            prop_assert!(
                x[k].bits() == x_fresh[k].bits(),
                "round {r}: x[{k}] = {:?}, fresh {:?}",
                x[k],
                x_fresh[k]
            );
            let d = (x[k] - x_dense[k]).modulus();
            prop_assert!(
                d <= 1e-12 * scale,
                "round {r}: x[{k}] off dense by {d:e} (scale {scale:e})"
            );
        }
    }
    Ok(())
}

proptest! {
    /// Replayed `f64` assembly ≡ fresh assembly (bit for bit) ≈ dense.
    #[test]
    fn replayed_real_stamps_match_fresh_and_dense(
        seed in 0i64..1_000_000,
        n in 2usize..40,
        rounds in 2usize..9,
    ) {
        check_rounds::<f64>(n, &stamp_rounds(seed as u64, n, rounds))?;
    }

    /// The same for the complex (AC) instantiation.
    #[test]
    fn replayed_complex_stamps_match_fresh_and_dense(
        seed in 0i64..1_000_000,
        n in 2usize..40,
        rounds in 2usize..9,
    ) {
        check_rounds::<Complex64>(n, &stamp_rounds(seed as u64, n, rounds))?;
    }
}

/// A sequence that diverges in its middle heals: the next identical
/// assembly replays without a single miss.
#[test]
fn divergent_assembly_heals_the_record() {
    let mut sys = SparseSystem::<f64>::new(3);
    let first = [(0, 0), (0, 1), (1, 1), (2, 2)];
    let second = [(0, 0), (2, 1), (0, 1), (1, 1), (2, 2)];
    let assemble = |sys: &mut SparseSystem<f64>, coords: &[(usize, usize)]| {
        sys.clear();
        for &(i, j) in coords {
            sys.add(i, j, 1.0);
        }
        sys.solver_stats().stamp_misses
    };
    assert_eq!(assemble(&mut sys, &first), 4, "first assembly records");
    assert_eq!(assemble(&mut sys, &first), 4, "identical replay");
    // Diverges at the second stamp: it and every later one miss.
    assert_eq!(assemble(&mut sys, &second), 8);
    assert_eq!(assemble(&mut sys, &second), 8, "healed");
    assert_eq!(sys.get(2, 1), 1.0);
    assert_eq!(sys.get(1, 1), 1.0);
}

/// Over a whole generated grid `.TRAN` (hundreds of Newton
/// iterations), stamps miss the recorded sequence fewer times than
/// three transient assemblies stamp: the first assembly and the DC →
/// transient switch, not every iteration.
#[test]
fn grid_transient_replays_its_stamps() {
    let src = grid_deck_with(
        8,
        8,
        &GridDeckOptions {
            tran: true,
            ..GridDeckOptions::default()
        },
    );
    let deck = Deck::parse(&src).unwrap_or_else(|e| panic!("{}", e.render(&src)));

    // One transient assembly on a fresh system: every stamp misses.
    let elab = Elaborator::new(&deck).unwrap();
    let (mut ckt, env) = elab.build(&ParamEnv::new(), None).unwrap();
    let sim = sim_options(&deck, &env).unwrap();
    let layout = ckt.layout();
    let mut ws = Workspace::new(layout.n_unknowns);
    let op = dcop::solve_in(&mut ckt, &sim, None, &mut ws).unwrap();
    let mut fresh = Workspace::new(layout.n_unknowns);
    fresh.ensure_solver(layout.n_unknowns, &sim);
    let kind = LoadKind::Transient {
        t: 1e-5,
        h: 1e-5,
        method: IntegrationMethod::Trapezoidal,
    };
    assemble(&mut ckt, &layout, kind, sim.gmin, &op.x, &mut fresh).unwrap();
    let per_assembly = fresh.sys.solver_stats().stamp_misses;
    assert!(per_assembly > 1000, "{per_assembly} stamps per assembly");

    let run = run_deck(&deck).unwrap();
    let st = run
        .solver
        .iter()
        .find(|(name, _)| name == "real")
        .map(|(_, st)| *st)
        .expect("real solver stats");
    assert_eq!(st.backend, "sparse");
    assert!(
        st.refactors > 500,
        "{} refactors: too short a run",
        st.refactors
    );
    assert!(
        st.stamp_misses < 3 * per_assembly,
        "{} stamp misses over {} factors, {per_assembly} stamps per assembly",
        st.stamp_misses,
        st.factors + st.refactors
    );
}
