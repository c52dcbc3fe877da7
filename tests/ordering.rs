//! Property tests for the fill-reducing orderings: on random sparse
//! patterns — diagonally-dominant SPD-ish and plainly unsymmetric —
//! the AMD and nested-dissection permutations must always be valid
//! bijections, permuted factor/refactor solves must agree with
//! natural-order solves to ≤ 1e-12, and the dead-pivot → full
//! re-pivot fallback must keep working under a permutation.

use mems::numerics::ordering::{amd_order, is_permutation, nd_order, FillOrdering};
use mems::numerics::sparse_lu::{CscMatrix, SparseLu};
use mems::spice::system::{FactorKind, SparseSystem, SystemMatrix};
use proptest::prelude::*;

/// Deterministic pattern + values from a seed: `n`-node matrix with
/// full diagonal and ~`density` off-diagonal fill.
fn random_matrix(seed: u64, n: usize, density: f64, symmetric: bool) -> Vec<(usize, usize, f64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut t = Vec::new();
    for i in 0..n {
        // Strong diagonal keeps the systems comfortably conditioned,
        // so a 1e-12 cross-ordering tolerance is meaningful.
        t.push((i, i, 6.0 + 2.0 * next()));
        for j in 0..n {
            if i != j && next() < density {
                let v = 2.0 * next() - 1.0;
                t.push((i, j, v));
                if symmetric {
                    t.push((j, i, v));
                }
            }
        }
    }
    t
}

fn solve_both_orders(triplets: &[(usize, usize, f64)], n: usize) -> (Vec<f64>, Vec<f64>) {
    let csc = CscMatrix::from_triplets(n, triplets);
    let order = amd_order(n, &csc.col_ptr, &csc.row_idx);
    assert!(is_permutation(&order, n), "invalid AMD permutation");
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let x_nat = SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap();
    let x_amd = SparseLu::factor_ordered(&csc.view(), &order)
        .unwrap()
        .solve(&b)
        .unwrap();
    (x_nat, x_amd)
}

proptest! {
    /// SPD-ish (symmetric, diagonally dominant) patterns.
    #[test]
    fn amd_matches_natural_on_symmetric_patterns(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
    ) {
        let t = random_matrix(seed as u64, n, density, true);
        let (x_nat, x_amd) = solve_both_orders(&t, n);
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, b) in x_nat.iter().zip(&x_amd) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} (scale {scale})");
        }
    }

    /// Unsymmetric patterns (the ordering works on the symmetrized
    /// graph; the factorization itself stays unsymmetric).
    #[test]
    fn amd_matches_natural_on_unsymmetric_patterns(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
    ) {
        let t = random_matrix(seed as u64 ^ 0xdead_beef, n, density, false);
        let (x_nat, x_amd) = solve_both_orders(&t, n);
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, b) in x_nat.iter().zip(&x_amd) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} (scale {scale})");
        }
    }

    /// Refactor with drifted-but-stable values agrees with a fresh
    /// ordered factorization to machine precision, and the solution
    /// still matches the natural-order one to 1e-12.
    #[test]
    fn ordered_refactor_matches_fresh_factor(
        seed in 0i64..1_000_000,
        n in 5usize..40,
    ) {
        let t_a = random_matrix(seed as u64, n, 0.15, false);
        // Same pattern, perturbed values (keeps the pivots stable).
        let t_b: Vec<(usize, usize, f64)> = t_a
            .iter()
            .map(|&(i, j, v)| (i, j, v * 1.25 + if i == j { 0.5 } else { 0.0 }))
            .collect();
        let csc_a = CscMatrix::from_triplets(n, &t_a);
        let csc_b = CscMatrix::from_triplets(n, &t_b);
        let order = amd_order(n, &csc_a.col_ptr, &csc_a.row_idx);
        prop_assert!(is_permutation(&order, n));
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut lu = SparseLu::factor_ordered(&csc_a.view(), &order).unwrap();
        lu.refactor(&csc_b.view()).unwrap();
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = SparseLu::factor_ordered(&csc_b.view(), &order)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x_nat = SparseLu::factor(&csc_b.view()).unwrap().solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!((x_re[i] - x_fresh[i]).abs() <= 1e-12 * scale);
            prop_assert!((x_re[i] - x_nat[i]).abs() <= 1e-12 * scale);
        }
    }

    /// Nested dissection on random sym/unsym patterns: the permutation
    /// is always a valid bijection, and ND-permuted solves agree with
    /// natural order and AMD to ≤ 1e-12.
    #[test]
    fn nd_is_a_valid_permutation_and_matches_natural_and_amd(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
        symmetric in 0usize..2,
    ) {
        let t = random_matrix(seed as u64 ^ 0x4e44, n, density, symmetric == 1);
        let csc = CscMatrix::from_triplets(n, &t);
        let nd = nd_order(n, &csc.col_ptr, &csc.row_idx);
        prop_assert!(is_permutation(&nd, n), "invalid ND permutation");
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) % 13) as f64 - 6.0).collect();
        let x_nat = SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap();
        let x_nd = SparseLu::factor_ordered(&csc.view(), &nd)
            .unwrap()
            .solve(&b)
            .unwrap();
        let amd = amd_order(n, &csc.col_ptr, &csc.row_idx);
        let x_amd = SparseLu::factor_ordered(&csc.view(), &amd)
            .unwrap()
            .solve(&b)
            .unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!((x_nat[i] - x_nd[i]).abs() <= 1e-12 * scale,
                "nd {} vs natural {}", x_nd[i], x_nat[i]);
            prop_assert!((x_amd[i] - x_nd[i]).abs() <= 1e-12 * scale,
                "nd {} vs amd {}", x_nd[i], x_amd[i]);
        }
    }

    /// Full-backend agreement under ND: factor + refactor through
    /// `SparseSystem` with `order=nd` matches the natural-order
    /// backend on the same stamps (exercises the lazy ordering path
    /// and the machine-wide ordering cache end to end).
    #[test]
    fn nd_system_factor_and_refactor_match_natural(
        seed in 0i64..1_000_000,
        n in 5usize..40,
    ) {
        let t = random_matrix(seed as u64 ^ 0x0d15_5ec7, n, 0.15, false);
        let mut nd_sys = SparseSystem::<f64>::with_solver(n, FillOrdering::Nd, FactorKind::default(), 0);
        let mut nat_sys = SparseSystem::<f64>::with_solver(n, FillOrdering::Natural, FactorKind::default(), 0);
        for &(i, j, v) in &t {
            nd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        nd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let x_nd = nd_sys.solve(&b).unwrap();
        let x_nat = nat_sys.solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, c) in x_nd.iter().zip(&x_nat) {
            prop_assert!((a - c).abs() <= 1e-12 * scale, "{a} vs {c}");
        }
        // Same pattern, perturbed values: the numeric-only refactor
        // replay under ND must track natural order too.
        nd_sys.clear();
        nat_sys.clear();
        for &(i, j, v) in &t {
            let v = v * 1.5 + if i == j { 0.25 } else { 0.0 };
            nd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        nd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        let x_nd = nd_sys.solve(&b).unwrap();
        let x_nat = nat_sys.solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, c) in x_nd.iter().zip(&x_nat) {
            prop_assert!((a - c).abs() <= 1e-12 * scale, "{a} vs {c}");
        }
    }

    /// The sparse backend's dead-pivot fallback (refactor fails → full
    /// re-pivoting factorization under the same column order) holds
    /// under AMD: zeroing a diagonal entry after the symbolic analysis
    /// must still solve, and agree with the natural-order backend.
    #[test]
    fn dead_pivot_fallback_survives_permutation(
        seed in 0i64..1_000_000,
        n in 6usize..30,
        kill in 0usize..6,
    ) {
        let t = random_matrix(seed as u64 ^ 0x5eed, n, 0.2, false);
        let kill = kill % n;
        let mut amd_sys = SparseSystem::<f64>::with_solver(n, FillOrdering::Amd, FactorKind::default(), 0);
        let mut nat_sys = SparseSystem::<f64>::with_solver(n, FillOrdering::Natural, FactorKind::default(), 0);
        for &(i, j, v) in &t {
            amd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        amd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        // Same pattern, dead diagonal at `kill`: the replayed pivot
        // dies (or drifts), forcing the full re-pivot fallback.
        amd_sys.clear();
        nat_sys.clear();
        for &(i, j, v) in &t {
            let v = if i == kill && j == kill { 0.0 } else { v };
            amd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
        // A zeroed diagonal in a random matrix is (almost surely)
        // still nonsingular thanks to the off-diagonal entries; if
        // either backend calls it singular, both must.
        match (amd_sys.factor(), nat_sys.factor()) {
            (Ok(()), Ok(())) => {
                let xa = amd_sys.solve(&b).unwrap();
                let xn = nat_sys.solve(&b).unwrap();
                let scale = xn.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
                for (a, c) in xa.iter().zip(&xn) {
                    prop_assert!((a - c).abs() <= 1e-10 * scale, "{a} vs {c}");
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "fallback asymmetry: {other:?}"),
        }
    }
}
