//! Fill-reducing elimination orderings for sparse factorization.
//!
//! The Gilbert–Peierls LU in [`crate::sparse_lu`] pivots for
//! numerical stability only; on meshed patterns (grids of coupled
//! cells, FEM-derived ladders) eliminating columns in their natural
//! order lets fill-in explode. [`amd_order`] computes an AMD-style
//! minimum-degree ordering of the *symmetrized* pattern `A + Aᵀ`
//! (Amestoy/Davis/Duff's algorithm family): a quotient-graph
//! elimination that never forms the fill explicitly, with
//! supervariable merging of indistinguishable nodes, aggressive
//! element absorption, and external-degree pivot selection. Feeding
//! the resulting column order to
//! [`SparseLu::factor_ordered`](crate::sparse_lu::SparseLu::factor_ordered)
//! cuts factor fill and flops by large factors on such matrices while
//! the row pivoting still guards stability.
//!
//! The ordering is purely structural: any permutation is *correct*
//! (the factorization re-pivots rows as usual), so a suboptimal
//! degree approximation can only cost fill, never accuracy.

use std::collections::BinaryHeap;

pub mod cache;
pub mod nd;

pub use cache::{cache_snapshot, cache_stats, clear_cache, order_cached, OrderLookup};
pub use nd::nd_order;

/// Dimension at which [`FillOrdering::Auto`] switches from minimum
/// degree to nested dissection: below this AMD's quotient-graph
/// elimination is cheap and usually slightly better on irregular
/// blocks; above it the separator tree wins on both ordering cost and
/// fill for the meshed patterns this stack factors.
pub const ND_AUTO_THRESHOLD: usize = 10_000;

/// Which column pre-ordering the sparse backend eliminates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillOrdering {
    /// Eliminate columns in their natural (stamp/index) order.
    Natural,
    /// Minimum-degree order of the symmetrized pattern.
    Amd,
    /// Multilevel nested dissection of the symmetrized pattern
    /// ([`nd_order`]): separator-tree fill, O(|E| log n) to compute.
    Nd,
    /// Pick per matrix: [`FillOrdering::Nd`] at
    /// n ≥ [`ND_AUTO_THRESHOLD`], [`FillOrdering::Amd`] below (the
    /// default; deck option `order=` opts into a fixed choice).
    #[default]
    Auto,
}

impl FillOrdering {
    /// The concrete ordering `Auto` stands for at dimension `n`
    /// (fixed choices return themselves).
    pub fn resolve(self, n: usize) -> FillOrdering {
        match self {
            FillOrdering::Auto => {
                if n >= ND_AUTO_THRESHOLD {
                    FillOrdering::Nd
                } else {
                    FillOrdering::Amd
                }
            }
            other => other,
        }
    }

    /// Wire/report name of the (possibly unresolved) policy.
    pub fn name(self) -> &'static str {
        match self {
            FillOrdering::Natural => "natural",
            FillOrdering::Amd => "amd",
            FillOrdering::Nd => "nd",
            FillOrdering::Auto => "auto",
        }
    }
}

/// Node state in the quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// An uneliminated (principal) supervariable.
    Variable,
    /// An eliminated pivot, kept as an element whose boundary is its
    /// would-be fill clique.
    Element,
    /// Merged into another supervariable (indistinguishable), or an
    /// element absorbed into a newer one.
    Dead,
}

/// Computes a fill-reducing elimination order for the pattern of a
/// square CSC matrix (values are irrelevant; the pattern is
/// symmetrized and the diagonal ignored).
///
/// Returns `perm` with `perm[k]` = the original column to eliminate
/// at step `k`; the result is always a valid permutation of `0..n`.
/// Out-of-range row indices are ignored (the factorization proper
/// reports them).
pub fn amd_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    // Symmetrized adjacency A + Aᵀ without the diagonal.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n.min(col_ptr.len().saturating_sub(1)) {
        for p in col_ptr[j]..col_ptr[j + 1].min(row_idx.len()) {
            let i = row_idx[p];
            if i < n && i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    let mut state = vec![NodeState::Variable; n];
    let mut weight = vec![1usize; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    // Adjacent principal variables / adjacent elements, per variable.
    let mut var_adj = adj;
    let mut elem_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    // For elements: the boundary variable list (may hold stale dead
    // entries, filtered by state on read).
    let mut boundary: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Variables absorbed into each principal (eliminated right after
    // it, in absorption order).
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Lazy min-heap over (degree, node); stale entries are skipped.
    // Ties break on the smaller node index, keeping the order
    // deterministic.
    let mut heap: BinaryHeap<std::cmp::Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for i in 0..n {
        heap.push(std::cmp::Reverse((degree[i], i)));
    }

    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut mark2 = vec![0usize; n];
    let mut stamp2 = 0usize;

    let mut perm = Vec::with_capacity(n);
    while perm.len() < n {
        let p = loop {
            let std::cmp::Reverse((d, cand)) = heap.pop().expect("heap cannot drain early");
            if state[cand] == NodeState::Variable && degree[cand] == d {
                break cand;
            }
        };

        // Form the element boundary Le = (A_p ∪ ⋃ L_e) \ p over live
        // variables; absorbed elements die.
        stamp += 1;
        mark[p] = stamp;
        let mut le: Vec<usize> = Vec::new();
        for &v in &var_adj[p] {
            if state[v] == NodeState::Variable && mark[v] != stamp {
                mark[v] = stamp;
                le.push(v);
            }
        }
        for e in std::mem::take(&mut elem_adj[p]) {
            if state[e] != NodeState::Element {
                continue;
            }
            for &v in &boundary[e] {
                if state[v] == NodeState::Variable && mark[v] != stamp {
                    mark[v] = stamp;
                    le.push(v);
                }
            }
            // Aggressive absorption: e's clique is a subset of p's.
            state[e] = NodeState::Dead;
            boundary[e].clear();
        }

        perm.push(p);
        perm.append(&mut members[p]);
        state[p] = NodeState::Element;
        var_adj[p].clear();
        boundary[p] = le.clone();

        // Update every boundary variable: prune its lists, recompute
        // its external degree over the quotient graph.
        for &i in &le {
            // Variables covered by the new element are reachable
            // through it; drop them (and any dead nodes) from the
            // direct list.
            var_adj[i].retain(|&v| state[v] == NodeState::Variable && mark[v] != stamp);
            elem_adj[i].retain(|&e| state[e] == NodeState::Element && e != p);
            elem_adj[i].push(p);

            stamp2 += 1;
            mark2[i] = stamp2;
            let mut deg = 0usize;
            for &v in &var_adj[i] {
                if mark2[v] != stamp2 {
                    mark2[v] = stamp2;
                    deg += weight[v];
                }
            }
            for &e in &elem_adj[i] {
                for &v in &boundary[e] {
                    if state[v] == NodeState::Variable && mark2[v] != stamp2 {
                        mark2[v] = stamp2;
                        deg += weight[v];
                    }
                }
            }
            degree[i] = deg;
        }

        // Supervariable detection: boundary variables with identical
        // quotient-graph adjacency (including themselves) are
        // indistinguishable — merge them so they are selected and
        // eliminated together. Candidates are bucketed by a
        // commutative hash and exact-checked.
        let mut hashed: Vec<(u64, usize)> = le
            .iter()
            .filter(|&&i| state[i] == NodeState::Variable)
            .map(|&i| (adjacency_hash(i, &var_adj[i], &elem_adj[i]), i))
            .collect();
        hashed.sort_unstable();
        let mut idx = 0;
        while idx < hashed.len() {
            let mut run_end = idx + 1;
            while run_end < hashed.len() && hashed[run_end].0 == hashed[idx].0 {
                run_end += 1;
            }
            for a in idx..run_end {
                let i = hashed[a].1;
                if state[i] != NodeState::Variable {
                    continue;
                }
                for b in (a + 1)..run_end {
                    let j = hashed[b].1;
                    if state[j] != NodeState::Variable {
                        continue;
                    }
                    if indistinguishable(i, j, &var_adj, &elem_adj) {
                        let absorbed = weight[j];
                        weight[i] += absorbed;
                        state[j] = NodeState::Dead;
                        let mut js = std::mem::take(&mut members[j]);
                        members[i].push(j);
                        members[i].append(&mut js);
                        var_adj[j].clear();
                        elem_adj[j].clear();
                        var_adj[i].retain(|&v| v != j);
                        // `j` was external to `i`; now it is part of
                        // it, so the external degree shrinks.
                        degree[i] = degree[i].saturating_sub(absorbed);
                    }
                }
            }
            idx = run_end;
        }

        for &i in &le {
            if state[i] == NodeState::Variable {
                heap.push(std::cmp::Reverse((degree[i], i)));
            }
        }
    }
    debug_assert!(is_permutation(&perm, n));
    perm
}

/// Commutative hash over a variable's quotient-graph adjacency plus
/// itself (so two indistinguishable variables — whose lists differ
/// only by containing each other — hash equal).
fn adjacency_hash(i: usize, vars: &[usize], elems: &[usize]) -> u64 {
    fn h(x: usize) -> u64 {
        let mut z = (x as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let mut acc = h(i);
    for &v in vars {
        acc = acc.wrapping_add(h(v));
    }
    for &e in elems {
        acc = acc.wrapping_add(h(e ^ 0x5555_5555_5555));
    }
    acc
}

/// Exact indistinguishability check: `Adj(i) ∪ {i} == Adj(j) ∪ {j}`
/// over both list kinds.
fn indistinguishable(i: usize, j: usize, var_adj: &[Vec<usize>], elem_adj: &[Vec<usize>]) -> bool {
    if elem_adj[i].len() != elem_adj[j].len() || var_adj[i].len() != var_adj[j].len() {
        return false;
    }
    let mut ei = elem_adj[i].clone();
    let mut ej = elem_adj[j].clone();
    ei.sort_unstable();
    ej.sort_unstable();
    if ei != ej {
        return false;
    }
    let close = |list: &[usize], selfish: usize, other: usize| -> Vec<usize> {
        let mut v: Vec<usize> = list
            .iter()
            .copied()
            .map(|x| if x == other { selfish } else { x })
            .collect();
        v.push(selfish);
        v.sort_unstable();
        v.dedup();
        v
    };
    // Substituting `j → i` (and closing over self) makes the variable
    // lists comparable as sets.
    close(&var_adj[i], i, j) == close(&var_adj[j], i, j)
}

/// `true` when `perm` is a bijection on `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSC pattern from (row, col) coordinate pairs.
    fn csc_pattern(n: usize, coords: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in coords {
            cols[c].push(r);
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::new();
        for (c, mut rows) in cols.into_iter().enumerate() {
            rows.sort_unstable();
            rows.dedup();
            col_ptr[c + 1] = col_ptr[c] + rows.len();
            row_idx.extend(rows);
        }
        (col_ptr, row_idx)
    }

    /// 5-point-stencil grid pattern (rows × cols nodes).
    fn grid_pattern(rows: usize, cols: usize) -> (usize, Vec<usize>, Vec<usize>) {
        let n = rows * cols;
        let id = |r: usize, c: usize| r * cols + c;
        let mut coords = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                coords.push((id(r, c), id(r, c)));
                if c + 1 < cols {
                    coords.push((id(r, c), id(r, c + 1)));
                    coords.push((id(r, c + 1), id(r, c)));
                }
                if r + 1 < rows {
                    coords.push((id(r, c), id(r + 1, c)));
                    coords.push((id(r + 1, c), id(r, c)));
                }
            }
        }
        let (cp, ri) = csc_pattern(n, &coords);
        (n, cp, ri)
    }

    /// Symbolic Cholesky-style fill count for a symmetric pattern
    /// eliminated in `perm` order (counts |L| below the diagonal).
    fn symbolic_fill(n: usize, col_ptr: &[usize], row_idx: &[usize], perm: &[usize]) -> usize {
        let mut pinv = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            pinv[p] = k;
        }
        // Adjacency in elimination coordinates.
        let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
        for j in 0..n {
            for p in col_ptr[j]..col_ptr[j + 1] {
                let i = row_idx[p];
                if i != j {
                    adj[pinv[i]].insert(pinv[j]);
                    adj[pinv[j]].insert(pinv[i]);
                }
            }
        }
        let mut fill = 0usize;
        for k in 0..n {
            let nbrs: Vec<usize> = adj[k].iter().copied().filter(|&v| v > k).collect();
            fill += nbrs.len();
            for (a, &i) in nbrs.iter().enumerate() {
                for &j in &nbrs[a + 1..] {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
        fill
    }

    #[test]
    fn empty_and_singleton() {
        assert!(amd_order(0, &[0], &[]).is_empty());
        assert_eq!(amd_order(1, &[0, 1], &[0]), vec![0]);
    }

    #[test]
    fn diagonal_pattern_is_identity_like() {
        let (cp, ri) = csc_pattern(4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let p = amd_order(4, &cp, &ri);
        assert!(is_permutation(&p, 4));
    }

    #[test]
    fn arrow_matrix_defers_the_hub() {
        // Arrow: dense first row/column. Natural order fills the
        // whole matrix; minimum degree eliminates the spokes first
        // and the hub last — zero fill.
        let n = 12;
        let mut coords = vec![];
        for i in 0..n {
            coords.push((i, i));
            if i > 0 {
                coords.push((0, i));
                coords.push((i, 0));
            }
        }
        let (cp, ri) = csc_pattern(n, &coords);
        let p = amd_order(n, &cp, &ri);
        assert!(is_permutation(&p, n));
        // The hub ties with the final spoke at degree 1, so it lands
        // in one of the last two slots.
        let hub_pos = p.iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2, "hub eliminated too early: {p:?}");
        assert_eq!(symbolic_fill(n, &cp, &ri, &p), n - 1);
        let natural: Vec<usize> = (0..n).collect();
        assert_eq!(symbolic_fill(n, &cp, &ri, &natural), n * (n - 1) / 2);
    }

    #[test]
    fn tridiagonal_stays_fill_free() {
        let n = 30;
        let mut coords = vec![];
        for i in 0..n {
            coords.push((i, i));
            if i > 0 {
                coords.push((i, i - 1));
                coords.push((i - 1, i));
            }
        }
        let (cp, ri) = csc_pattern(n, &coords);
        let p = amd_order(n, &cp, &ri);
        assert!(is_permutation(&p, n));
        assert_eq!(symbolic_fill(n, &cp, &ri, &p), n - 1);
    }

    #[test]
    fn grid_fill_is_much_smaller_than_natural() {
        let (n, cp, ri) = grid_pattern(16, 16);
        let p = amd_order(n, &cp, &ri);
        assert!(is_permutation(&p, n));
        let amd_fill = symbolic_fill(n, &cp, &ri, &p);
        let natural_fill = symbolic_fill(n, &cp, &ri, &(0..n).collect::<Vec<_>>());
        assert!(
            (amd_fill as f64) < 0.55 * natural_fill as f64,
            "AMD fill {amd_fill} vs natural {natural_fill}"
        );
    }

    #[test]
    fn unsymmetric_pattern_is_symmetrized() {
        // Strictly lower-triangular pattern plus diagonal: the
        // symmetrized graph is a path, so the order stays fill-free.
        let n = 10;
        let mut coords = vec![];
        for i in 0..n {
            coords.push((i, i));
            if i > 0 {
                coords.push((i, i - 1)); // one direction only
            }
        }
        let (cp, ri) = csc_pattern(n, &coords);
        let p = amd_order(n, &cp, &ri);
        assert!(is_permutation(&p, n));
        assert_eq!(symbolic_fill(n, &cp, &ri, &p), n - 1);
    }

    #[test]
    fn deterministic_across_calls() {
        let (n, cp, ri) = grid_pattern(9, 7);
        let a = amd_order(n, &cp, &ri);
        let b = amd_order(n, &cp, &ri);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_columns_survive() {
        // Column 1 has no entries at all (structurally singular for
        // LU, but the ordering must still emit a permutation).
        let (cp, ri) = csc_pattern(3, &[(0, 0), (2, 2), (2, 0), (0, 2)]);
        let p = amd_order(3, &cp, &ri);
        assert!(is_permutation(&p, 3));
    }

    #[test]
    fn is_permutation_rejects_bad_inputs() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }
}
