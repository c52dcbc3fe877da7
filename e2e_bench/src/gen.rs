//! Seeded input generators. The library only ever sees the deck text
//! these produce; the seed never reaches it.

use mems_netlist::gen::GridDeckOptions;
use mems_netlist::gen::{grid_deck_with, grid_unknowns, mesh_deck_with, mesh_unknowns};
use std::fmt::Write as _;

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream for item `k` of a seeded sequence.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// FNV-1a over bytes, for pattern fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A generated deck plus what the benchmark needs to check its result.
#[derive(Debug, Clone)]
pub struct GenDeck {
    pub text: String,
    /// Unknown count of the elaborated circuit (the generators' own
    /// estimates, which `mems_netlist::gen` tests pin to elaboration).
    pub n: usize,
    /// Label of the trace the output check reads.
    pub probe: String,
    /// Fingerprint of the sparsity-determining structure.
    pub pattern_fp: u64,
}

/// The `.TRAN` grid: `mems_netlist::gen`'s `rows × cols` cell grid
/// with a pulse drive and `.TRAN 0.2m 4m`, and about half of the cells
/// given a seeded `r=` override in 700..1300 Ω. The pattern depends
/// on the size only; the seed moves the values.
pub fn tran_grid(seed: u64, rows: usize, cols: usize) -> GenDeck {
    let base = grid_deck_with(
        rows,
        cols,
        &GridDeckOptions {
            options: "sparse=1".into(),
            ac: false,
            tran: true,
            step_points: 0,
        },
    );
    let mut rng = Rng::new(seed);
    let mut text = String::with_capacity(base.len() + base.len() / 4);
    for line in base.lines() {
        text.push_str(line);
        if line.starts_with('X') && line.ends_with(" gcell") && rng.unit() < 0.5 {
            let r = 700.0 + 600.0 * rng.unit();
            let _ = write!(text, " r={r:.3}");
        }
        text.push('\n');
    }
    GenDeck {
        text,
        n: grid_unknowns(rows, cols),
        probe: format!("v(n{}_{})", rows - 1, cols - 1),
        pattern_fp: fnv1a(format!("grid {rows}x{cols}").as_bytes()),
    }
}

/// The same deck solved on the alternate linear-solver path the
/// reference uses: nested-dissection ordering and scalar LU. Below
/// `ND_AUTO_THRESHOLD` the default `order=auto` resolves to AMD, and
/// the default `factor=auto` falls back to scalar LU after its first
/// supernodal factor, so `order=amd factor=scalar` would repeat the
/// timed path's pivot sequence; nested dissection gives another
/// column order and another fill. (Natural order would differ more,
/// but its fill makes a 22×22 run take minutes.)
pub fn with_reference_solver(deck: &str) -> String {
    deck.replace(
        ".options sparse=1\n",
        ".options sparse=1 order=nd factor=scalar\n",
    )
}

/// The cold 3-D mesh: a `g³` 7-point cell grid with a seeded ~2 % of
/// its edge cells dropped, so every seed (and every op, through
/// [`sub_seed`]) is a new sparsity pattern. Drops that would isolate a
/// node or split the mesh are skipped: a floating island has no DC
/// path to ground.
pub fn cold_mesh3d(seed: u64, g: usize) -> GenDeck {
    let id = |x: usize, y: usize, z: usize| (z * g + y) * g + x;
    let mut edges = Vec::new();
    for z in 0..g {
        for y in 0..g {
            for x in 0..g {
                if x + 1 < g {
                    edges.push((id(x, y, z), id(x + 1, y, z)));
                }
                if y + 1 < g {
                    edges.push((id(x, y, z), id(x, y + 1, z)));
                }
                if z + 1 < g {
                    edges.push((id(x, y, z), id(x, y, z + 1)));
                }
            }
        }
    }
    let nodes = g * g * g;
    let mut degree = vec![0usize; nodes];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut rng = Rng::new(seed);
    let mut kept = Vec::with_capacity(edges.len());
    for &(a, b) in &edges {
        // The drive (node 0) and sink (last node) keep every cell.
        let pinned = a == 0 || b == nodes - 1;
        if !pinned && rng.unit() < 0.02 && degree[a] > 2 && degree[b] > 2 {
            degree[a] -= 1;
            degree[b] -= 1;
        } else {
            kept.push((a, b));
        }
    }
    if !connected(nodes, &kept) {
        // Vanishingly rare; a different stream of the same seed keeps
        // the generator total and deterministic.
        return cold_mesh3d(sub_seed(seed, u64::MAX), g);
    }
    let mut fp_bytes = Vec::with_capacity(kept.len() * 8);
    for &(a, b) in &kept {
        fp_bytes.extend_from_slice(&(a as u32).to_le_bytes());
        fp_bytes.extend_from_slice(&(b as u32).to_le_bytes());
    }
    GenDeck {
        text: mesh_deck_with(nodes, &kept, &GridDeckOptions::default()),
        n: mesh_unknowns(nodes, kept.len()),
        probe: format!("v(m{})", nodes - 1),
        pattern_fp: fnv1a(&fp_bytes),
    }
}

fn connected(nodes: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![Vec::new(); nodes];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut seen = vec![false; nodes];
    let mut stack = vec![0];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count == nodes
}

/// The shipped HDL-A decks the served mix resubmits.
pub const SHIPPED: [(&str, &str); 3] = [
    (
        "eletran_transient",
        include_str!("../../examples/decks/eletran_transient.cir"),
    ),
    (
        "relay_pull_in",
        include_str!("../../examples/decks/relay_pull_in.cir"),
    ),
    (
        "speaker_ac",
        include_str!("../../examples/decks/speaker_ac.cir"),
    ),
];

/// One served deck: a shipped deck with a seeded `.STEP` card.
/// `variant` 0 is the resubmitted base; any other value is a fresh
/// fingerprint of the same circuit (a distinct title line), which
/// the server must parse, elaborate and HDL-compile from scratch.
pub fn served_deck(seed: u64, base: usize, variant: u64) -> String {
    let (name, text) = SHIPPED[base];
    let mut rng = Rng::new(sub_seed(seed, base as u64));
    // Parameter ranges stay inside each device's working region
    // (below pull-in for the relay).
    let step = match name {
        "eletran_transient" => {
            let v: Vec<String> = (0..3)
                .map(|_| format!("{:.3}", 8.0 + 4.0 * rng.unit()))
                .collect();
            format!(".STEP PARAM vbias LIST {}", v.join(" "))
        }
        "relay_pull_in" => {
            let v: Vec<String> = (0..4)
                .map(|_| format!("{:.3}", 6.0 + 3.0 * rng.unit()))
                .collect();
            format!(".STEP PARAM k LIST {}", v.join(" "))
        }
        _ => {
            let v: Vec<String> = (0..4)
                .map(|_| format!("{:.1}", 450.0 + 300.0 * rng.unit()))
                .collect();
            format!(".STEP PARAM kcone LIST {}", v.join(" "))
        }
    };
    let mut out = String::with_capacity(text.len() + 96);
    if variant == 0 {
        let _ = writeln!(out, "* served {name} seed {seed}");
    } else {
        let _ = writeln!(out, "* served {name} seed {seed} variant {variant}");
    }
    for line in text.lines() {
        if line.trim().eq_ignore_ascii_case(".end") {
            let _ = writeln!(out, "{step}");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// What one served op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Resubmit a base deck (artifact-cache hit).
    Resubmit(usize),
    /// Submit a never-seen fingerprint of a base deck.
    Fresh(usize),
    /// Re-read the results of an older, evicted job.
    Reread,
}

/// One block of the served mix, in seeded order: 3 re-reads, 6 fresh
/// submits and 15 resubmits in 24 ops (the 1 in 8 and 1 in 4 shares
/// the workload specifies; no request log backs them), with every
/// submit kind split evenly over the three shipped decks. Each client
/// runs block after block, so every share holds exactly in each block
/// instead of drifting from run to run as independent draws would:
/// the decks' latencies differ by about 10×, and a share that drifts
/// moves the medians between latency modes.
pub fn serve_block(rng: &mut Rng) -> Vec<ServeOp> {
    let mut block = vec![ServeOp::Reread; 3];
    for base in 0..SHIPPED.len() {
        block.extend([ServeOp::Fresh(base); 2]);
        block.extend([ServeOp::Resubmit(base); 5]);
    }
    for i in (1..block.len()).rev() {
        block.swap(i, rng.below(i + 1));
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(tran_grid(7, 4, 4).text, tran_grid(7, 4, 4).text);
        assert_ne!(tran_grid(7, 4, 4).text, tran_grid(8, 4, 4).text);
        assert_eq!(cold_mesh3d(7, 5).text, cold_mesh3d(7, 5).text);
        assert_eq!(served_deck(7, 0, 3), served_deck(7, 0, 3));
        assert_ne!(served_deck(7, 0, 0), served_deck(7, 0, 3));
        assert_eq!(serve_block(&mut Rng::new(7)), serve_block(&mut Rng::new(7)));
    }

    #[test]
    fn serve_blocks_hold_the_mix_shares() {
        let mut rng = Rng::new(5);
        for _ in 0..4 {
            let block = serve_block(&mut rng);
            let count = |op: ServeOp| block.iter().filter(|&&b| b == op).count();
            assert_eq!(count(ServeOp::Reread), 3);
            for base in 0..SHIPPED.len() {
                assert_eq!(count(ServeOp::Fresh(base)), 2);
                assert_eq!(count(ServeOp::Resubmit(base)), 5);
            }
        }
    }

    #[test]
    fn cold_mesh_ops_have_distinct_patterns() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..20 {
            assert!(seen.insert(cold_mesh3d(sub_seed(11, k), 8).pattern_fp));
        }
    }

    #[test]
    fn unknown_counts_match_elaboration() {
        for deck in [tran_grid(3, 3, 4), cold_mesh3d(3, 4)] {
            let parsed = mems_netlist::Deck::parse(&deck.text).expect("parses");
            let elab = mems_netlist::Elaborator::new(&parsed).expect("elaborates");
            let (mut ckt, _) = elab.build(&Default::default(), None).expect("builds");
            assert_eq!(ckt.layout().n_unknowns, deck.n);
        }
    }

    #[test]
    fn reference_solver_swap_applies() {
        let deck = tran_grid(1, 3, 3).text;
        assert!(with_reference_solver(&deck).contains("order=nd factor=scalar"));
    }
}
