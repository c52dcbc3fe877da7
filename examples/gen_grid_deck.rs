//! Regenerates `examples/decks/grid_cells.cir` /
//! `examples/decks/grid3d_cells.cir` (or any other size of the meshed
//! scale-tier decks) from the grid generators:
//!
//! ```sh
//! cargo run --example gen_grid_deck -- 4 4 > examples/decks/grid_cells.cir
//! cargo run --example gen_grid_deck -- 18 19       # the ~1600-unknown tier
//! cargo run --example gen_grid_deck -- --3d 3 3 3 > examples/decks/grid3d_cells.cir
//! cargo run --example gen_grid_deck -- --3d 10    # cube, the ~7000-unknown tier
//! cargo run --example gen_grid_deck -- --tran 8 8  # pulse-driven .TRAN, no .AC/.STEP
//! ```

use mems::netlist::gen::{grid3d_deck_with, grid_deck_with, GridDeckOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let three_d = args.iter().any(|a| a == "--3d");
    let tran = args.iter().any(|a| a == "--tran");
    if let Some(bad) = args
        .iter()
        .find(|a| !matches!(a.as_str(), "--3d" | "--tran") && a.parse::<usize>().is_err())
    {
        eprintln!("unknown argument `{bad}`\nusage: gen_grid_deck [--3d] [--tran] [DIM...]");
        std::process::exit(2);
    }
    let dims: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let opts = GridDeckOptions {
        options: "sparse=1".into(),
        ac: !tran,
        tran,
        step_points: if tran { 0 } else { 5 },
    };
    if three_d {
        let nx = dims.first().copied().unwrap_or(3).max(1);
        let ny = dims.get(1).copied().unwrap_or(nx).max(1);
        let nz = dims.get(2).copied().unwrap_or(ny).max(2);
        print!("{}", grid3d_deck_with(nx, ny, nz, &opts));
    } else {
        let rows = dims.first().copied().unwrap_or(4).max(1);
        let cols = dims.get(1).copied().unwrap_or(4).max(2);
        print!("{}", grid_deck_with(rows, cols, &opts));
    }
}
