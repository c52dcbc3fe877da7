//! Hostile decks through the built `mems` binary: a source that
//! evaluates to NaN must end in a diagnostic and exit status 1 — never
//! in a NaN result reported as success, and never in a panic.

use std::process::Command;

/// `SIN(0 1 1e308)` evaluates `sin(2π·1e308·0)` = `sin(inf·0)` = NaN
/// at `t = 0`.
const NAN_SOURCE: &str = "V1 in 0 SIN(0 1 1e308)\n";

/// The NaN source behind a table lookup, which used to reach
/// `Pwl1::segment` with a NaN abscissa.
const TABLE_BLOCK: &str = "\
.HDL
ENTITY shaper IS
  PIN (p, q : electrical);
END ENTITY shaper;
ARCHITECTURE a OF shaper IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= table1d([p, q].v, -1.0, -1.0e-3, 0.0, 0.0, 1.0, 1.0e-3);
  END RELATION;
END ARCHITECTURE a;
.ENDHDL
";

/// Writes `src` to a temp dir and asserts each of `commands` exits 1
/// with the NaN diagnostic on stderr and no panic.
fn assert_fails_cleanly(name: &str, src: &str, commands: &[&str]) {
    let dir = std::env::temp_dir().join(format!("mems-hostile-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deck = dir.join(format!("{name}.cir"));
    std::fs::write(&deck, src).unwrap();
    for command in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_mems"))
            .arg(command)
            .arg(&deck)
            .args(["--csv", "-"])
            .output()
            .expect("mems runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("mems {command} {name}");
        assert_eq!(out.status.code(), Some(1), "{what}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains("non-finite residual in row i(v1,0)"),
            "{what}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Newton used to accept the NaN iterate as converged and print it.
#[test]
fn nan_source_fails_the_operating_point() {
    let src = format!("nan op\n{NAN_SOURCE}R1 in 0 1k\n.op\n");
    assert_fails_cleanly("nan_op", &src, &["run"]);
}

/// ... and print a NaN waveform.
#[test]
fn nan_source_fails_the_transient() {
    let src = format!("nan tran\n{NAN_SOURCE}R1 in 0 1k\n.tran 1m 3m\n");
    assert_fails_cleanly("nan_tran", &src, &["run"]);
}

/// Two sources in parallel are singular; the singular-row report used
/// to sort NaN row scales and panic.
#[test]
fn nan_source_in_a_singular_circuit_fails_cleanly() {
    let src = format!("nan singular\n{NAN_SOURCE}V2 in 0 1\n.op\n");
    assert_fails_cleanly("nan_singular", &src, &["run"]);
}

/// A `table1d` lookup used to panic on the NaN abscissa.
#[test]
fn nan_source_behind_a_table_lookup_fails_cleanly() {
    let src =
        format!("nan table\n{TABLE_BLOCK}{NAN_SOURCE}R1 in 0 1k\nX1 in 0 shaper\n.tran 1m 3m\n");
    assert_fails_cleanly("nan_table", &src, &["run"]);
}

/// The sweep's metric extraction used to take the peak of a NaN trace
/// and abort the whole batch; now the one point fails and the command
/// reports it.
#[test]
fn nan_point_of_a_sweep_fails_cleanly() {
    let src = "nan step\n.param f=1e308\nV1 in 0 SIN(0 1 {f})\nR1 in 0 1k\n.tran 1m 3m\n\
               .step param f LIST 1e308 1e3\n";
    assert_fails_cleanly("nan_step", src, &["run", "sweep"]);
}
