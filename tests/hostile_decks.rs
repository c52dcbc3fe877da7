//! Hostile decks through the built `mems` binary: a source that
//! evaluates to NaN, or nesting deep enough to exhaust the stack of a
//! recursive pass, must end in a diagnostic and exit status 1 — never
//! in a NaN result reported as success, a panic or a stack overflow.

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

/// The diagnostic every NaN deck below must end in.
const NAN_DIAGNOSTIC: &str = "non-finite residual in row i(v1,0)";

/// Writes `src` to a temp dir and asserts each of `commands` exits 1
/// with every `expected` fragment on stderr and no panic or overflow.
fn assert_fails_cleanly(name: &str, src: &str, commands: &[&str], expected: &[&str]) {
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
        // Deep-nesting excerpts echo very long lines; keep failures
        // readable.
        let tail = &stderr[stderr.len().saturating_sub(400)..];
        assert_eq!(out.status.code(), Some(1), "{what}: stderr …{tail}");
        assert!(!stderr.contains("panicked"), "{what}: …{tail}");
        assert!(!stderr.contains("overflowed"), "{what}: …{tail}");
        for fragment in expected {
            assert!(
                stderr.contains(fragment),
                "{what}: no `{fragment}` in …{tail}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Newton used to accept the NaN iterate as converged and print it.
#[test]
fn nan_source_fails_the_operating_point() {
    let src = format!("nan op\n{NAN_SOURCE}R1 in 0 1k\n.op\n");
    assert_fails_cleanly("nan_op", &src, &["run"], &[NAN_DIAGNOSTIC]);
}

/// ... and print a NaN waveform.
#[test]
fn nan_source_fails_the_transient() {
    let src = format!("nan tran\n{NAN_SOURCE}R1 in 0 1k\n.tran 1m 3m\n");
    assert_fails_cleanly("nan_tran", &src, &["run"], &[NAN_DIAGNOSTIC]);
}

/// Two sources in parallel are singular; the singular-row report used
/// to sort NaN row scales and panic.
#[test]
fn nan_source_in_a_singular_circuit_fails_cleanly() {
    let src = format!("nan singular\n{NAN_SOURCE}V2 in 0 1\n.op\n");
    assert_fails_cleanly("nan_singular", &src, &["run"], &[NAN_DIAGNOSTIC]);
}

/// A `table1d` lookup used to panic on the NaN abscissa.
#[test]
fn nan_source_behind_a_table_lookup_fails_cleanly() {
    let src =
        format!("nan table\n{TABLE_BLOCK}{NAN_SOURCE}R1 in 0 1k\nX1 in 0 shaper\n.tran 1m 3m\n");
    assert_fails_cleanly("nan_table", &src, &["run"], &[NAN_DIAGNOSTIC]);
}

/// The sweep's metric extraction used to take the peak of a NaN trace
/// and abort the whole batch; now the one point fails and the command
/// reports it.
#[test]
fn nan_point_of_a_sweep_fails_cleanly() {
    let src = "nan step\n.param f=1e308\nV1 in 0 SIN(0 1 {f})\nR1 in 0 1k\n.tran 1m 3m\n\
               .step param f LIST 1e308 1e3\n";
    assert_fails_cleanly("nan_step", src, &["run", "sweep"], &[NAN_DIAGNOSTIC]);
}

/// A deck whose `.HDL` block runs `init` as its `init` program
/// (from line 10 of the block, where `k` is declared) and instantiates
/// the entity once.
fn hdl_init_deck(init: &str) -> String {
    format!(
        "deep hdl\n.HDL\nENTITY deep IS\n  GENERIC (g : analog := 1.0);\n  \
         PIN (p, q : electrical);\nEND ENTITY deep;\nARCHITECTURE a OF deep IS\n\
         VARIABLE k : analog;\nBEGIN\n  RELATION\n    PROCEDURAL FOR init =>\n\
         {init}\n    PROCEDURAL FOR dc, ac, transient =>\n      \
         [p, q].i %= k * [p, q].v;\n  END RELATION;\nEND ARCHITECTURE a;\n.ENDHDL\n\
         V1 in 0 1\nX1 in 0 deep\n.op\n"
    )
}

/// A deck defining `.param a={<expr>}` on line 2.
fn param_deck(expr: &str) -> String {
    format!("deep param\n.param a={{{expr}}}\nV1 in 0 {{a}}\nR1 in 0 1k\n.op\n")
}

/// `k := <expr>;` for [`hdl_init_deck`].
fn assign(expr: &str) -> String {
    format!("      k := {expr};")
}

/// `levels` nested `IF`s around `k := g;` for [`hdl_init_deck`].
fn nested_ifs(levels: usize) -> String {
    let open = "IF g > 0.0 THEN\n".repeat(levels);
    format!("{open}k := g;\n{}", "END IF;\n".repeat(levels))
}

/// Nesting past the parsers' fixed depth used to overflow the stack
/// of the recursive-descent parsers (exit 134).
#[test]
fn deeply_nested_expressions_fail_cleanly() {
    let nested = |n: usize, leaf: &str| format!("{}{leaf}{}", "(".repeat(n), ")".repeat(n));
    // The parsers stop at the 257th level: the 257th parenthesis
    // after `      k := ` (HDL block line 10), the condition of the
    // 256th `IF` (its own level plus the condition's), and the 256th
    // parenthesis or sign inside the braces of `.param a={` (deck
    // line 2), the brace being the first level.
    let cases = [
        (
            "hdl_parens",
            hdl_init_deck(&assign(&nested(5_000, "g"))),
            "(line 10, col 268)",
        ),
        (
            "hdl_ifs",
            hdl_init_deck(&nested_ifs(20_000)),
            "(line 265, col 4)",
        ),
        (
            "param_parens",
            param_deck(&nested(20_000, "1")),
            "(line 2, col 266)",
        ),
        (
            "param_minus",
            param_deck(&format!("{}1", "-".repeat(50_000))),
            "(line 2, col 266)",
        ),
    ];
    for (name, src, at) in cases {
        let expected = ["nesting deeper than 256 levels", at];
        assert_fails_cleanly(name, &src, &["check", "run"], &expected);
    }
}

/// A left-associative chain builds a tree as deep as it is long, which
/// used to overflow the passes that walk it after parsing.
#[test]
fn long_operator_chains_fail_cleanly() {
    let sum = |leaf: &str| vec![leaf; 50_000].join("+");
    let cases = [
        ("hdl_sum", hdl_init_deck(&assign(&sum("g")))),
        ("param_sum", param_deck(&sum("1"))),
    ];
    for (name, src) in cases {
        let expected = ["nesting deeper than 256 levels", "(line "];
        assert_fails_cleanly(name, &src, &["check", "run"], &expected);
    }
}

/// A chain of `levels` distinct subcircuits, each instantiating the
/// next, under one top-level `X` card.
fn hierarchy_deck(levels: usize) -> String {
    let mut src = String::from("deep hierarchy\nV1 in 0 1\nX1 in 0 c0\n.op\n");
    for i in 0..levels {
        let body = if i + 1 < levels {
            format!("X1 a b c{}", i + 1)
        } else {
            "R1 a b 1k".to_string()
        };
        src.push_str(&format!(".SUBCKT c{i} a b\n{body}\n.ENDS\n"));
    }
    src
}

/// The chain used to overflow the elaborator's hierarchy walk.
#[test]
fn deep_subcircuit_hierarchy_fails_cleanly() {
    // The X card inside `c255` (line 4 + 3·255 + 2) is the 257th level.
    let expected = [
        "subcircuit hierarchy deeper than 256 levels",
        "(line 771, col 1)",
    ];
    let src = hierarchy_deck(20_000);
    assert_fails_cleanly("hierarchy", &src, &["check", "run"], &expected);
}

/// Decks exactly at each limit check and run.
#[test]
fn nesting_up_to_the_limits_checks_and_runs() {
    let nested = |n: usize, leaf: &str| format!("{}{leaf}{}", "(".repeat(n), ")".repeat(n));
    let sum = |n: usize, leaf: &str| vec![leaf; n].join("+");
    let cases = [
        ("hdl_parens", hdl_init_deck(&assign(&nested(255, "g")))),
        ("hdl_sum", hdl_init_deck(&assign(&sum(256, "g")))),
        ("hdl_ifs", hdl_init_deck(&nested_ifs(255))),
        ("param_parens", param_deck(&nested(254, "1"))),
        ("param_minus", param_deck(&format!("{}1", "-".repeat(254)))),
        ("param_sum", param_deck(&sum(255, "1"))),
        ("hierarchy", hierarchy_deck(256)),
    ];
    let dir = std::env::temp_dir().join(format!("mems-at-limit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src) in cases {
        let deck = dir.join(format!("{name}.cir"));
        std::fs::write(&deck, src).unwrap();
        for command in ["check", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mems"))
                .arg(command)
                .arg(&deck)
                .output()
                .expect("mems runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail = &stderr[stderr.len().saturating_sub(400)..];
            assert_eq!(out.status.code(), Some(0), "mems {command} {name}: …{tail}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
