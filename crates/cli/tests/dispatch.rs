//! Top-level dispatch tests: command routing, help, and error paths.

fn dispatch(s: &str) -> Result<String, mpil_cli::CliError> {
    mpil_cli::dispatch(s.split_whitespace().map(String::from))
}

#[test]
fn no_args_prints_usage() {
    let out = mpil_cli::dispatch(std::iter::empty::<String>()).expect("usage");
    assert!(out.contains("USAGE"));
    assert!(out.contains("perturb"));
}

#[test]
fn help_variants_print_usage() {
    for h in ["help", "--help", "-h"] {
        assert!(dispatch(h).expect("usage").contains("mpilctl"));
    }
}

#[test]
fn unknown_command_errors_with_hint() {
    let err = dispatch("frobnicate").expect_err("must fail");
    assert!(err.to_string().contains("frobnicate"));
    assert!(err.to_string().contains("help"));
}

#[test]
fn overlay_command_routes() {
    let out = dispatch("overlay --family random --nodes 100 --degree 8").expect("ok");
    assert!(out.contains("100 nodes"));
}

#[test]
fn analyze_command_routes() {
    let out = dispatch("analyze --what local-maxima --nodes 4000 --degree 10").expect("ok");
    // Figure 7's leftmost point: ≈299 for N=4000, d=10.
    assert!(out.contains("299"), "got:\n{out}");
}

#[test]
fn simulate_command_routes() {
    let out = dispatch("simulate --family random --nodes 150 --degree 10 --ops 10").expect("ok");
    assert!(out.contains("lookup success"));
}

#[test]
fn errors_from_subcommands_propagate() {
    assert!(dispatch("overlay --family banana").is_err());
    assert!(dispatch("analyze --what banana").is_err());
    assert!(dispatch("perturb --system banana").is_err());
}

/// Every command refuses, with the flag named, what it cannot read as
/// written — before it generates, simulates, spawns or binds anything.
#[test]
fn every_command_refuses_a_flag_it_cannot_read() {
    let commands = [
        "overlay",
        "analyze",
        "simulate",
        "perturb",
        "sweep",
        "serve",
        "load --embedded",
    ];
    for command in commands {
        for (flags, named) in [
            ("--nodse 50", "unknown flag --nodse"),
            ("--nodes many", "--nodes \"many\""),
            ("--nodes", "--nodes needs a value"),
        ] {
            let line = format!("{command} {flags}");
            let err = dispatch(&line).expect_err(&line);
            assert!(err.to_string().contains(named), "{line}: {err}");
        }
    }
    // A value that parses but names no run: refused before any worker
    // starts, not a panic deep in the simulator.
    for command in ["perturb", "sweep"] {
        for (flags, named) in [
            ("--p 2", "--p \"2\""),
            ("--p -0.5", "--p \"-0.5\""),
            ("--p NaN", "--p \"NaN\""),
            ("--p 0.5 --loss 3", "--loss \"3\""),
            ("--system pastry --nodes 0 --p 0.5", "--nodes \"0\""),
            // A flapping period the simulator cannot run: none at all,
            // one past its phase encoding, one past its clock.
            ("--idle 0 --offline 0", "--idle 0 --offline 0"),
            ("--idle 10000000000000", "--idle \"10000000000000\""),
            ("--idle 100000000000000", "--idle \"100000000000000\""),
            ("--offline 100000000000000", "--offline \"100000000000000\""),
            // No deadline at all: every lookup would be due as issued.
            ("--deadline 0", "--deadline \"0\""),
            (
                "--deadline 100000000000000",
                "--deadline \"100000000000000\"",
            ),
        ] {
            let line = format!("{command} --ops 5 {flags}");
            let err = dispatch(&line).expect_err(&line);
            assert!(err.to_string().contains(named), "{line}: {err}");
        }
    }
    // Nor is an overlay of no nodes, or a complete one of one node.
    for line in [
        "overlay --family pastry --nodes 0",
        "overlay --family chord --nodes 0",
        "overlay --family kademlia --nodes 0",
        "overlay --family powerlaw --nodes 0",
        "analyze --what replicas --nodes 0",
        "analyze --what replicas --nodes 1",
    ] {
        let err = dispatch(line).expect_err(line);
        let named = format!("--nodes \"{}\"", &line[line.len() - 1..]);
        assert!(err.to_string().contains(&named), "{line}: {err}");
    }
    // No operations is no run either; nor are more periods than the
    // simulated clock holds.
    for command in ["simulate", "perturb", "sweep"] {
        let line = format!("{command} --ops 0");
        let err = dispatch(&line).expect_err(&line);
        assert!(err.to_string().contains("--ops \"0\""), "{line}: {err}");
    }
    for command in ["perturb", "sweep"] {
        let line = format!("{command} --ops 1000000 --idle 3000000000 --offline 3000000000");
        let err = dispatch(&line).expect_err(&line);
        assert!(err.to_string().contains("--ops 1000000"), "{line}: {err}");
    }
    // A load that would never end, a churn length its frame cannot
    // carry, a daemon that times out every request.
    for (line, named) in [
        (
            "load --embedded --churn-period-ms 0",
            "--churn-period-ms \"0\"",
        ),
        (
            "load --embedded --churn-length-ms 4294967296",
            "--churn-length-ms \"4294967296\"",
        ),
        ("load --embedded --timeout-ms 0", "--timeout-ms \"0\""),
        ("serve --timeout-ms 0", "--timeout-ms \"0\""),
    ] {
        let err = dispatch(line).expect_err(line);
        assert!(err.to_string().contains(named), "{line}: {err}");
    }
}
