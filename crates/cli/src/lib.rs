//! # mpil-cli
//!
//! Implementation of `mpilctl`, the command-line driver of the MPIL
//! reproduction. Each subcommand is a plain function from parsed
//! arguments to a rendered [`String`], so the whole surface is testable
//! without spawning processes:
//!
//! ```text
//! mpilctl overlay  --family powerlaw --nodes 4000 [--degree D] [--seed S]
//! mpilctl analyze  --what local-maxima --nodes 16000 --degree 50
//! mpilctl analyze  --what replicas --nodes 8000
//! mpilctl simulate --family regular --nodes 1000 --ops 100 [--max-flows 10] [--replicas 5]
//! mpilctl perturb  --system mpil --nodes 300 --ops 50 --idle 30 --offline 30 --p 0.5 [--loss 0.1]
//! mpilctl serve    --port P --nodes 48 --spares 4 [--udp]
//! mpilctl load     --embedded --objects 100 --lookups 500 [--rate R]
//! ```
//!
//! Run `mpilctl help` for the same synopsis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod commands;

use mpil_harness::{EngineSpec, OverlaySource};
use mpil_workload::Args;

/// A subcommand failure, rendered to stderr by `main`.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// A flag refusal ([`Args::try_value`], [`Args::finish`]) is a
/// [`CliError`] as it stands.
impl From<String> for CliError {
    fn from(why: String) -> Self {
        CliError(why)
    }
}

/// The synopsis printed by `mpilctl help`; the systems and overlay
/// families it lists are the harness's name tables
/// ([`EngineSpec::systems`], [`OverlaySource::NAMES`]).
pub fn usage() -> String {
    let systems: Vec<String> = EngineSpec::systems().map(|(name, _)| name).collect();
    let systems: Vec<String> = systems.chunks(9).map(|row| row.join(" ")).collect();
    let families: Vec<&str> = OverlaySource::NAMES.iter().map(|row| row.0).collect();
    format!(
        "\
mpilctl — MPIL resource discovery toolkit

USAGE:
  mpilctl <command> [--key value]...

COMMANDS:
  overlay   generate an overlay and print its statistics
            --family FAMILY --nodes N [--degree D] [--seed S]
  analyze   closed-form expectations from the paper's Section 5
            --what local-maxima --nodes N --degree D [--base4|--base16]
            --what replicas --nodes N
  simulate  one static insert/lookup campaign (paper Section 6.1) on a
            generated family (regular, powerlaw, complete)
            --family FAMILY --nodes N --ops K
            [--degree D] [--max-flows F] [--replicas R] [--no-ds] [--seed S]
  perturb   one perturbation run (paper Sections 3/6.2)
            --system SYSTEM --nodes N --ops K --idle S --offline S --p P
            [--loss L] [--seed S]
  sweep     one perturbation scenario across many seeds, one worker per core
            (same flags as perturb) [--seeds K] [--json]
  serve     run the mpild daemon in the foreground (control on loopback UDP);
            the mpild binary's code and flags, `serve --help` lists them all
            [--port P] [--nodes N] [--degree D] [--spares S] [--seed K] [--udp]
            [--max-flows F] [--replicas R] [--no-ds] [--timeout-ms T] [--retries N]
  load      drive a daemon with the insert-then-lookup workload; the mpil-load
            binary's code and flags, `load --help` lists them all
            --addr HOST:PORT [--stop-daemon] | --embedded [--ctrl-udp]
            [--objects N] [--lookups K] [--rate R] [--window W] [--workers C]
            [--churn-period-ms P] [--min-success PCT] [--max-p99-ms MS] [--budget-s S]
  help      print this message

SYSTEM (perturb and sweep --system, default mpil; scale_run --engine):
  {systems}

FAMILY (overlay and simulate --family; --degree D sets regular's degree):
  {families}
",
        systems = systems.join("\n  "),
        families = families.join(" "),
    )
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// [`CliError`] with a user-facing message on unknown commands or
/// invalid parameters.
pub fn dispatch<I: IntoIterator<Item = String>>(args: I) -> Result<String, CliError> {
    let mut iter = args.into_iter();
    let Some(command) = iter.next() else {
        return Ok(usage());
    };
    let rest = Args::parse(iter);
    match command.as_str() {
        "overlay" => commands::overlay::run(&rest),
        "analyze" => commands::analyze::run(&rest),
        "simulate" => commands::simulate::run(&rest),
        "perturb" => commands::perturb::run(&rest),
        "sweep" => commands::sweep::run(&rest),
        "serve" => commands::serve::run(&rest),
        "load" => commands::load::run(&rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError(format!(
            "unknown command {other:?}; run `mpilctl help`"
        ))),
    }
}
