//! The repository benchmark. One command runs one workload for a fixed
//! time, checks every answer, and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) with its unit; the last line of
//! standard output is the JSON result, whose `correct` field says whether
//! every check passed. See README.md.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-tier1 --seed 0 --seconds 25 --trace 0
//! ```

mod batch;
mod config;
mod inputs;
mod mirror;
mod output;
mod serve;
mod stats;
mod sys;
mod trace;

use batch::Batch;
use output::Output;

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 0, seconds: 25.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Output::default();
    let batch = match args.workload.as_str() {
        "suite-tier1" => Some(Batch::SuiteTier1),
        "suite-cascade" => Some(Batch::SuiteCascade),
        "chain-suite" => Some(Batch::ChainSuite),
        "serve-mixed" => None,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    match (batch, args.trace) {
        (Some(b), false) => batch::run(b, seed, seconds, &mut out),
        (Some(b), true) => trace::run_batch(b, seed, seconds, &mut out),
        (None, false) => serve::run(seed, seconds, &mut out),
        (None, true) => trace::run_serve(seed, seconds, &mut out),
    }
    out.print();
}
