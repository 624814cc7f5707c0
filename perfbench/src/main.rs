//! End-to-end and per-layer benchmark of the Insum stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_kernels|oneshot_mix|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `--seed`; every output is checked against an oracle
//! computed in setup. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads and what
//! each layer metric is expected to move.

mod closed;
mod inputs;
mod oneshot;
mod oracle;
mod paper;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, E2E, LAYERS};
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_kernels|oneshot_mix|serve_mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// `reps` set-ups, the first half before `measure` and the rest after
/// it; `measure` runs on the last state built before it. The host's
/// speed swings by about half over a few seconds, so set-ups taken back
/// to back land in one regime; taken at both ends of the run, their
/// median sees more than one. Each set-up returns its seconds and its
/// state; the median seconds, that state and the measurement come back.
pub fn around_setups<T, R>(
    reps: usize,
    mut setup: impl FnMut() -> Result<(f64, T), String>,
    measure: impl FnOnce(&T) -> Result<R, String>,
) -> Result<(f64, T, R), String> {
    let before = reps.div_ceil(2).max(1);
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..before {
        let (s, t) = setup()?;
        times.push(s);
        state = Some(t);
    }
    let state = state.ok_or("no set-up ran")?;
    let measured = measure(&state)?;
    for _ in before..reps {
        times.push(setup()?.0);
    }
    Ok((stats::median(&times), state, measured))
}

/// Empty the process-wide program and autotune caches, so the next
/// compile is cold.
pub fn clear_caches() {
    insum_inductor::ProgramCache::global().clear();
    insum_inductor::AutotuneCache::global().clear();
}

/// Seconds of one cold compile of each of `artifacts` artifacts, with
/// the caches cleared before each.
pub fn cold_pass(
    artifacts: usize,
    mut compile: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let mut pass = 0.0;
    for i in 0..artifacts {
        clear_caches();
        let start = Instant::now();
        compile(i)?;
        pass += start.elapsed().as_secs_f64();
    }
    Ok(pass)
}

/// Share of the passes dropped at each end before `compile_s` averages
/// the rest: a pass that shared the host with a stall says nothing
/// about the compiler.
const COMPILE_TRIM: f64 = 0.1;

/// `compile_s` from cold passes over every artifact: their mean with
/// the highest and lowest tenth dropped. The host's speed swings by
/// about half over seconds, so a median of passes would jump between
/// its regimes; a mean moves with their mix.
pub fn compile_s(passes: &[f64]) -> Result<f64, String> {
    if passes.is_empty() {
        return Err("the run was too short for a compile pass".to_string());
    }
    Ok(stats::trimmed_mean(passes, COMPILE_TRIM))
}

/// Where a traced run writes its spans.
fn span_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable(Instant::now());
    }
    let result: Result<Report, String> = match args.workload.as_str() {
        "paper_kernels" => paper::run(&args),
        "oneshot_mix" => oneshot::run(&args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report.set("peak_rss_mb", report::peak_rss_mb());
    let catalogue = if args.trace { LAYERS } else { E2E };
    let missing = report.missing(catalogue);
    if !missing.is_empty() {
        eprintln!("perfbench: {} did not report {missing:?}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        let path = span_path(&args);
        match trace::write_jsonl(&path, &trace::take()) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    for line in &report.notes {
        println!("# {line}");
    }
    println!("{}", report.json(catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload oneshot_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "oneshot_mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
    }

    #[test]
    fn setups_run_on_both_sides_of_the_phase() {
        let mut n = 0.0;
        let got = around_setups(
            4,
            || {
                n += 1.0;
                Ok((n * 10.0, n))
            },
            |&state| Ok(state * 100.0),
        )
        .unwrap();
        // Set-ups 1 and 2 ran before the phase, which saw the second
        // state; 3 and 4 after it.
        assert_eq!(n, 4.0);
        assert_eq!(got, (20.0, 2.0, 200.0));
    }

    #[test]
    fn compile_time_needs_a_pass() {
        assert!(compile_s(&[]).is_err());
        assert_eq!(compile_s(&[1.0, 3.0]), Ok(2.0));
    }
}
