//! Repository benchmark for the hotspot-detection stack.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gen-suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded workload from outside the program, through the
//! crates' public API, checks the program's outputs, and prints a
//! readable report followed by one JSON result line. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` instead replays every
//! layer of the stack under spans and prints the per-layer metrics.
//! See `benchmark/README.md` for the workloads and metrics.

mod generate;
mod host;
mod profile;
mod report;
mod scan;
mod serve;
mod setup;
mod stats;
mod trace;
mod train;

use report::Report;
use std::fmt;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GenSuite,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::GenSuite, Workload::ServeOpen];

    fn name(self) -> &'static str {
        match self {
            Workload::GenSuite => "gen-suite",
            Workload::ServeOpen => "serve-open",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
    MissingValue(String),
    UnknownFlag(String),
    MissingWorkload,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownWorkload(w) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload {w:?} (one of {})", names.join(", "))
            }
            UsageError::BadSeed(s) => write!(f, "--seed takes an unsigned integer, got {s:?}"),
            UsageError::BadSeconds(s) => {
                write!(f, "--seconds takes a positive whole number, got {s:?}")
            }
            UsageError::BadTrace(s) => write!(f, "--trace takes 0 or 1, got {s:?}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            UsageError::UnknownFlag(flag) => write!(f, "unknown argument {flag:?}"),
            UsageError::MissingWorkload => write!(f, "--workload is required"),
        }
    }
}

const USAGE: &str =
    "usage: hotspot-perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]";

pub fn parse_args(argv: &[String]) -> Result<Args, UsageError> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| UsageError::MissingValue(flag.clone()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| UsageError::UnknownWorkload(v.clone()))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| UsageError::BadSeed(v.clone()))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<u32>() {
                    Ok(s) if s > 0 => f64::from(s),
                    _ => return Err(UsageError::BadSeconds(v.clone())),
                };
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(UsageError::BadTrace(v.clone())),
                };
            }
            _ => return Err(UsageError::UnknownFlag(flag.clone())),
        }
    }
    Ok(Args {
        workload: workload.ok_or(UsageError::MissingWorkload)?,
        seed,
        seconds,
        trace,
    })
}

/// Runs `op` repeatedly for `seconds` of wall time (at least `min_ops`
/// times) and returns each operation's seconds and whether its output
/// check passed.
pub fn timed_ops(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> (f64, bool),
) -> (Vec<f64>, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut failed = 0;
    while times.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (secs, ok) = op(times.len());
        times.push(secs);
        failed += usize::from(!ok);
    }
    (times, failed)
}

/// Runs `setup` [`SETUPS`] times and reports `setup_s`: the median
/// set-up's CPU time, scaled by a run of the reference kernel right after
/// it, as the throughput metrics are (see `host`). Keeps the last result;
/// each earlier one is handed to `retire` (unmeasured) once the next
/// set-up is done.
pub fn repeated_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut(usize) -> T,
    mut retire: impl FnMut(T),
) -> T {
    let reference = host::Reference::default();
    let (mut wall, mut adjusted) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUPS {
        let (t, cpu) = (Instant::now(), host::process_cpu_s());
        let next = setup(i);
        wall.push(t.elapsed().as_secs_f64());
        let cpu_s = host::process_cpu_s() - cpu;
        adjusted.push(host::adjust(cpu_s, reference.cpu_ms()));
        if let Some(previous) = last.replace(next) {
            retire(previous);
        }
    }
    report.phase("setup", SETUPS, 0);
    report.metric(
        "setup_s",
        "s",
        stats::median(&adjusted).expect("SETUPS > 0"),
        SETUPS,
        format!(
            "median of {SETUPS} set-ups, CPU time scaled to a {} ms reference: {adjusted:.3?}; \
             wall-clock {wall:.3?}",
            host::REFERENCE_MS
        ),
    );
    last.expect("SETUPS > 0")
}

/// Median, quartiles and tail of the timed operations' latencies, for
/// the readable report. They are not bounded metrics: on a shared host
/// the serving latencies spread far more across runs than any bound
/// could allow, and for suite builds the median is already the
/// denominator of the unadjusted throughput.
pub fn latency_notes(report: &mut Report, latencies_ms: &[f64], what: &str) {
    let n = latencies_ms.len();
    let median = stats::median(latencies_ms).expect("at least one timed operation");
    let tail = stats::tail(latencies_ms).expect("at least one timed operation");
    let quartiles = stats::quartiles(latencies_ms).map_or_else(String::new, |(q1, q3)| {
        format!(", quartiles {q1:.3}..{q3:.3}")
    });
    let label = if tail.percentile >= 100.0 {
        "slowest".to_string()
    } else {
        format!("p{} ({} beyond)", tail.percentile, tail.beyond)
    };
    report.note(format!(
        "latency per {what}: median {median:.3} ms{quartiles}, {label} {:.3} ms, {n} samples",
        tail.value
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::HostStart::take();
    let mut report = Report::default();
    report.note(format!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    if args.trace {
        profile::run(&args, &mut report);
    } else {
        match args.workload {
            Workload::GenSuite => generate::run(&args, &mut report),
            Workload::ServeOpen => serve::run(&args, &mut report),
        }
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        report.metric("peak_rss_mb", "MiB", rss, 1, "VmHWM at exit");
    }
    let stamp = host.finish();
    report.note(format!(
        "host: nproc {}, gemm backend {}, reference {:.3} ms at start / {:.3} ms at end, steal {:.4}",
        stamp.nproc,
        stamp.backend,
        stamp.reference_start_ms,
        stamp.reference_end_ms,
        stamp.steal_frac
    ));
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_every_flag() {
        let a = parse_args(&argv(
            "--workload serve-open --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn unknown_workload_and_bad_seed_are_usage_errors() {
        assert_eq!(
            parse_args(&argv("--workload scan-cascade --seed 1")),
            Err(UsageError::UnknownWorkload("scan-cascade".into()))
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --seed -3")),
            Err(UsageError::BadSeed("-3".into()))
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --seed 1x")),
            Err(UsageError::BadSeed("1x".into()))
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --seed")),
            Err(UsageError::MissingValue("--seed".into()))
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --trace 2")),
            Err(UsageError::BadTrace("2".into()))
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --seconds 0")),
            Err(UsageError::BadSeconds("0".into()))
        );
        assert_eq!(
            parse_args(&argv("--seed 1")),
            Err(UsageError::MissingWorkload)
        );
        assert_eq!(
            parse_args(&argv("--workload gen-suite --fast")),
            Err(UsageError::UnknownFlag("--fast".into()))
        );
    }
}
