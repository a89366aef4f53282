//! perfbench: one seeded benchmark of driver calls and re-randomization
//! cycles, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ioctl|rerand|blk> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! Standard output ends with a `{"meta": ...}` line (seed, nproc, git
//! revision, build profile) and then the result line: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. The traced run also
//! writes its spans to `<trace-out>/<workload>-seed<n>.jsonl`. A human
//! table goes to standard error. Any failed check exits 1.

mod check;
#[cfg(test)]
mod json;
mod metrics;
mod pin;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Params, Workload};

struct Args {
    params: Params,
    trace_out: std::path::PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = std::path::PathBuf::from("perfbench-out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--trace-out" => trace_out = value.into(),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
        },
        trace_out,
    })
}

/// The revision of the checkout, if it is a git repository (the search
/// stops at the working directory).
fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let p = &args.params;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let outcome = workloads::run(p);

    let list = if p.trace { PER_LAYER } else { END_TO_END };
    for d in list {
        if let Some(v) = outcome.report.get(d.name) {
            eprintln!(
                "{:<40} {v:>14.4} {:<16} {} is better",
                d.name,
                d.unit,
                d.better.word()
            );
        }
    }
    for note in &outcome.notes {
        eprintln!("check failed: {note}");
    }
    if p.trace {
        eprintln!(
            "paper Fig. 9: wrappers ≈4%, wrappers + stack re-randomization ≈10% over vanilla"
        );
        let path = args
            .trace_out
            .join(format!("{}-seed{}.jsonl", p.workload.name(), p.seed));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let line = match outcome.report.render(list) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \"profile\": \"{profile}\"}}}}",
        p.workload.name(),
        p.seed,
        p.window.as_secs_f64(),
        u8::from(p.trace),
        git_revision(),
    );
    println!("{line}");
    if outcome.report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload blk --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.params.workload, Workload::Blk);
        assert_eq!(a.params.seed, 7);
        assert_eq!(a.params.window, Duration::from_secs(10));
        assert!(a.params.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload ioctl --seconds 1").is_err());
        assert!(args("--workload ioctl --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload ioctl --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload ioctl --seed").is_err());
    }
}
