//! End-to-end benchmark of the Alaska reproduction: three workloads driven
//! through the public APIs of `alaska-kvstore`, `alaska-runtime`,
//! `alaska-anchorage` and `alaska-heap`.  See `README.md` beside this crate
//! for why each workload was chosen and how steady each metric is.
//!
//! ```text
//! perfbench --workload <kv-hot-read|kv-churn-defrag|redis-lru-frag>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
//! the run record.  The exit code is non-zero when an output check or a
//! layer-separation self-check fails.

mod churn;
mod hot_read;
mod ledger;
mod redis_lru;
mod report;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <kv-hot-read|kv-churn-defrag|redis-lru-frag> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

/// Validated command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(num()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing or out-of-range --seconds")?,
        trace: trace.ok_or("missing or invalid --trace (0 or 1)")?,
    })
}

/// Write the traced run's spans under `perfbench/traces/` and note the path.
pub fn write_trace(report: &mut report::Report, tracer: &trace::Tracer, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note("trace_file", path.display()),
        Err(e) => report.note("trace_file", format!("not written: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures what users get: an `ALASKA_*` override (defrag
    // workers, magazine sizing, failpoints) would measure something else.
    if let Some((var, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ALASKA_"))
    {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every ALASKA_* variable",
            var.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "kv-hot-read" => hot_read::run(&args),
        "kv-churn-defrag" => churn::run(&args),
        "redis-lru-frag" => redis_lru::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload kv-hot-read --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("kv-hot-read", 7, 10, true));
        assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --seconds 5").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
