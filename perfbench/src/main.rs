//! The repository benchmark. One command runs one named workload from a
//! seed and prints one JSON result line:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload monitor-ticks --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that yields the per-layer metrics and writes its
//! spans to `perfbench/out/`. The exit code is non-zero when any output
//! check fails. See `perfbench/README.md`.

mod alloc;
mod detect;
mod engine_runs;
mod feed;
mod grid;
mod layers;
mod measure;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["monitor-ticks", "churn-bin", "paper-grid"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, tracer: &mut trace::Tracer) -> Result<measure::Report, String> {
    use engine_runs::Kind;
    // The CLI's default worker count (`MEMDOS_THREADS`, else the cores).
    let workers = memdos_runner::threads();
    let kind = match args.workload.as_str() {
        "monitor-ticks" => Kind::MonitorTicks,
        "churn-bin" => Kind::ChurnBin,
        _ => {
            return if args.trace {
                grid::run_traced(args.seed, workers, tracer)
            } else {
                grid::run(args.seed, args.seconds, workers)
            };
        }
    };
    if args.trace {
        engine_runs::run_traced(kind, args.seed, workers, tracer)
    } else {
        engine_runs::run(kind, args.seed, args.seconds)
    }
}

/// Writes the traced run's spans next to the benchmark.
fn write_spans(args: &Args, tracer: &trace::Tracer) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path)?;
    tracer.write_jsonl(std::io::BufWriter::new(file))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let mut report = match run(&args, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match write_spans(&args, &tracer) {
            Ok(path) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => report.check(format!("spans written: {e}"), false),
        }
    }
    for (name, ok) in &report.checks {
        eprintln!(
            "perfbench: check {}: {name}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    for m in &report.metrics {
        eprintln!("perfbench: {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "churn-bin",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn-bin", 7, 12, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "paper-grid"]).is_err());
        assert!(args(&["--workload", "paper-grid", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "paper-grid", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
