//! The repo benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! scq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the result object
//! scq-benchmark [--seed <n>] [--seconds <s>] [--traced]
//!     the same for every workload in turn
//! scq-benchmark --repeat <N> [--seed <n>] [--seconds <s>]
//!     N runs of every workload on seeds n, n+1, …: the repeatability
//!     table and the bounds block for BENCHMARK.json (markdown)
//! ```

mod alloc;
mod client;
mod gen;
mod layers;
mod oracle;
mod procs;
mod repeat;
mod stats;
mod trace;
mod workloads;

use std::path::Path;

use workloads::{Metric, Tally, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The window `BENCHMARK.json` asks for; `--quick` is for trying things.
const DEFAULT_SECONDS: u64 = 12;
const QUICK_SECONDS: u64 = 4;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (one of {})", known())
                    })?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--traced" => parsed.traced = true,
            "--quick" => parsed.seconds = QUICK_SECONDS,
            "--repeat" => parsed.repeat = Some(number(value()?)?.max(2) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload: end-to-end metrics from an untraced run,
/// or — traced — the per-layer metrics.
fn run_one(
    workload: Workload,
    bin: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut outcome = workloads::run(workload, bin, seed, seconds, traced)?;
    let metrics = match &outcome.observed {
        Some(observed) => layers::traced_pass(workload, seed, bin, observed, &mut outcome.tally)?,
        None => outcome.end_to_end,
    };
    let leaked = procs::leaked_children();
    if !leaked.is_empty() {
        return Err(format!("leaked server processes: {leaked:?}"));
    }
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    Ok((outcome.tally, metrics))
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        rows.join(", ")
    )
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args)?;
    let bin = procs::serve_binary()?;
    match procs::pin_to_one_cpu() {
        Some(cpu) => eprintln!(
            "pinned to cpu {cpu} of {} available",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        None => eprintln!("warning: could not pin to one cpu; expect noisier numbers"),
    }
    if let Some(n) = args.repeat {
        return repeat::run(&bin, n, args.seed, args.seconds);
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for workload in workloads {
        let (tally, metrics) = run_one(workload, &bin, args.seed, args.seconds, args.traced)?;
        for failure in &tally.first_failures {
            eprintln!("FAILED {failure}");
        }
        eprintln!("{}:", workload.name());
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
        println!("{}", result_json(&tally, &metrics));
    }
    Ok(())
}

fn main() {
    if let Err(why) = real_main() {
        eprintln!("scq-benchmark: {why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_harness_command_line_parses() {
        let a = args(&[
            "--workload",
            "rw_cluster",
            "--seed",
            "42",
            "--seconds",
            "9",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RwCluster));
        assert_eq!((a.seed, a.seconds, a.traced, a.repeat), (42, 9, true, None));
        let b = args(&["--trace", "0", "--quick"]).unwrap();
        assert_eq!(
            (b.workload, b.traced, b.seconds),
            (None, false, QUICK_SECONDS)
        );
        assert!(args(&["--workload", "nosuch"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn the_result_line_is_the_contracts_object() {
        let mut tally = Tally::default();
        tally.record("PING", Ok(()));
        let line = result_json(
            &tally,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        tally.record("PING", Err("late".into()));
        assert!(result_json(&tally, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
