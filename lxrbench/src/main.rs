//! Command-line entry point of the benchmark.
//!
//! ```text
//! lxrbench --workload <serve|nursery|mature> --seed <n> --seconds <s> --trace <0|1>
//!          [--collector <name>] [--heap-mb <MiB>]
//! ```
//!
//! Human-readable detail goes to standard error; standard output carries
//! `#`-prefixed run descriptions and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  A traced run
//! writes its spans to `lxrbench-spans/` in the target directory.

use lxrbench::{Options, WORKLOADS};
use std::time::Duration;

/// The process exits with an error, printing no result, if a run takes
/// longer than this.
const TIME_LIMIT: Duration = Duration::from_secs(170);

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: lxrbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--collector <name>] \
         [--heap-mb <MiB>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        collector: "lxr".into(),
        heap_mb: None,
        spans_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag}: {what}, got `{value}`")) };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad("expected an unsigned integer")),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
                    .unwrap_or_else(|| bad("expected seconds in (0, 120]"))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("expected 0 or 1"),
                }
            }
            "--collector" => opts.collector = value.clone(),
            "--heap-mb" => {
                opts.heap_mb = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|mb: &f64| *mb >= 1.0)
                        .unwrap_or_else(|| bad("expected MiB >= 1")),
                )
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !lxr_baselines::ALL_COLLECTORS.contains(&opts.collector.as_str()) {
        usage(&format!("unknown collector `{}`", opts.collector));
    }
    // Spans land beside the build, inside the target directory.
    opts.spans_path = std::env::current_exe().ok().and_then(|exe| {
        let target = exe.parent()?.parent()?;
        Some(target.join("lxrbench-spans").join(format!("{}-seed{}.tsv", opts.workload, opts.seed)))
    });
    opts
}

fn main() {
    let opts = parse();
    std::thread::spawn(|| {
        std::thread::sleep(TIME_LIMIT);
        eprintln!("error: the run exceeded {TIME_LIMIT:?}; no result");
        std::process::exit(3);
    });
    let outcome = lxrbench::run(&opts).unwrap_or_else(|e| usage(&e));
    eprint!("{}", outcome.detail);
    for line in &outcome.info {
        println!("# {line}");
    }
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    println!("{}", outcome.json());
}
