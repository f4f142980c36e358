//! Command line of the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-study --seed 42 --seconds 30 --trace 0
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     compare before.txt after.txt
//! ```
//!
//! A run prints notes (`# ...`), its stamp, its work counters and, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A run whose correctness gate fails prints no metrics and
//! exits with code 1. A traced run also writes its spans to
//! `.bench_trace/<workload>-<seed>.jsonl`.

use perfbench::{Opts, WORKLOADS};
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <result-a> <result-b>";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        exit(compare(&args[1..]));
    }
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = match perfbench::run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: correctness gate failed: {e}");
            exit(1);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {workload}: metric {} is not a number", bad.name);
        exit(1);
    }
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{workload}-{}.jsonl", opts.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            exit(1);
        }
        println!("# spans written to {}", path.display());
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("stamp {}", perfbench::stamp(&workload, &opts));
    println!("counters {}", outcome.counters);
    println!("{}", perfbench::result_json(&outcome));
}

/// Compares two saved run outputs metric by metric, refusing when their
/// stamps differ.
fn compare(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return 2;
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (ta, tb) = match (read(a), read(b)) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    match perfbench::compare_outputs(&ta, &tb) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            3
        }
    }
}
