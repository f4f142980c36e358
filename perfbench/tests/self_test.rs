//! Self-test: every workload driver on tiny inputs (scale 0.01, a few
//! hundred messages and requests), timed and traced. Every correctness
//! gate must pass, every catalogued metric must print with its unit, the
//! work counters must repeat between the timed and the traced run, and
//! `BENCHMARK.json` must name exactly the catalogued workloads and
//! metrics.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{Opts, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(trace: bool) -> Opts {
    Opts {
        seed: 11,
        seconds: 0.05,
        trace,
        tiny: true,
    }
}

#[test]
fn every_workload_passes_its_gates_and_prints_every_metric() {
    for workload in WORKLOADS {
        let timed = perfbench::run(workload, &tiny(false))
            .unwrap_or_else(|e| panic!("{workload} timed run failed its gate: {e}"));
        let names: Vec<(&str, &str)> = timed.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec(), "{workload} end-to-end metrics");
        for m in &timed.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {} = {} must be a positive number",
                m.name,
                m.value
            );
        }
        assert!(timed.attempted > 0, "{workload} attempted nothing");
        assert_eq!(timed.failed, 0, "{workload} failed operations");

        let traced = perfbench::run(workload, &tiny(true))
            .unwrap_or_else(|e| panic!("{workload} traced run failed its gate: {e}"));
        let names: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER.to_vec(), "{workload} per-layer metrics");
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        assert!(
            traced.counters.starts_with(&timed.counters),
            "{workload} work counters differ between the timed and the traced run:\n  {}\n  {}",
            timed.counters,
            traced.counters
        );
        let spans = traced.spans.expect("a traced run records spans");
        assert!(spans.lines().count() > 0, "{workload} recorded no span");

        let line = perfbench::result_json(&timed);
        let parsed: serde::Value = serde_json::from_str(&line).expect("result line is JSON");
        assert!(matches!(parsed, serde::Value::Map(_)));
    }
}

#[test]
fn a_wrong_pin_fails_the_gate() {
    let opts = Opts {
        tiny: false,
        seed: perfbench::DEFAULT_SEED,
        ..tiny(false)
    };
    assert!(perfbench::check_pin("x", &opts, "0123", "4567").is_err());
    assert!(perfbench::check_pin("x", &opts, "4567", "4567").is_ok());
    // Other seeds have no pin.
    let other = Opts { seed: 7, ..opts };
    assert!(perfbench::check_pin("x", &other, "0123", "4567").is_ok());
}

#[test]
fn comparison_refuses_different_stamps() {
    let timed = perfbench::run("sender-queue", &tiny(false)).expect("tiny queue run");
    let output = |seed: u64| {
        let opts = Opts {
            seed,
            ..tiny(false)
        };
        format!(
            "stamp {}\n{}\n",
            perfbench::stamp("sender-queue", &opts),
            perfbench::result_json(&timed)
        )
    };
    assert!(perfbench::compare_outputs(&output(1), &output(1)).is_ok());
    let refused = perfbench::compare_outputs(&output(1), &output(2));
    assert!(refused.unwrap_err().contains("stamps differ"));
}

/// Reads an array of objects' `name` (and `unit`) fields.
fn names(value: &serde::Value, key: &str) -> Vec<(String, Option<String>)> {
    let serde::Value::Seq(items) = value.get(key).expect("key present") else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|item| {
            let text = |k: &str| match item.get(k) {
                Some(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            (text("name").expect("every entry has a name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = names(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    let catalogue = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names(&json, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names(&json, "per_layer"), catalogue(&PER_LAYER));
}
