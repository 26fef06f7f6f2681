//! Tiny-size smoke test of the benchmark: every metric `BENCHMARK.json`
//! names comes out positive and with its unit, on every workload, traced
//! and untraced, and a corrupted record stream is counted as a failure.

use dispersion_sim::json::Json;
use perfbench::layers::PER_LAYER;
use perfbench::{run, Config, Scale, WorkerLaunch, Workload, END_TO_END};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        worker: WorkerLaunch::InThread,
        corrupt_stream: false,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(cfg: &Config) -> Vec<(String, String)> {
    let result = run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload.name()));
    assert!(
        result.correct(),
        "{}: {:?}",
        cfg.workload.name(),
        result.failures
    );
    perfbench::result_line(&result).expect("finite metrics");
    for m in &result.metrics {
        assert!(
            m.value > 0.0,
            "{}: {} = {} is not positive",
            cfg.workload.name(),
            m.name,
            m.value
        );
    }
    result
        .metrics
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

#[test]
fn declared_metrics_match_the_code() {
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        assert_eq!(
            emitted(&config(w, false)),
            declared("end_to_end"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_workload_traced_emits_every_per_layer_metric() {
    for w in Workload::ALL {
        assert_eq!(
            emitted(&config(w, true)),
            declared("per_layer"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn corrupted_stream_counts_as_failure() {
    let cfg = Config {
        corrupt_stream: true,
        ..config(Workload::ServeMixed, false)
    };
    let result = run(&cfg).expect("run completes");
    assert_eq!(result.failed, 1, "{:?}", result.failures);
    assert!(!result.correct());
    let frac = result
        .notes
        .iter()
        .find(|(k, _)| k == "error_frac")
        .map(|(_, v)| v.parse::<f64>().expect("numeric error_frac"))
        .expect("error_frac in the report");
    assert!(frac > 0.0);
}
