//! `perfbench --workload W --seed N --seconds S --trace 0|1
//!            --worker-bin PATH --out-dir DIR [--stamp KEY=VALUE]...`
//!
//! Runs one benchmark run and prints a report line, then the result line
//! (the last line of stdout). `run.py` next to this crate builds the
//! program and calls this with the shard worker path, the output
//! directory and the machine stamp.

use perfbench::{report_line, result_line, run, Config, Scale, WorkerLaunch, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --worker-bin PATH --out-dir DIR [--stamp KEY=VALUE]...",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut out_dir = None;
    let mut stamp = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--worker-bin" => worker = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--stamp" => match value.split_once('=') {
                Some((k, v)) => stamp.push((k.to_string(), v.to_string())),
                None => usage("--stamp takes KEY=VALUE"),
            },
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let cfg = Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        scale: Scale::Full,
        out_dir: out_dir.unwrap_or_else(|| usage("--out-dir is required")),
        worker: WorkerLaunch::Binary(worker.unwrap_or_else(|| usage("--worker-bin is required"))),
        corrupt_stream: false,
    };
    let result = run(&cfg).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let line = result_line(&result).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for f in &result.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", report_line(&cfg, &result, &stamp));
    println!("{line}");
}
