//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! perfbench --workload jbb|javac_stw --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload in rounds: each builds a fresh collector and live
//! set (`setup_s` is the median set-up), measures its share of the
//! `--seconds` window, checks the live set and audits the heap. The
//! rounds' samples are pooled, and one JSON object is printed as the last
//! line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A full report (host, sample counts, every metric) goes to
//! `.bench_out/` under the working directory, with the spans of a traced
//! run. `METRICS.md` defines every metric.

mod harness;
mod metrics;
mod rng;
mod stats;
mod trace;
mod window;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use harness::Options;
use metrics::Metric;

const USAGE: &str = "usage: perfbench --workload jbb|javac_stw --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    opts: Options,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        opts: Options {
            seed: seed.ok_or("missing --seed")?,
            window: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
            trace: trace.ok_or("missing --trace")?,
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = workloads::spec(&args.workload, nproc).expect("workload name was checked");
    let run = harness::run(&spec, &args.opts);
    let merged = metrics::merge(&run);

    let mut errors: Vec<String> = run.threads.iter().flat_map(|t| t.errors.clone()).collect();
    errors.extend(run.audit_errors.iter().map(|e| format!("audit_now: {e}")));
    if merged.spans.violations > 0 || merged.spans.orphans > 0 {
        errors.push(format!(
            "span reconciliation: {} ops whose children do not add up, {} orphan spans",
            merged.spans.violations, merged.spans.orphans
        ));
    }
    let e2e = metrics::end_to_end(&run, &merged);
    let layers = metrics::per_layer(&run, &merged);
    for metric in e2e.iter().chain(&layers) {
        if !metric.value.is_finite() {
            errors.push(format!("{} is not finite", metric.name));
        }
    }
    if merged.attempted == 0 || merged.completed == 0 {
        errors.push(format!(
            "the workers attempted {} and completed {} ops in the window",
            merged.attempted, merged.completed
        ));
    }
    let correct = errors.is_empty();

    let host = host_json(nproc, &args, &spec);
    for metric in &e2e {
        println!("{}", human(metric));
    }
    if args.opts.trace {
        for metric in &layers {
            println!("{}", human(metric));
        }
    }
    for e in &errors {
        println!("ERROR {e}");
    }
    let report = format!(
        "{{\"host\": {host}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"ops_per_round\": {:?}, \"pause_p50_ms_per_round\": [{}], \"end_to_end\": {}, \
         \"per_layer\": {}, \"errors\": [{}]}}",
        merged.attempted,
        merged.failed,
        run.round_ops,
        run.round_pauses_ms
            .iter()
            .map(|p| stats::exact_percentile(p, 0.5).map_or(0.0, |p| p.value))
            .map(json_num)
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&e2e, true),
        metrics_json(&layers, true),
        errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = write_outputs(&args, &report, &run) {
        eprintln!("could not write .bench_out: {e}");
    }
    println!("{host}");
    let shown = if args.opts.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        merged.attempted,
        merged.failed,
        metrics_json(shown, false)
    );
}

fn host_json(nproc: usize, args: &Args, spec: &workloads::Spec) -> String {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {nproc}, \"cpus_online\": {}, \"threads\": {}, \
         \"stw_workers\": {}, \"background_threads\": {}, \"rounds\": {}}}",
        json_str(&args.workload),
        args.opts.seed,
        args.opts.window.as_secs_f64(),
        args.opts.trace as u8,
        json_str(&online),
        spec.threads,
        spec.config.stw_workers,
        spec.config.background_threads,
        harness::ROUNDS,
    )
}

fn human(metric: &Metric) -> String {
    let mut s = format!("{:<36} {:>16.6} {}", metric.name, metric.value, metric.unit);
    if let Some(p) = metric.support {
        let _ = write!(s, "  (n={}, beyond={})", p.samples, p.beyond);
        if !p.supported() {
            s.push_str(" fewer than 10 samples beyond");
        }
    }
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric], with_support: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut e = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let (true, Some(p)) = (with_support, m.support) {
                let _ = write!(
                    e,
                    ", \"samples\": {}, \"beyond\": {}, \"supported\": {}",
                    p.samples,
                    p.beyond,
                    p.supported()
                );
            }
            e.push('}');
            e
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the full report (and a traced run's spans) under `.bench_out/`.
fn write_outputs(args: &Args, report: &str, run: &harness::RunResult) -> std::io::Result<()> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.opts.seed, args.opts.trace as u8
    );
    std::fs::write(dir.join(format!("{stem}.json")), format!("{report}\n"))?;
    if args.opts.trace {
        let buffers: Vec<&[trace::Span]> = run.threads.iter().map(|t| t.spans.spans()).collect();
        // One span file per workload: the latest traced run's.
        trace::write_spans(&dir.join(format!("{}-spans.tsv", args.workload)), &buffers)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload javac_stw --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "javac_stw");
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.window, Duration::from_secs(10));
        assert!(a.opts.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload jbb --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload jbb --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload jbb --seed")).is_err());
    }

    #[test]
    fn json_output_escapes_and_rejects_non_finite() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "null");
        let m = Metric {
            name: "x",
            unit: "s",
            value: 0.5,
            support: Some(stats::Percentile {
                value: 0.5,
                samples: 10,
                beyond: 1,
            }),
        };
        assert_eq!(
            metrics_json(std::slice::from_ref(&m), false),
            "{\"x\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
        assert!(metrics_json(&[m], true).contains("\"beyond\": 1"));
    }
}
