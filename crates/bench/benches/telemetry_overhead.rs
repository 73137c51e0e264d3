//! Always-on observability overhead: jbb throughput across three arms —
//! telemetry fully `off`, the default always-`on` pipeline (histograms,
//! MMU tracker, registry counters and the flight-recorder span rings), and
//! `export`, which additionally renders the Chrome trace every 250 ms
//! from a background thread while the workload runs.
//!
//! Runs interleaved off/on/export triples so drift (thermal, page
//! cache) hits all arms equally, writes `BENCH_telemetry.json`
//! (override with `MCGC_BENCH_OUT`), and — when `MCGC_OVERHEAD_GATE`
//! is set to a percentage — exits non-zero if the always-on arm costs
//! more than that. CI's bench-smoke job gates at 2%.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcgc_core::{CollectorMode, Gc};
use mcgc_telemetry::export_chrome_trace;
use mcgc_workloads::jbb;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Off,
    On,
    Export,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Off => "off",
            Arm::On => "on",
            Arm::Export => "export",
        }
    }
}

fn run_once(arm: Arm, heap: usize, secs: Duration) -> f64 {
    let gc = Gc::new(mcgc_bench::gc_config(CollectorMode::Concurrent, heap));
    gc.telemetry().set_enabled(arm != Arm::Off);
    let stop = Arc::new(AtomicBool::new(false));
    let exporter = (arm == Arm::Export).then(|| {
        let gc = Arc::clone(&gc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut largest = 0usize;
            while !stop.load(Ordering::Relaxed) {
                largest = largest.max(export_chrome_trace(gc.telemetry().spans()).len());
                std::thread::sleep(Duration::from_millis(250));
            }
            largest
        })
    });
    let opts = mcgc_bench::jbb_opts(heap, 2, secs);
    let report = jbb::run(&gc, &opts);
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = exporter {
        let _ = h.join();
    }
    gc.shutdown();
    report.throughput()
}

fn main() {
    mcgc_bench::banner(
        "telemetry overhead: jbb throughput, off vs always-on vs exporting",
        "observability must not perturb the §6 throughput numbers",
    );
    let heap = mcgc_bench::heap_bytes(48);
    let secs = mcgc_bench::seconds(2.0);
    let triples = 3;
    // Warmup (untimed).
    run_once(Arm::On, heap, secs / 4);
    let mut sums = [0.0f64; 3];
    for i in 0..triples {
        let mut row = [0.0f64; 3];
        for (slot, arm) in [Arm::Off, Arm::On, Arm::Export].into_iter().enumerate() {
            row[slot] = run_once(arm, heap, secs);
            sums[slot] += row[slot];
        }
        println!(
            "triple {i}: off {:>10.0} tx/s   on {:>10.0} tx/s   export {:>10.0} tx/s",
            row[0], row[1], row[2]
        );
    }
    let [off, on, export] = sums.map(|s| s / triples as f64);
    let pct = |arm: f64| (off - arm) / off * 100.0;
    let (on_pct, export_pct) = (pct(on), pct(export));
    println!("--------------------------------------------------------------");
    println!(
        "mean: off {off:>10.0} tx/s   on {on:>10.0} tx/s ({}%)   export {export:>10.0} tx/s ({}%)",
        mcgc_bench::fnum(on_pct, 2),
        mcgc_bench::fnum(export_pct, 2),
    );

    let mut json = String::from("{\n  \"bench\": \"telemetry_overhead\",\n");
    json.push_str(&mcgc_bench::host_meta_json("off|on|export"));
    json.push_str(&format!(
        "  \"heap_bytes\": {heap},\n  \"triples\": {triples},\n  \
         \"tx_off\": {off:.0},\n  \"tx_on\": {on:.0},\n  \"tx_export\": {export:.0},\n  \
         \"overhead_on_pct\": {on_pct:.3},\n  \"overhead_export_pct\": {export_pct:.3}\n}}\n"
    ));
    let out = std::env::var("MCGC_BENCH_OUT").unwrap_or_else(|_| "BENCH_telemetry.json".into());
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");

    if let Some(limit) = std::env::var("MCGC_OVERHEAD_GATE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if on_pct > limit {
            eprintln!(
                "FAIL: always-on overhead {}% exceeds the {limit}% gate ({} arm)",
                mcgc_bench::fnum(on_pct, 2),
                Arm::On.name(),
            );
            std::process::exit(1);
        }
        println!(
            "gate: always-on overhead {}% within the {limit}% budget",
            mcgc_bench::fnum(on_pct, 2)
        );
    }
}
