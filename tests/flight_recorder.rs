//! End-to-end flight-recorder tests: a live collector must emit a trace
//! that validates against the Chrome trace-event schema with the
//! expected tracks, the worst-pause postmortem must attribute (nearly)
//! all pause wall time to phase spans (≥ 95%, in both collector modes),
//! and every registry metric must follow the
//! `gc_`/`heap_` naming convention.

use std::collections::BTreeMap;

use mcgc::telemetry::trace_export::worst_pause_postmortem;
use mcgc::telemetry::{export_chrome_trace, validate_chrome_trace, SpanKind};
use mcgc::{CollectorMode, Gc, GcConfig, ObjectShape};

fn small_config() -> GcConfig {
    let mut c = GcConfig::with_heap_bytes(4 << 20);
    c.background_threads = 1;
    c.stw_workers = 2;
    c
}

/// Churns allocations until at least `cycles` collections completed.
fn churn(gc: &std::sync::Arc<Gc>, cycles: usize) {
    let mut m = gc.register_mutator();
    let keep = m.alloc(ObjectShape::new(1, 20, 0)).unwrap();
    m.root_push(Some(keep));
    let junk = ObjectShape::new(0, 30, 0);
    while gc.log().cycles.len() < cycles {
        for _ in 0..2_000 {
            m.alloc(junk).unwrap();
        }
    }
}

/// A live run's exported trace validates, and carries the coordinator
/// track (cycle + pause-phase spans), at least one scheduler-worker
/// track, and heap counter tracks.
#[test]
fn live_trace_validates_with_expected_tracks() {
    let gc = Gc::new(small_config());
    churn(&gc, 3);
    gc.shutdown();
    let rec = gc.telemetry().spans();

    let trace = export_chrome_trace(rec);
    let stats = validate_chrome_trace(&trace).expect("live trace validates");
    assert!(stats.spans > 0, "trace has spans");
    assert!(stats.span_tracks >= 2, "coordinator + at least one worker");
    assert!(stats.counters > 0, "heap inspection counter points");
    assert!(trace.contains("\"gc coordinator\""));
    assert!(
        trace.contains("mcgc-sched-"),
        "scheduler worker track present"
    );
    assert!(trace.contains("\"heap_occupancy\""));

    // The coordinator track holds the nested pause-phase spans.
    let spans = rec.all_spans();
    for kind in [SpanKind::Cycle, SpanKind::Pause, SpanKind::PauseSweep] {
        assert!(
            spans.iter().any(|(_, s)| s.kind == kind),
            "missing {kind:?} span"
        );
    }
}

/// The acceptance criterion: the worst recorded pause attributes at
/// least 95% of its wall time to pause-phase spans — in the concurrent
/// collector and in the stop-the-world baseline, whose pauses open their
/// own cycle (every `gc.pause` span must carry the number of the cycle
/// it completed, or the postmortem cannot find its phases).
#[test]
fn worst_pause_postmortem_attributes_wall_time() {
    for mode in [CollectorMode::Concurrent, CollectorMode::StopTheWorld] {
        let mut cfg = small_config();
        cfg.mode = mode;
        let gc = Gc::new(cfg);
        churn(&gc, 4);
        gc.shutdown();
        let pm = worst_pause_postmortem(gc.telemetry().spans()).expect("pauses recorded");
        assert!(pm.wall_ns > 0);
        assert!(
            pm.coverage >= 0.95,
            "{mode:?}: phase spans cover {:.1}% of the worst pause (need >= 95%)",
            pm.coverage * 100.0
        );
        assert!(!pm.phases.is_empty());
        let cycles: Vec<u64> = gc.log().cycles.iter().map(|c| c.cycle).collect();
        for (_, s) in gc.telemetry().spans().all_spans() {
            if s.kind == SpanKind::Pause {
                assert!(
                    cycles.contains(&(s.cycle as u64)),
                    "{mode:?}: pause span {s:?} carries no completed cycle {cycles:?}"
                );
            }
        }
        // Postmortem gauges are published through the registry.
        gc.telemetry_sample();
        let m: BTreeMap<String, f64> = gc.telemetry().registry().sample().into_iter().collect();
        assert!(m["gc_postmortem_coverage"] >= 0.95);
        assert!(m["gc_postmortem_pause_wall_ns"] > 0.0);
    }
}

/// Every metric the registry samples follows the `gc_`/`heap_` prefix
/// convention (the PR 6 naming audit; new metrics must comply — the
/// scheduler's counters live under `gc_sched_`).
#[test]
fn registry_metric_names_follow_prefix_convention() {
    let gc = Gc::new(small_config());
    churn(&gc, 2);
    gc.shutdown();
    gc.telemetry_sample();
    let offenders: Vec<String> = gc
        .telemetry()
        .registry()
        .sample()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|n| !["gc_", "heap_"].iter().any(|p| n.starts_with(p)))
        .collect();
    assert!(
        offenders.is_empty(),
        "metrics violating the prefix convention: {offenders:?}"
    );
}

/// Disabling telemetry silences the flight recorder too, and collection
/// still works.
#[test]
fn disabled_recorder_stays_silent() {
    let gc = Gc::new(small_config());
    gc.telemetry().set_enabled(false);
    churn(&gc, 2);
    gc.shutdown();
    assert!(gc.log().cycles.len() >= 2);
    let rec = gc.telemetry().spans();
    assert!(rec.all_spans().is_empty(), "no spans while disabled");
    assert!(
        rec.counter_points().is_empty(),
        "no counters while disabled"
    );
}
