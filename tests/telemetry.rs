//! End-to-end telemetry tests: the flight recorder is the collector's
//! one clock (every measured pause wall in `CycleStats` is the duration
//! of that phase's own span), phase spans are well-formed, and the
//! exporters reflect live collector state.

use std::collections::BTreeMap;
use std::time::Duration;

use mcgc::telemetry::{Span, SpanKind, SpanRecorder};
use mcgc::{CollectorMode, Gc, GcConfig, ObjectShape, SweepMode, Trigger};

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

/// The retained spans of the collector's coordinator track (cycle and
/// pause-phase spans), oldest first.
fn coordinator_spans(rec: &SpanRecorder) -> Vec<Span> {
    rec.tracks()
        .into_iter()
        .find(|t| t.name == "gc coordinator")
        .expect("coordinator track")
        .spans
}

/// Phase spans are well-formed: pauses never overlap, their triggers
/// decode, kickoffs carry the free-byte headroom, and every retained
/// pause also fed the pause histogram.
#[test]
fn phase_spans_are_well_formed() {
    let gc = Gc::new(small_config());
    churn(&gc, 3);
    gc.shutdown();
    let rec = gc.telemetry().spans();
    let pauses: Vec<Span> = coordinator_spans(rec)
        .into_iter()
        .filter(|s| s.kind == SpanKind::Pause)
        .collect();
    assert!(!pauses.is_empty());
    for w in pauses.windows(2) {
        assert!(w[0].end_ns <= w[1].begin_ns, "overlapping pauses {w:?}");
    }
    for p in &pauses {
        assert!(Trigger::from_code(p.arg).is_some(), "trigger code {p:?}");
        assert!(p.duration_ns() > 0, "wall pause is nonzero ns");
    }
    for (_, k) in rec.all_spans() {
        if k.kind == SpanKind::KickoffDecision {
            assert!(k.arg > 0, "kickoff records free bytes: {k:?}");
        }
    }
    // The histogram never wraps, so it has at least as many samples as
    // the ring retains pauses.
    assert!(gc.telemetry().pause_histogram().count() >= pauses.len() as u64);
    assert!(gc.telemetry().pause_histogram().max() > 0);
}

/// One clock: for every retained cycle, each measured phase wall in
/// `CycleStats` is exactly the duration of that phase's span (cards
/// absorb the drain loop's re-clean passes), and the pause wall ends
/// inside the pause span. Both modes: a stop-the-world pause opens its
/// own cycle, and its spans must carry that cycle's number. The lazy
/// arm leaves each sweep epoch to the straggler fence, whose spans must
/// add up to the fence time the registry counted.
#[test]
fn pause_walls_are_their_spans_durations() {
    for (mode, sweep) in [
        (CollectorMode::Concurrent, SweepMode::Eager),
        (CollectorMode::StopTheWorld, SweepMode::Eager),
        (CollectorMode::Concurrent, SweepMode::Lazy),
    ] {
        let mut cfg = small_config();
        cfg.mode = mode;
        cfg.sweep = sweep;
        cfg.bg_sweep = false;
        let gc = Gc::new(cfg);
        churn(&gc, 4);
        gc.shutdown();
        let spans = coordinator_spans(gc.telemetry().spans());
        let fences: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::StragglerFence)
            .collect();
        let fence_ns: u64 = fences.iter().map(|s| s.duration_ns()).sum();
        let counted: BTreeMap<String, f64> =
            gc.telemetry().registry().sample().into_iter().collect();
        assert_eq!(fence_ns as f64, counted["gc_sweep_straggler_ns_total"]);
        assert_eq!(sweep == SweepMode::Lazy, !fences.is_empty(), "{sweep:?}");
        let mut checked = 0;
        for c in &gc.log().cycles {
            let of = |kind: SpanKind| -> Vec<&Span> {
                spans
                    .iter()
                    .filter(|s| s.kind == kind && s.cycle as u64 == c.cycle)
                    .collect()
            };
            let pause = of(SpanKind::Pause);
            if pause.is_empty() {
                continue; // evicted by ring wrap
            }
            let cy = (mode, sweep, c.cycle);
            assert_eq!(pause.len(), 1, "{cy:?}: one pause");
            let wall = |kinds: &[SpanKind]| -> Duration {
                kinds
                    .iter()
                    .flat_map(|&k| of(k))
                    .map(|s| Duration::from_nanos(s.duration_ns()))
                    .sum()
            };
            assert_eq!(of(SpanKind::PauseRetire).len(), 1, "{cy:?}");
            assert_eq!(c.retire_wall, wall(&[SpanKind::PauseRetire]), "{cy:?}");
            assert_eq!(of(SpanKind::PauseRoots).len(), 1, "{cy:?}");
            assert_eq!(c.roots_wall, wall(&[SpanKind::PauseRoots]), "{cy:?}");
            assert_eq!(of(SpanKind::PauseSweep).len(), 1, "{cy:?}");
            assert_eq!(c.sweep_wall, wall(&[SpanKind::PauseSweep]), "{cy:?}");
            assert_eq!(of(SpanKind::PauseClear).len(), 1, "{cy:?}");
            assert_eq!(c.clear_wall, wall(&[SpanKind::PauseClear]), "{cy:?}");
            assert_eq!(
                c.cards_wall,
                wall(&[SpanKind::PauseCards, SpanKind::PauseReclean]),
                "{cy:?}"
            );
            assert!(!of(SpanKind::PauseDrain).is_empty(), "{cy:?}");
            assert_eq!(c.drain_wall, wall(&[SpanKind::PauseDrain]), "{cy:?}");
            assert!(
                c.pause_wall <= Duration::from_nanos(pause[0].duration_ns()),
                "{cy:?}: pause wall {:?} outlasts its span {pause:?}",
                c.pause_wall
            );
            assert!(c.phase_wall_total() <= c.pause_wall, "{cy:?}");
            checked += 1;
        }
        assert!(
            checked >= 4,
            "{mode:?}/{sweep:?}: {checked} cycles retained"
        );
    }
}

/// Gauges refresh on demand and both exporters render the registry.
#[test]
fn sampling_refreshes_gauges_and_exporters_render() {
    let gc = Gc::new(small_config());
    churn(&gc, 2);
    gc.telemetry_sample();
    gc.shutdown();
    let sample: BTreeMap<String, f64> = gc.telemetry().registry().sample().into_iter().collect();
    assert!(sample["gc_cycles_total"] >= 2.0);
    assert!(sample["gc_pauses_total"] >= 2.0);
    assert!(sample["gc_pacer_k0"] > 0.0);
    assert!(sample["gc_pacer_kickoff_threshold_bytes"] > 0.0);
    assert!(sample["heap_occupancy"] > 0.0 && sample["heap_occupancy"] <= 1.0);
    // Which role the traced bytes land on is schedule-dependent (the
    // background tracer is woken at kickoff and can do all of it on a
    // small heap); some role must have been credited.
    assert!(
        sample["gc_traced_stw_bytes_total"] > 0.0
            || sample["gc_traced_mutator_bytes_total"] > 0.0
            || sample["gc_traced_background_bytes_total"] > 0.0
    );
    assert!(sample.contains_key("gc_pool_occupancy"));
    let text = gc.telemetry().registry().render_text();
    assert!(text.contains("gc_cycles_total"));
    assert!(text.contains("gc_pacer_k0"));
    let json = gc.telemetry().registry().render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"gc_cycles_total\":"));
}

/// MMU: after real pauses, utilization over a long window is below 1 and
/// above 0, and the increment histogram saw the concurrent increments.
#[test]
fn utilization_and_increment_latencies_recorded() {
    let gc = Gc::new(small_config());
    churn(&gc, 3);
    gc.shutdown();
    let tel = gc.telemetry();
    let window = 10_000_000_000; // 10 s, longer than the whole test
    let u = tel.mutator_utilization(window);
    assert!(u > 0.0 && u < 1.0, "utilization {u}");
    assert!(tel.minimum_mutator_utilization(1_000_000) <= u);
    let log = gc.log();
    if log.cycles.iter().any(|c| c.increments > 0) {
        assert!(tel.increment_histogram().count() > 0);
    }
}

/// Disabling telemetry stops recording without disturbing collection,
/// and the phase guards still time every pause.
#[test]
fn disabled_telemetry_records_nothing_but_gc_still_works() {
    let gc = Gc::new(small_config());
    gc.telemetry().set_enabled(false);
    churn(&gc, 2);
    gc.shutdown();
    let log = gc.log();
    assert!(log.cycles.len() >= 2, "collections still happen");
    assert!(gc.telemetry().spans().all_spans().is_empty());
    assert_eq!(gc.telemetry().pause_histogram().count(), 0);
    for c in &log.cycles {
        assert!(c.drain_wall > Duration::ZERO, "cycle {}", c.cycle);
        assert!(
            c.phase_wall_total() <= c.pause_wall,
            "cycle {}: phases {:?} > pause {:?}",
            c.cycle,
            c.phase_wall_total(),
            c.pause_wall
        );
    }
}
