//! The measurement window: counter snapshots taken when the window opens
//! and when it closes, and their differences. Live-set build and warm-up
//! cycles happen before the opening snapshot, so they only show up in
//! `setup_s`.

use std::collections::BTreeMap;
use std::time::Instant;

use mcgc_core::{CycleStats, Gc, PoolStats};
use mcgc_membar::FenceStats;

/// Everything read from the program at one instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub at: Instant,
    /// Completed cycles (`Gc::log().cycles.len()`).
    pub cycles: usize,
    /// Registry values after `Gc::telemetry_sample`.
    pub registry: BTreeMap<String, f64>,
    /// Process-global fence counters (one `Gc` per process).
    pub fences: FenceStats,
    pub pool: PoolStats,
    pub allocated_bytes: u64,
    /// Process user + system CPU time, seconds.
    pub cpu_s: f64,
}

impl Snapshot {
    pub fn take(gc: &Gc) -> Snapshot {
        gc.telemetry_sample();
        Snapshot {
            at: Instant::now(),
            cycles: gc.log().cycles.len(),
            registry: gc.telemetry().registry().sample().into_iter().collect(),
            fences: FenceStats::snapshot(),
            pool: gc.pool_stats(),
            allocated_bytes: gc.heap().bytes_allocated(),
            cpu_s: process_cpu_s(),
        }
    }
}

/// What happened between two snapshots (or, merged, in several windows).
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub secs: f64,
    /// Cycles that completed inside the window.
    pub cycles: Vec<CycleStats>,
    /// Registry differences (cumulative counters and mirrored totals).
    pub counters: BTreeMap<String, f64>,
    pub fences: FenceStats,
    /// `PoolStats::in_use_watermark` at close. The pool's counters
    /// restart at every cycle's initialisation, so only its watermark is
    /// used.
    pub pool_watermark: usize,
    pub allocated_bytes: u64,
    pub cpu_s: f64,
}

impl Window {
    /// The window between `open` and `close`; `cycles` is the collector's
    /// full log read at close.
    pub fn between(open: &Snapshot, close: &Snapshot, cycles: &[CycleStats]) -> Window {
        Window {
            secs: close.at.duration_since(open.at).as_secs_f64(),
            cycles: cycles[open.cycles.min(cycles.len())..close.cycles.min(cycles.len())].to_vec(),
            counters: counter_delta(&open.registry, &close.registry),
            fences: close.fences.since(&open.fences),
            pool_watermark: close.pool.in_use_watermark,
            allocated_bytes: close.allocated_bytes - open.allocated_bytes,
            cpu_s: close.cpu_s - open.cpu_s,
        }
    }

    /// Pools `other` (a window of another collector) into `self`.
    pub fn merge(&mut self, other: Window) {
        self.secs += other.secs;
        self.cycles.extend(other.cycles);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
        let (a, b) = (&mut self.fences, other.fences);
        a.alloc_batch += b.alloc_batch;
        a.large_alloc += b.large_alloc;
        a.trace_batch += b.trace_batch;
        a.packet_publish += b.packet_publish;
        a.card_handshake += b.card_handshake;
        a.other += b.other;
        self.pool_watermark = self.pool_watermark.max(other.pool_watermark);
        self.allocated_bytes += other.allocated_bytes;
        self.cpu_s += other.cpu_s;
    }

    /// Window delta of a registry metric.
    ///
    /// # Panics
    /// Panics if the program no longer registers `name`: a renamed
    /// counter must fail the benchmark rather than read as zero.
    pub fn counter(&self, name: &str) -> f64 {
        *self
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("registry has no metric {name:?}"))
    }

    /// Σ `f` over the window's cycles.
    pub fn sum(&self, f: impl Fn(&CycleStats) -> f64) -> f64 {
        self.cycles.iter().map(f).sum()
    }
}

/// `close - open` for every metric present at close; a metric first
/// registered inside the window counts from zero.
pub fn counter_delta(
    open: &BTreeMap<String, f64>,
    close: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    close
        .iter()
        .map(|(k, v)| (k.clone(), v - open.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// User + system CPU of the whole process (all threads), from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    // `fields[0]` is field 3 (state), so utime is index 11, stime 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("numeric VmHWM");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn snapshot(at: Instant, cycles: usize, registry: &[(&str, f64)], alloc: u64) -> Snapshot {
        Snapshot {
            at,
            cycles,
            registry: map(registry),
            fences: FenceStats {
                alloc_batch: alloc / 100,
                ..FenceStats::default()
            },
            pool: PoolStats {
                in_use_watermark: cycles,
                ..PoolStats::default()
            },
            allocated_bytes: alloc,
            cpu_s: alloc as f64 / 1000.0,
        }
    }

    #[test]
    fn window_subtracts_open_from_close() {
        let t0 = Instant::now();
        let open = snapshot(t0, 2, &[("a_total", 10.0), ("b_total", 5.0)], 1_000);
        let close = snapshot(
            t0 + Duration::from_millis(1500),
            5,
            &[("a_total", 25.0), ("b_total", 5.0), ("new_total", 3.0)],
            4_000,
        );
        let log: Vec<CycleStats> = (1..=6)
            .map(|cycle| CycleStats {
                cycle,
                ..CycleStats::default()
            })
            .collect();
        let w = Window::between(&open, &close, &log);
        assert!((w.secs - 1.5).abs() < 1e-9);
        assert_eq!(w.counter("a_total"), 15.0);
        assert_eq!(w.counter("b_total"), 0.0);
        assert_eq!(w.counter("new_total"), 3.0, "late metric counts from zero");
        assert_eq!(w.allocated_bytes, 3_000);
        assert_eq!(w.fences.alloc_batch, 30);
        assert!((w.cpu_s - 3.0).abs() < 1e-9);
        // Cycles 3..=5 completed inside the window; 1, 2 (set-up) and 6
        // (after close) are excluded.
        let ids: Vec<u64> = w.cycles.iter().map(|c| c.cycle).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(w.sum(|c| c.cycle as f64), 12.0);

        // A second collector's window pools into the first.
        let mut pooled = Window::default();
        pooled.merge(w.clone());
        pooled.merge(w);
        assert!((pooled.secs - 3.0).abs() < 1e-9);
        assert_eq!(pooled.counter("a_total"), 30.0);
        assert_eq!(pooled.counter("new_total"), 6.0);
        assert_eq!(pooled.cycles.len(), 6);
        assert_eq!(pooled.fences.alloc_batch, 60);
        assert_eq!(pooled.allocated_bytes, 6_000);
        assert_eq!(
            pooled.pool_watermark, 5,
            "watermark is a maximum, not a sum"
        );
        assert!((pooled.cpu_s - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "registry has no metric")]
    fn missing_counter_fails_loudly() {
        let t0 = Instant::now();
        let s = snapshot(t0, 0, &[], 0);
        Window::between(&s, &s, &[]).counter("gone_total");
    }

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(rss_peak_mb() > 0.0);
    }
}
