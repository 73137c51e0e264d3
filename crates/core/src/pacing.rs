//! The kickoff and progress formulas (paper §3), and the choice of each
//! concurrent cycle's kind.
//!
//! * **Kickoff** (§3.1): start the concurrent phase when free memory
//!   drops below `(L + M) / K0`, where `L` predicts the bytes to be
//!   traced concurrently, `M` predicts the bytes on dirty cards, and `K0`
//!   is the desired allocator tracing rate.
//! * **Progress** (§3.1): at each increment, the current rate is
//!   `K = (M + L - T) / F` (`T` bytes traced so far, `F` free bytes);
//!   negative `K` means the predictions were underestimates and `K`
//!   becomes `Kmax`.
//! * **Background credit** (§3.2): `Best`, an exponential smoothing of
//!   the background threads' tracing-to-allocation ratio `B`, is
//!   subtracted from `K`; if tracing is behind (`K > K0`) the corrective
//!   term inflates the rate: `K + (K - K0) C`.
//! * **Cycle kind**: a *minor* cycle keeps the previous cycle's mark
//!   bits (sticky mark bits, Demmers et al., POPL 1990) and traces only
//!   what became reachable since; a *full* cycle traces everything.
//!   `L` and `M` are predicted per kind ([`CycleKind`]); `Best` is
//!   shared. [`MinorPolicy`] picks the next cycle's kind from the
//!   counters of the pause that ends the current one.
//!
//! All state is plain arithmetic; the collector wraps a [`Pacer`] in a
//! mutex and feeds it cycle-end observations.

use crate::config::GcConfig;

/// `Kmax` over `K0` (§3.1: `Kmax` is "typically 2 K0").
const MAX_RATE_FACTOR: f64 = 2.0;
/// The corrective term `C` when tracing is behind (§3.2: `K + (K - K0) C`).
const CORRECTIVE_FACTOR: f64 = 0.5;
/// The newest observation's weight in the smoothing of `L`, `M` and `B`
/// (§3.1, §3.2).
const SMOOTHING_ALPHA: f64 = 0.4;
/// The guess for `L` (§3.1), a fraction of the heap, before any history.
const INITIAL_LIVE_FRACTION: f64 = 0.35;
/// The guess for `M` (§3.1), a fraction of the heap, before any history.
const INITIAL_DIRTY_FRACTION: f64 = 0.02;

/// Exponential smoothing that weights `observed` by [`SMOOTHING_ALPHA`].
fn smooth(est: f64, observed: f64) -> f64 {
    est * (1.0 - SMOOTHING_ALPHA) + observed * SMOOTHING_ALPHA
}

/// A consistent snapshot of the pacer's §3 estimates, taken under the
/// collector's pacer lock (telemetry gauges, `gc_top`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PacerEstimates {
    /// Desired allocator tracing rate `K0`.
    pub k0: f64,
    /// Predicted bytes traced concurrently (`L`) by the running cycle,
    /// or between cycles by the next one.
    pub l: f64,
    /// Predicted bytes on dirty cards (`M`), for the same cycle as `l`.
    pub m: f64,
    /// Smoothed background tracing per allocated byte (`Best`).
    pub b: f64,
    /// Free-byte threshold `(L + M) / K0` that triggers kickoff.
    pub kickoff_threshold: f64,
}

/// The kind of a collection cycle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) enum CycleKind {
    /// The cycle starts with every mark bit clear and traces the whole
    /// live set (§2.1).
    #[default]
    Full,
    /// The cycle keeps the previous cycle's marks, so old objects stay
    /// black: it traces from the roots and from the marked objects on
    /// the cards dirtied since the last pause.
    Minor,
}

/// `L` and `M` for one cycle kind.
#[derive(Copy, Clone, Debug)]
struct Predictions {
    l: f64,
    m: f64,
}

/// Adaptive pacing state for the concurrent phase (paper §3).
#[derive(Clone, Debug)]
pub struct Pacer {
    k0: f64,
    /// Predictions of bytes traced during the concurrent phase (`L`) and
    /// of bytes to scan on dirty cards (`M`), indexed by [`CycleKind`]:
    /// a minor cycle traces its young survivors, not the resident set.
    predictions: [Predictions; 2],
    /// The kind the `L` and `M` in use belong to: the running cycle's,
    /// or between cycles the kind the next kickoff starts.
    kind: CycleKind,
    /// Smoothed background tracing rate (`Best`): background bytes traced
    /// per byte allocated.
    b_est: f64,
    policy: MinorPolicy,
}

impl Pacer {
    /// Creates a pacer from the collector configuration and heap size.
    /// Both cycle kinds start from the same guesses; the first cycle is
    /// full.
    pub fn new(config: &GcConfig, heap_bytes: usize) -> Pacer {
        let guess = Predictions {
            l: heap_bytes as f64 * INITIAL_LIVE_FRACTION,
            m: heap_bytes as f64 * INITIAL_DIRTY_FRACTION,
        };
        Pacer {
            k0: config.tracing_rate,
            predictions: [guess; 2],
            kind: CycleKind::Full,
            b_est: 0.0,
            policy: MinorPolicy::default(),
        }
    }

    fn predictions(&self) -> &Predictions {
        &self.predictions[self.kind as usize]
    }

    /// The desired allocator tracing rate `K0`.
    pub fn k0(&self) -> f64 {
        self.k0
    }

    /// Current `L` prediction, bytes.
    pub fn l_est(&self) -> f64 {
        self.predictions().l
    }

    /// Current `M` prediction, bytes.
    pub fn m_est(&self) -> f64 {
        self.predictions().m
    }

    /// Current `Best` (background tracing per allocated byte).
    pub fn b_est(&self) -> f64 {
        self.b_est
    }

    /// Kickoff formula (§3.1): the free-memory threshold (bytes) that
    /// triggers a new concurrent cycle. Evaluated once per cycle.
    pub fn kickoff_threshold(&self) -> f64 {
        (self.l_est() + self.m_est()) / self.k0
    }

    /// All §3 estimates as one snapshot.
    pub fn estimates(&self) -> PacerEstimates {
        PacerEstimates {
            k0: self.k0,
            l: self.l_est(),
            m: self.m_est(),
            b: self.b_est,
            kickoff_threshold: self.kickoff_threshold(),
        }
    }

    /// True if a new cycle should start given current free bytes.
    pub fn should_kickoff(&self, free_bytes: u64) -> bool {
        (free_bytes as f64) < self.kickoff_threshold()
    }

    /// Progress formula (§3.1–§3.2): the tracing rate for the next
    /// increment, given `traced` bytes traced so far this phase and
    /// `free` bytes of free memory.
    ///
    /// Returns 0 when the background threads are keeping up by
    /// themselves.
    pub fn tracing_rate(&self, traced: u64, free: u64) -> f64 {
        let kmax = self.k0 * MAX_RATE_FACTOR;
        let free = (free as f64).max(1.0);
        let mut k = (self.m_est() + self.l_est() - traced as f64) / free;
        if k < 0.0 {
            // L or M underestimated: go as fast as allowed.
            k = kmax;
        }
        // §3.2: credit the background threads.
        if k < self.b_est {
            return 0.0;
        }
        k -= self.b_est;
        // §3.2: corrective term when behind schedule.
        if k > self.k0 {
            k += (k - self.k0) * CORRECTIVE_FACTOR;
        }
        k.min(kmax)
    }

    /// Work quota (bytes of tracing) for an increment that allocated
    /// `allocated` bytes.
    pub fn increment_quota(&self, allocated: u64, traced: u64, free: u64) -> u64 {
        (self.tracing_rate(traced, free) * allocated as f64) as u64
    }

    /// Feeds the observed background tracing-to-allocation ratio for a
    /// window of time (§3.2: "we occasionally calculate B, and reevaluate
    /// Best").
    pub fn observe_background(&mut self, bg_traced: u64, allocated: u64) {
        if allocated == 0 {
            return;
        }
        let b = bg_traced as f64 / allocated as f64;
        self.b_est = smooth(self.b_est, b);
    }

    /// Feeds a finished cycle's actual `L` (bytes traced concurrently)
    /// and `M` (bytes scanned on dirty cards) to refine the predictions
    /// of its kind.
    pub fn end_cycle(&mut self, actual_l: u64, actual_m: u64) {
        let p = &mut self.predictions[self.kind as usize];
        p.l = smooth(p.l, actual_l as f64);
        p.m = smooth(p.m, actual_m as f64).max(1.0);
        // A fresh cycle starts with no background history bias; keep Best
        // (it tracks machine idle capacity, not cycle shape).
    }

    /// The running cycle's kind, or between cycles the kind the next
    /// kickoff starts, as the last pause planned it.
    pub(crate) fn kind(&self) -> CycleKind {
        self.kind
    }

    /// A cycle of `kind` begins: the progress formula and the cycle's
    /// [`Pacer::end_cycle`] use that kind's `L` and `M`. A fresh pause
    /// or an emergency kickoff may begin a full cycle where a minor one
    /// was planned.
    pub(crate) fn begin_cycle(&mut self, kind: CycleKind) {
        self.kind = kind;
    }

    /// Plans the next cycle's kind from the counters of the pause that
    /// ends the current one ([`MinorPolicy::next_kind`]); the kickoff
    /// formula then uses that kind's `L` and `M`.
    pub(crate) fn plan_next(&mut self, done: &CycleOutcome) -> CycleKind {
        self.kind = self.policy.next_kind(done);
        self.kind
    }
}

/// What the pause that ends a cycle knows about it, as
/// [`MinorPolicy::next_kind`] reads it.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CycleOutcome {
    /// The cycle's kind.
    pub kind: CycleKind,
    /// Bytes it traced, concurrently and in its pause.
    pub traced: u64,
    /// The `L` the pacer predicted for it.
    pub predicted: u64,
    /// Bytes allocated since the previous pause.
    pub allocated: u64,
    /// Committed heap bytes.
    pub heap: u64,
}

/// Minor cycles are suspended for at most `2^MAX_FAILED_PROBES` cycles.
const MAX_FAILED_PROBES: u32 = 6;

/// The policy that picks each concurrent cycle's kind, and what it
/// remembers between pauses.
///
/// * After a full cycle the next one is minor, unless minor cycles are
///   suspended or the cycle traced more than 5/4 of the `L` the pacer
///   predicted for it. The next full cycle kicks off on that prediction
///   after a minor streak, so it must have converged first: from a cold
///   start's guess, that takes a few full cycles.
/// * A minor cycle that traced more than half of the bytes allocated
///   since the previous pause shows that young objects are not dying
///   young: the next cycle is full, and minor cycles are suspended for
///   `2^k` cycles, `k` counting consecutive such failed probes (capped
///   at [`MAX_FAILED_PROBES`]).
/// * Otherwise a minor cycle is followed by another, until the bytes
///   minor cycles traced since the last full one (what they promoted,
///   old garbage never being freed in between) exceed a quarter of the
///   headroom that full cycle left (heap bytes minus its traced bytes):
///   the garbage they keep shrinks the headroom by at most a quarter,
///   so cycles come at most a third more often than full ones would.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct MinorPolicy {
    /// Consecutive failed minor probes (`k`).
    failed_probes: u32,
    /// Full cycles still to run before the next minor probe.
    suspended: u64,
    /// Bytes minor cycles traced since the last full cycle.
    promoted: u64,
    /// A quarter of the headroom the last full cycle left.
    budget: u64,
}

impl MinorPolicy {
    /// The kind of the cycle after `done`.
    pub(crate) fn next_kind(&mut self, done: &CycleOutcome) -> CycleKind {
        match done.kind {
            CycleKind::Full => {
                self.promoted = 0;
                self.budget = done.heap.saturating_sub(done.traced) / 4;
                self.suspended = self.suspended.saturating_sub(1);
                if self.suspended == 0 && done.traced * 4 <= done.predicted * 5 {
                    CycleKind::Minor
                } else {
                    CycleKind::Full
                }
            }
            CycleKind::Minor if done.traced > done.allocated / 2 => {
                self.failed_probes = (self.failed_probes + 1).min(MAX_FAILED_PROBES);
                self.suspended = 1 << self.failed_probes;
                CycleKind::Full
            }
            CycleKind::Minor => {
                self.failed_probes = 0;
                self.promoted += done.traced;
                if self.promoted > self.budget {
                    CycleKind::Full
                } else {
                    CycleKind::Minor
                }
            }
        }
    }
}

/// Pacing for the background sweeper, in the spirit of the §3.2
/// background-tracing credit: the sweeper should soak idle cycles, not
/// race the mutators for chunks they are already claiming themselves.
/// It watches the heap's cumulative sweep-on-refill chunk counter — if
/// refills swept since the sweeper's last look, the allocators are
/// keeping up (they self-serve exactly when they need memory) and the
/// sweeper parks for that turn; once refills go quiet it drains.
/// Each background thread owns its own pacer (plain state, no sharing).
#[derive(Copy, Clone, Debug, Default)]
pub struct BgSweepPacer {
    last_refill_chunks: u64,
}

impl BgSweepPacer {
    /// Creates a pacer with no refill history.
    pub fn new() -> BgSweepPacer {
        BgSweepPacer::default()
    }

    /// Decides whether the background sweeper should drain a batch this
    /// turn, given the heap's current cumulative refill-swept chunk
    /// count. Also records the count for the next decision.
    pub fn should_drain(&mut self, refill_chunks_now: u64) -> bool {
        let prev = self.last_refill_chunks;
        self.last_refill_chunks = refill_chunks_now;
        refill_chunks_now == prev
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::config::GcConfig;

    fn pacer(heap: usize) -> Pacer {
        Pacer::new(&GcConfig::default(), heap)
    }

    #[test]
    fn kickoff_threshold_is_l_plus_m_over_k0() {
        let p = pacer(100 << 20);
        let expect = (p.l_est() + p.m_est()) / 8.0;
        assert!((p.kickoff_threshold() - expect).abs() < 1e-6);
        assert!(p.should_kickoff((expect as u64).saturating_sub(1)));
        assert!(!p.should_kickoff(expect as u64 + 1024));
    }

    #[test]
    fn rate_one_starts_immediately() {
        // §6.2: "at tracing rate 1 CGC will start immediately after the
        // stop-the-world phase is terminated" — threshold ≈ L + M covers
        // all plausible free space.
        let mut cfg = GcConfig::default();
        cfg.tracing_rate = 1.0;
        let heap = 100 << 20;
        let p = Pacer::new(&cfg, heap);
        // Free space right after GC at 60% residency is 40% of the heap;
        // threshold L+M = 37% — close; with the cycle history converging to
        // real L (~60%), kickoff is immediate.
        let mut p2 = p.clone();
        p2.end_cycle(60 << 20, 2 << 20);
        assert!(p2.should_kickoff((40u64) << 20));
    }

    #[test]
    fn progress_rate_decreases_as_tracing_advances() {
        let p = pacer(100 << 20);
        let free = 10u64 << 20;
        let early = p.tracing_rate(0, free);
        let late = p.tracing_rate(30 << 20, free);
        assert!(early > late, "{early} vs {late}");
    }

    #[test]
    fn negative_k_means_underestimate_and_clamps_to_kmax() {
        let p = pacer(100 << 20);
        // traced far beyond L + M
        let k = p.tracing_rate(90 << 20, 10 << 20);
        assert_eq!(k, 16.0, "Kmax = 2 * K0");
    }

    #[test]
    fn background_credit_reduces_mutator_rate() {
        let mut p = pacer(100 << 20);
        let free = 50u64 << 20;
        let before = p.tracing_rate(0, free);
        // Background does 30% of the allocation volume in tracing.
        for _ in 0..20 {
            p.observe_background(3 << 20, 10 << 20);
        }
        let after = p.tracing_rate(0, free);
        assert!(after < before);
        assert!((p.b_est() - 0.3).abs() < 0.01);
    }

    #[test]
    fn background_doing_everything_means_zero_mutator_rate() {
        let mut p = pacer(100 << 20);
        for _ in 0..30 {
            p.observe_background(100 << 20, 10 << 20); // B = 10
        }
        assert_eq!(p.tracing_rate(0, 60 << 20), 0.0);
    }

    #[test]
    fn corrective_term_inflates_when_behind() {
        let p = pacer(100 << 20);
        // free small, nothing traced: K raw = 37 MB/4 MB ≈ 9.25 > K0=8
        let free = 4u64 << 20;
        let raw = (p.m_est() + p.l_est()) / free as f64;
        assert!(raw > 8.0);
        let k = p.tracing_rate(0, free);
        let expect = (raw + (raw - 8.0) * 0.5).min(16.0);
        assert!((k - expect).abs() < 1e-9, "{k} vs {expect}");
    }

    #[test]
    fn end_cycle_converges_estimates() {
        let mut p = pacer(100 << 20);
        for _ in 0..50 {
            p.end_cycle(20 << 20, 1 << 20);
        }
        assert!((p.l_est() - (20u64 << 20) as f64).abs() < (1u64 << 18) as f64);
        assert!((p.m_est() - (1u64 << 20) as f64).abs() < (1u64 << 15) as f64);
    }

    #[test]
    fn bg_sweep_pacer_parks_while_refills_progress() {
        let mut p = BgSweepPacer::new();
        assert!(p.should_drain(0), "no history: drain");
        assert!(!p.should_drain(3), "refills swept since last look: park");
        assert!(!p.should_drain(5), "still advancing: park");
        assert!(p.should_drain(5), "refills quiet: drain");
        assert!(p.should_drain(5), "stays draining while quiet");
    }

    #[test]
    fn quota_scales_with_allocation() {
        let p = pacer(100 << 20);
        let q1 = p.increment_quota(32 << 10, 0, 20 << 20);
        let q2 = p.increment_quota(64 << 10, 0, 20 << 20);
        assert!((q2 as i64 - 2 * q1 as i64).abs() <= 1, "{q2} vs 2*{q1}");
    }

    #[test]
    fn estimates_are_kept_per_cycle_kind() {
        let mut p = pacer(100 << 20);
        let full_threshold = p.kickoff_threshold();
        p.begin_cycle(CycleKind::Minor);
        for _ in 0..50 {
            p.end_cycle(1 << 20, 64 << 10);
        }
        assert!((p.l_est() - (1u64 << 20) as f64).abs() < 1024.0);
        let minor_threshold = p.kickoff_threshold();
        assert!(minor_threshold < full_threshold / 10.0);
        // The full cycle's predictions did not move.
        p.begin_cycle(CycleKind::Full);
        assert_eq!(p.kickoff_threshold(), full_threshold);
        // Between cycles, the kickoff formula reads the planned kind's.
        let mut policy = p.policy;
        let done = CycleOutcome {
            kind: CycleKind::Full,
            traced: 40 << 20,
            predicted: 40 << 20,
            allocated: 30 << 20,
            heap: 100 << 20,
        };
        assert_eq!(p.plan_next(&done), policy.next_kind(&done));
        assert_eq!(p.kind(), CycleKind::Minor);
        assert_eq!(p.kickoff_threshold(), minor_threshold);
    }

    const MIB: u64 = 1 << 20;

    /// A workload's per-cycle shape: what a full and a minor cycle
    /// trace, what is allocated between pauses, and the heap size.
    struct Shape {
        full_traced: u64,
        minor_traced: u64,
        allocated: u64,
        heap: u64,
    }

    /// `jbb` on perfbench's 64 MiB heap: a 38.7 MiB resident set, 25 MiB
    /// allocated per cycle, 0.141 MiB of it surviving to the next.
    const JBB: Shape = Shape {
        full_traced: 38_700 * MIB / 1000,
        minor_traced: 141 * MIB / 1000,
        allocated: 25 * MIB,
        heap: 64 * MIB,
    };

    /// `javac` on a 32 MiB heap: 9.8 MiB of young survivors per 9.4 MiB
    /// allocated, so a minor cycle frees next to nothing.
    const JAVAC: Shape = Shape {
        full_traced: 23_700 * MIB / 1000,
        minor_traced: 9_800 * MIB / 1000,
        allocated: 9_400 * MIB / 1000,
        heap: 32 * MIB,
    };

    /// Runs `n` cycles of `shape` through `policy`, starting with a
    /// cycle of kind `first`; returns the kinds run, `first` included.
    fn drive(
        policy: &mut MinorPolicy,
        first: CycleKind,
        shape: &Shape,
        n: usize,
    ) -> Vec<CycleKind> {
        let mut kinds = vec![first];
        while kinds.len() < n {
            let kind = *kinds.last().unwrap();
            let traced = match kind {
                CycleKind::Full => shape.full_traced,
                CycleKind::Minor => shape.minor_traced,
            };
            kinds.push(policy.next_kind(&CycleOutcome {
                kind,
                traced,
                predicted: traced,
                allocated: shape.allocated,
                heap: shape.heap,
            }));
        }
        kinds
    }

    fn minors(kinds: &[CycleKind]) -> usize {
        kinds.iter().filter(|&&k| k == CycleKind::Minor).count()
    }

    #[test]
    fn jbb_shaped_heap_runs_about_45_minor_cycles_per_full_one() {
        let mut policy = MinorPolicy::default();
        let kinds = drive(&mut policy, CycleKind::Full, &JBB, 470);
        let fulls: Vec<usize> = (0..kinds.len())
            .filter(|&i| kinds[i] == CycleKind::Full)
            .collect();
        assert!(fulls.len() >= 9, "{fulls:?}");
        for pair in fulls.windows(2) {
            let run = pair[1] - pair[0] - 1;
            // A quarter of the 25.3 MiB headroom at 0.141 MiB per minor
            // cycle.
            assert_eq!(run, 45, "minor cycles between fulls {fulls:?}");
        }
    }

    #[test]
    fn javac_shaped_heap_stays_full() {
        let mut policy = MinorPolicy::default();
        let kinds = drive(&mut policy, CycleKind::Full, &JAVAC, 150);
        // Probes at cycles 2, 5, 10, 19, 36, 69, 134: each fails and
        // doubles the suspension, up to 2^6 full cycles.
        assert_eq!(minors(&kinds), 7, "{kinds:?}");
        assert_eq!(
            kinds[1],
            CycleKind::Minor,
            "the first full cycle is followed by a probe"
        );
        assert_eq!(
            kinds[2],
            CycleKind::Full,
            "a failed probe is followed by a full cycle"
        );
        assert_eq!(policy.failed_probes, MAX_FAILED_PROBES);
        // Once capped, minor cycles are a small fraction for good.
        let later = drive(&mut policy, CycleKind::Full, &JAVAC, 1000);
        assert!(minors(&later) * 50 < later.len(), "{}", minors(&later));
    }

    #[test]
    fn phase_changes_suspend_and_resume_minor_cycles() {
        let mut policy = MinorPolicy::default();
        let jbb = drive(&mut policy, CycleKind::Full, &JBB, 30);
        assert_eq!(minors(&jbb), 29);
        // The workload turns javac-shaped: the next minor cycle fails
        // its probe, and so do the probes after it.
        let javac = drive(&mut policy, CycleKind::Minor, &JAVAC, 40);
        assert_eq!(javac[1], CycleKind::Full);
        assert!(minors(&javac) <= 5, "{javac:?}");
        assert!(policy.failed_probes >= 3);
        // Back to jbb's shape: the first probe after the suspension
        // succeeds, the failure count resets, and minors run on.
        let mut kinds = drive(&mut policy, CycleKind::Full, &JBB, 80);
        let first_probe = kinds.iter().position(|&k| k == CycleKind::Minor).unwrap();
        assert!(first_probe <= 1 << MAX_FAILED_PROBES, "{first_probe}");
        kinds.drain(..first_probe);
        assert_eq!(policy.failed_probes, 0);
        assert!(minors(&kinds[..40]) == 40, "{kinds:?}");
    }

    #[test]
    fn a_minor_cycle_that_promotes_past_a_quarter_of_the_headroom_is_followed_by_a_full_one() {
        let mut policy = MinorPolicy::default();
        let full = |traced| CycleOutcome {
            kind: CycleKind::Full,
            traced,
            predicted: traced,
            allocated: 10 * MIB,
            heap: 64 * MIB,
        };
        let minor = |traced| CycleOutcome {
            kind: CycleKind::Minor,
            traced,
            ..full(traced)
        };
        // 44 MiB traced leaves 20 MiB of headroom: a 5 MiB budget.
        assert_eq!(policy.next_kind(&full(44 * MIB)), CycleKind::Minor);
        assert_eq!(policy.next_kind(&minor(2 * MIB)), CycleKind::Minor);
        assert_eq!(policy.next_kind(&minor(3 * MIB)), CycleKind::Minor);
        assert_eq!(policy.next_kind(&minor(MIB)), CycleKind::Full);
        // The full cycle resets the budget.
        assert_eq!(policy.next_kind(&full(44 * MIB)), CycleKind::Minor);
        assert_eq!(policy.next_kind(&minor(4 * MIB)), CycleKind::Minor);
    }

    /// From a cold start's guessed `L` (35% of a 60%-resident heap), the
    /// pacer's prediction converges over full cycles before minor
    /// cycles begin.
    #[test]
    fn minor_cycles_wait_for_the_full_cycle_prediction_to_converge() {
        let mut pacer = pacer(64 << 20);
        let resident = (64u64 << 20) * 6 / 10;
        let mut kinds = Vec::new();
        for _ in 0..4 {
            let predicted = pacer.l_est() as u64;
            pacer.end_cycle(resident, 1 << 20);
            kinds.push(pacer.plan_next(&CycleOutcome {
                kind: CycleKind::Full,
                traced: resident,
                predicted,
                allocated: 25 << 20,
                heap: 64 << 20,
            }));
            if kinds.last() == Some(&CycleKind::Minor) {
                break;
            }
        }
        assert_eq!(kinds, [CycleKind::Full, CycleKind::Full, CycleKind::Minor]);
    }
}
