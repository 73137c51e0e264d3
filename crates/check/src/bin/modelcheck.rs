//! Model-checker smoke runner for CI: explores the faithful protocols
//! (must pass exhaustively) and every mutation (must be caught), within
//! a bounded state count. Exits nonzero on any unexpected outcome — an
//! `Inconclusive` (budget exhausted) is always unexpected, so a bounded
//! run can never masquerade as a pass.
//!
//! Usage: `modelcheck [--max-states N] [--report PATH]`
//!
//! The state budget may also be set with the `MCGC_MODELCHECK_BUDGET`
//! environment variable (the CLI flag wins); CI uses it to keep the
//! full 6-model × mutation matrix inside a fixed time budget, and
//! uploads the `--report` file as an artifact.

use mcgc_check::{
    AllocModel, AllocMutation, BarrierModel, BarrierMutation, BarrierScene, Explorer, Outcome,
    PoolModel, PoolMutation, SchedModel, SchedMutation, SeqlockModel, SeqlockMutation, ShardModel,
    ShardMutation,
};
use std::io::Write as _;

struct Case {
    name: &'static str,
    expect_violation: bool,
    run: Box<dyn Fn(&Explorer) -> Outcome>,
}

fn pool_case(name: &'static str, model: PoolModel, expect_violation: bool) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&model)),
    }
}

fn alloc_case(name: &'static str, mutation: AllocMutation, expect_violation: bool) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&AllocModel { mutation })),
    }
}

fn barrier_case(
    name: &'static str,
    scene: BarrierScene,
    mutation: BarrierMutation,
    expect_violation: bool,
) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&BarrierModel { mutation, scene })),
    }
}

fn sched_case(name: &'static str, model: SchedModel, expect_violation: bool) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&model)),
    }
}

fn seqlock_case(name: &'static str, mutation: SeqlockMutation, expect_violation: bool) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&SeqlockModel { mutation })),
    }
}

fn shard_case(name: &'static str, model: ShardModel, expect_violation: bool) -> Case {
    Case {
        name,
        expect_violation,
        run: Box::new(move |e| e.run(&model)),
    }
}

fn cases() -> Vec<Case> {
    vec![
        // §4 packet pool (PR 2).
        pool_case(
            "pool/produce-consume (faithful)",
            PoolModel::produce_consume(PoolMutation::None),
            false,
        ),
        pool_case(
            "pool/aba (faithful)",
            PoolModel::aba(PoolMutation::None),
            false,
        ),
        pool_case(
            "pool/produce-consume -fence (§5.1 deleted)",
            PoolModel::produce_consume(PoolMutation::SkipPublishFence),
            true,
        ),
        pool_case(
            "pool/aba -tag (footnote 4 deleted)",
            PoolModel::aba(PoolMutation::NoAbaTag),
            true,
        ),
        pool_case(
            "pool/produce-consume counter-before-op (§4.3 reversed)",
            PoolModel::produce_consume(PoolMutation::CounterBeforeOp),
            true,
        ),
        // §5.2 allocation publication.
        alloc_case("alloc/publish (faithful)", AllocMutation::None, false),
        alloc_case(
            "alloc/publish -fence (§5.2 publication fence deleted)",
            AllocMutation::SkipPublishFence,
            true,
        ),
        alloc_case(
            "alloc/publish -bit-test (§5.2 deferral deleted)",
            AllocMutation::SkipBitTest,
            true,
        ),
        // §2/§5.3 write barrier + card snapshot (PR 2).
        barrier_case(
            "barrier/marking (faithful)",
            BarrierScene::Full,
            BarrierMutation::None,
            false,
        ),
        barrier_case(
            "barrier/marking -card-mark (write barrier deleted)",
            BarrierScene::Full,
            BarrierMutation::SkipCardMark,
            true,
        ),
        barrier_case(
            "barrier/marking -handshake (§5.3 step 2 deleted)",
            BarrierScene::Full,
            BarrierMutation::SkipHandshake,
            true,
        ),
        // Minor cycles on sticky mark bits: the kickoff's remembered set.
        barrier_case(
            "barrier/minor (faithful)",
            BarrierScene::Minor,
            BarrierMutation::None,
            false,
        ),
        barrier_case(
            "barrier/minor kickoff clears cards (remembered set dropped)",
            BarrierScene::Minor,
            BarrierMutation::KickoffClearsCards,
            true,
        ),
        barrier_case(
            "barrier/minor kickoff -handshake (§5.3 step 2 deleted)",
            BarrierScene::Minor,
            BarrierMutation::KickoffSkipsHandshake,
            true,
        ),
        // Card elision for stores into the caller's unpublished objects.
        barrier_case(
            "barrier/unpublished holder (faithful elision)",
            BarrierScene::Unpublished,
            BarrierMutation::None,
            false,
        ),
        barrier_case(
            "barrier/unpublished holder -card for a published holder",
            BarrierScene::Unpublished,
            BarrierMutation::ElidePublishedHolder,
            true,
        ),
        // Unified GC scheduler (retired gang's session/bucket successor).
        sched_case(
            "sched/session (faithful)",
            SchedModel::session(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/session spurious-wakeups (faithful)",
            SchedModel::session_spurious(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/participation rendezvous (faithful)",
            SchedModel::participation(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/shutdown-race (faithful)",
            SchedModel::shutdown_race(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/worker-panic (faithful: aborts, no strand)",
            SchedModel::worker_panic(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/leader-panic (faithful: guard drains bucket)",
            SchedModel::leader_panic(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/condemned (faithful: watchdog re-queues, §4.3 fires)",
            SchedModel::condemned(SchedMutation::None),
            false,
        ),
        sched_case(
            "sched/missed-open-notify (session wakeup deleted)",
            SchedModel::catching(SchedMutation::MissedOpenNotify),
            true,
        ),
        sched_case(
            "sched/park-misses-open (predicate checked outside lock)",
            SchedModel::catching(SchedMutation::ParkMissesOpen),
            true,
        ),
        sched_case(
            "sched/missed-shutdown-notify (join wakeup deleted)",
            SchedModel::catching(SchedMutation::MissedShutdownNotify),
            true,
        ),
        sched_case(
            "sched/split-claim (last_seq dedup deleted)",
            SchedModel::catching(SchedMutation::SplitClaim),
            true,
        ),
        sched_case(
            "sched/open-before-drained (executing-wait deleted)",
            SchedModel::catching(SchedMutation::OpenBeforeDrained),
            true,
        ),
        sched_case(
            "sched/wait-before-clear (drain guard steps swapped)",
            SchedModel::catching(SchedMutation::WaitBeforeClear),
            true,
        ),
        sched_case(
            "sched/unwind-past-drain (DrainGuard deleted)",
            SchedModel::catching(SchedMutation::UnwindPastDrain),
            true,
        ),
        sched_case(
            "sched/panic-no-abort (worker abort contract deleted)",
            SchedModel::catching(SchedMutation::PanicNoAbort),
            true,
        ),
        sched_case(
            "sched/skip-condemn (§4.3 watchdog deleted)",
            SchedModel::catching(SchedMutation::SkipCondemn),
            true,
        ),
        // Flight-recorder seqlock slot (PR 6).
        seqlock_case("seqlock/slot (faithful)", SeqlockMutation::None, false),
        seqlock_case(
            "seqlock/-begin-fence (the protocol PR 6 shipped)",
            SeqlockMutation::SkipBeginFence,
            true,
        ),
        seqlock_case(
            "seqlock/-complete-release (even store unordered)",
            SeqlockMutation::SkipCompletePublish,
            true,
        ),
        seqlock_case(
            "seqlock/-revalidation (reader second check deleted)",
            SeqlockMutation::SkipSecondCheck,
            true,
        ),
        seqlock_case(
            "seqlock/ticket-reuse (cursor never advances)",
            SeqlockMutation::TicketReuse,
            true,
        ),
        // Sharded free-list refill (PR 4).
        shard_case(
            "shard/refill (faithful)",
            ShardModel::main(ShardMutation::None),
            false,
        ),
        shard_case(
            "shard/contend (faithful)",
            ShardModel::contend(ShardMutation::None),
            false,
        ),
        shard_case(
            "shard/count-after-push (free order reversed)",
            ShardModel::catching(ShardMutation::FreeCountsAfterPush),
            true,
        ),
        shard_case(
            "shard/mask-clear-outside-lock",
            ShardModel::catching(ShardMutation::MaskClearOutsideLock),
            true,
        ),
        shard_case(
            "shard/no-mask-set-on-free",
            ShardModel::catching(ShardMutation::SkipMaskSetOnFree),
            true,
        ),
        shard_case(
            "shard/no-fallback-sweep (spurious OOM)",
            ShardModel::catching(ShardMutation::SkipFallbackSweep),
            true,
        ),
        shard_case(
            "shard/racy-take (lock deleted)",
            ShardModel::catching(ShardMutation::RacyTake),
            true,
        ),
    ]
}

fn main() {
    let mut max_states = Explorer::default().max_states;
    if let Ok(v) = std::env::var("MCGC_MODELCHECK_BUDGET") {
        max_states = v
            .parse()
            .expect("MCGC_MODELCHECK_BUDGET must be a state count");
    }
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-states" => {
                let v = args.next().expect("--max-states needs a value");
                max_states = v.parse().expect("--max-states value must be a number");
            }
            "--report" => {
                report_path = Some(args.next().expect("--report needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let explorer = Explorer::new(max_states);

    let cases = cases();
    let mut report = String::new();
    report.push_str(&format!(
        "modelcheck report: {} cases, budget {max_states} states/case\n\n",
        cases.len()
    ));
    let mut failures = 0;
    for case in &cases {
        let start = std::time::Instant::now();
        let outcome = (case.run)(&explorer);
        let elapsed = start.elapsed();
        let (ok, detail) = match &outcome {
            Outcome::Pass { states, finals } => (
                !case.expect_violation,
                format!("pass ({states} states, {finals} final)"),
            ),
            Outcome::Violation { states, message } => (
                case.expect_violation,
                format!("violation after {states} states: {message}"),
            ),
            Outcome::Inconclusive { states, budget } => (
                false,
                format!("INCONCLUSIVE: state budget {budget} exhausted at {states} states"),
            ),
        };
        let verdict = if ok { "ok " } else { "FAIL" };
        let line = format!("{verdict} {:<58} {detail} [{elapsed:.2?}]", case.name);
        println!("{line}");
        report.push_str(&line);
        report.push('\n');
        if !ok {
            failures += 1;
        }
    }
    let summary = if failures > 0 {
        format!("{failures} case(s) had unexpected outcomes")
    } else {
        format!("all {} cases behaved as expected", cases.len())
    };
    report.push_str(&format!("\n{summary}\n"));
    if let Some(path) = report_path {
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create report {path}: {e}"));
        f.write_all(report.as_bytes()).expect("write report");
        println!("report written to {path}");
    }
    if failures > 0 {
        eprintln!("{summary}");
        std::process::exit(1);
    }
    println!("{summary}");
}
