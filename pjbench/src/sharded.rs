//! `sharded_paced`: the sharded executor in an open loop that replays
//! the generator's timestamps faster than real time.

use std::time::{Duration, Instant};

use pjoin::framework::FrameworkProfile;
use pjoin::PJoinStats;
use punct_cluster::JoinSpec;
use punct_exec::{ExecConfig, ShardedPJoin};
use punct_trace::TraceSettings;

use crate::check::{Checker, Reference};
use crate::gen::{paper, WIDTH};
use crate::host::cpu_ns;
use crate::run::{item, ns_since, Args, Layer, Round, RunStats};
use crate::stats::{DriftMeter, DueTimes};

/// Executors spawned (and finished) before each round to time set-up.
const SETUPS_PER_ROUND: usize = 32;
/// Pushes between two non-blocking polls of the output.
const POLL_EVERY: usize = 128;
/// Replay speed-up over the generator's timestamps.
const SPEEDUP: u64 = 20;

pub fn run(args: &Args) -> Result<RunStats, String> {
    // 2 ms mean gap per side replayed 20x faster: ~22k elements/s.
    let feed = paper(55_000, 8.0, 4, 2_000.0, args.seed);
    let mut join = JoinSpec::new(WIDTH, WIDTH).pjoin_config();
    if args.trace {
        join.trace = TraceSettings::enabled();
    }
    let config = ExecConfig::new(1, join);
    let reference = Reference::new(&feed);
    let n = feed.len();
    let t0 = feed.elements[0].1.ts.as_micros();
    let schedule: Vec<u64> = feed
        .elements
        .iter()
        .map(|(_, e)| (e.ts.as_micros() - t0) * 1_000 / SPEEDUP)
        .collect();
    let mut run = RunStats::new();
    let mut late_max = 0u64;
    let mut totals = Totals::default();
    let mut state_peak = 0usize;
    // The benchmark's own per-round state is allocated before the heap
    // baseline and reused.
    let mut checker = Checker::new(&reference);
    let mut due = DueTimes::scheduled(schedule);
    run.start_rounds();
    let started = Instant::now();
    while run.round_eps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        // Set-up is timed before every round, so that its samples see
        // the whole run's conditions rather than its first moments.
        for _ in 0..SETUPS_PER_ROUND {
            let c = config.clone();
            let t = Instant::now();
            let ex = ShardedPJoin::spawn(c);
            run.add_setup(t.elapsed());
            let (outputs, _) = ex.finish();
            assert!(outputs.is_empty());
        }
        let ex = ShardedPJoin::spawn(config.clone());
        checker.reset();
        due.reset();
        let mut drift = DriftMeter::new(n as u64);
        let start = Instant::now();
        let traced = args.trace.then_some(start);
        let cpu0 = cpu_ns();
        let mut mark = 0u64;
        let mut i = 0usize;
        while i < n {
            let now = ns_since(start);
            if now < due.due(i) {
                // Ahead of schedule: block for outputs until the next
                // element is due, never spin.
                let mut outputs = ex.recv_outputs(Duration::from_nanos(due.due(i) - now));
                let t1 = ns_since(start);
                let t2 = run.check_batch(&mut checker, &due, &mut outputs, item, t1, traced)?;
                if args.trace {
                    run.ledger.charge(Layer::Feed, now - mark);
                    run.ledger.charge(Layer::ExecRecvWait, t1 - now);
                    mark = t2;
                }
                continue;
            }
            let (side, e) = &feed.elements[i];
            let element = e.clone();
            let t0 = ns_since(start);
            late_max = late_max.max(due.push(i, t0));
            ex.push(*side, element);
            let t1 = ns_since(start);
            i += 1;
            if args.trace {
                run.ledger.charge(Layer::Feed, t0 - mark);
                run.ledger.charge(Layer::ExecPush, t1 - t0);
                mark = t1;
            }
            if i.is_multiple_of(POLL_EVERY) {
                // Behind schedule the loop never blocks; drain anyway.
                let mut outputs = ex.poll_outputs();
                let t2 = ns_since(start);
                let t3 = run.check_batch(&mut checker, &due, &mut outputs, item, t2, traced)?;
                if args.trace {
                    run.ledger.charge(Layer::ExecPoll, t2 - t1);
                    mark = t3;
                    // Charged to the next stretch of the loop.
                    state_peak = state_peak.max(ex.metrics().state_tuples);
                }
                run.heap.tick();
            }
            if drift.wants(i as u64) {
                drift.note(i as u64, cpu_ns() - cpu0);
            }
        }
        let f0 = ns_since(start);
        let (mut outputs, stats) = ex.finish();
        let f1 = ns_since(start);
        let checked = run.check_batch(&mut checker, &due, &mut outputs, item, f1, traced)?;
        let wall = ns_since(start);
        if let Some(err) = &stats.failure {
            return Err(format!("executor failed: {err}"));
        }
        checker.finish()?;
        let left = stats.total_metrics().state_tuples;
        if left != 0 {
            return Err(format!("executor ends holding {left} tuples"));
        }
        if args.trace {
            run.ledger.charge(Layer::Feed, f0 - mark);
            run.ledger.charge(Layer::ExecFinish, f1 - f0);
            run.ledger.charge(Layer::Feed, wall - checked);
            totals.stats += stats.total_stats();
            totals.profile.merge(&stats.total_profile());
            totals.router_batches += stats.router.batches;
            totals.puncts_held += stats.merge.puncts_held;
            totals.aligner_acquisitions += stats.aligner_acquisitions;
        }
        run.end_round(Round {
            elements: n as u64,
            wall_ns: wall,
            cpu_ns: cpu_ns() - cpu0,
            drift: drift.windows(),
        })?;
    }
    if args.trace {
        record_exec(&mut run, &totals, n as f64, state_peak, late_max);
    }
    Ok(run)
}

/// The executor's accounting summed over a traced run's rounds.
#[derive(Default)]
struct Totals {
    stats: PJoinStats,
    profile: FrameworkProfile,
    router_batches: u64,
    puncts_held: u64,
    aligner_acquisitions: u64,
}

fn record_exec(
    run: &mut RunStats,
    totals: &Totals,
    elements: f64,
    state_peak: usize,
    late_max: u64,
) {
    let rounds = run.round_eps.len() as f64;
    // No `core.memory_join_ns`: the shard's memory-join spans run from a
    // burst's first tuple to the next punctuation, idle waits included,
    // and the shard's probe work cannot be timed from the caller.
    crate::record_core(run, &totals.stats, &totals.profile, rounds);
    run.set("core.state_tuples_peak", state_peak as f64);
    run.set("exec.push_ns", run.ledger.mean(Layer::ExecPush));
    run.set("exec.poll_ns", run.ledger.mean(Layer::ExecPoll));
    run.set("exec.recv_wait_ns", run.ledger.mean(Layer::ExecRecvWait));
    run.set("exec.finish_ns", run.ledger.mean(Layer::ExecFinish));
    run.set(
        "exec.router_batches_per_kelem",
        totals.router_batches as f64 * 1e3 / (elements * rounds),
    );
    run.set(
        "exec.aligner_acquisitions",
        totals.aligner_acquisitions as f64 / rounds,
    );
    run.set("exec.merge_puncts_held", totals.puncts_held as f64 / rounds);
    run.set("exec.generator_late_max_us", late_max as f64 / 1e3);
}
