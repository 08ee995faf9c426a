//! The bare operator, single-threaded, with the default configuration:
//! `operator_punct_dense` over the close-per-key shape and
//! `operator_probe_heavy` over the paper's generator.

use std::time::Instant;

use pjoin::{PJoin, PJoinConfig};
use punct_types::StreamElement;
use stream_sim::{BinaryStreamOp, OpOutput};

use crate::check::{Checker, Reference};
use crate::gen::{close_per_key, paper, Feed, WIDTH};
use crate::host::cpu_ns;
use crate::run::{ns_since, Args, Layer, Round, RunStats};
use crate::stats::{DriftMeter, DueTimes};

/// Close-per-key groups per round: 4 elements each, ~262k elements.
const KEYS: usize = 65_536;
/// Room for the outputs of one call, reserved before the heap baseline.
const HELD: usize = 1 << 12;
/// Operators constructed before each round to time set-up.
const SETUPS_PER_ROUND: usize = 1024;

pub fn run_punct_dense(args: &Args) -> Result<RunStats, String> {
    run(args, close_per_key(KEYS, args.seed))
}

pub fn run_probe_heavy(args: &Args) -> Result<RunStats, String> {
    // The paper's §4 setup: ~40 tuples per punctuation, key window 10,
    // ~19 results per input element.
    run(args, paper(100_000, 40.0, 10, 2_000.0, args.seed))
}

fn run(args: &Args, feed: Feed) -> Result<RunStats, String> {
    let reference = Reference::new(&feed);
    let mut config = PJoinConfig::new(WIDTH, WIDTH);
    if args.trace {
        config = config.with_tracing();
    }
    let n = feed.len();
    let end_ts = feed.elements[n - 1].1.ts;
    let mut run = RunStats::new();
    let (mut punct_early, mut punct_late) = ((0u64, 0u64), (0u64, 0u64));
    let (mut state_peak, mut inserted, mut live_end) = (0usize, 0usize, 0usize);
    let mut stats = pjoin::PJoinStats::default();
    let mut profile = pjoin::framework::FrameworkProfile::new();
    // The benchmark's own per-round state is allocated before the heap
    // baseline and reused.
    let mut checker = Checker::new(&reference);
    let mut due = DueTimes::on_push(n);
    let mut out = OpOutput::new();
    let mut held: Vec<StreamElement> = Vec::with_capacity(HELD);
    run.start_rounds();
    let started = Instant::now();
    while run.round_eps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        // Set-up is timed before every round, so that its samples see
        // the whole run's conditions rather than its first moments.
        for _ in 0..SETUPS_PER_ROUND {
            let c = config.clone();
            let t = Instant::now();
            let op = PJoin::new(c);
            run.add_setup(t.elapsed());
            drop(op);
        }
        let mut op = PJoin::new(config.clone());
        checker.reset();
        due.reset();
        let mut drift = DriftMeter::new(n as u64);
        let start = Instant::now();
        let traced = args.trace.then_some(start);
        let cpu0 = cpu_ns();
        let mut mark = 0u64;
        for (i, (side, e)) in feed.elements.iter().enumerate() {
            let element = e.item.clone();
            let is_tuple = element.is_tuple();
            let t0 = ns_since(start);
            due.push(i, t0);
            op.on_element(*side, element, e.ts, &mut out);
            let t1 = ns_since(start);
            held.extend(out.drain());
            let t2 = run.check_batch(&mut checker, &due, &mut held, |o| o, t1, traced)?;
            if args.trace {
                run.ledger.charge(Layer::Feed, t0 - mark);
                let call = t1 - t0;
                if is_tuple {
                    run.ledger.charge(Layer::CoreTuple, call);
                } else {
                    run.ledger.charge(Layer::CorePunct, call);
                    // Punctuation call cost in the drift windows.
                    let at = i as f64 / n as f64;
                    if (0.1..0.3).contains(&at) {
                        punct_early = (punct_early.0 + call, punct_early.1 + 1);
                    } else if at >= 0.8 {
                        punct_late = (punct_late.0 + call, punct_late.1 + 1);
                    }
                }
                mark = t2;
            }
            // Bookkeeping, charged to the next stretch of the loop.
            if drift.wants(i as u64 + 1) {
                drift.note(i as u64 + 1, cpu_ns() - cpu0);
            }
            if i % 1024 == 0 {
                run.heap.tick();
                if args.trace {
                    state_peak = state_peak.max(op.state_tuples());
                }
            }
        }
        let f0 = ns_since(start);
        while op.on_end(end_ts, &mut out) {}
        let f1 = ns_since(start);
        held.extend(out.drain());
        let checked = run.check_batch(&mut checker, &due, &mut held, |o| o, f1, traced)?;
        let wall = ns_since(start);
        checker.finish()?;
        if op.state_tuples() != 0 {
            return Err(format!(
                "operator ends holding {} tuples",
                op.state_tuples()
            ));
        }
        if args.trace {
            run.ledger.charge(Layer::Feed, f0 - mark);
            run.ledger.charge(Layer::CoreFinish, f1 - f0);
            run.ledger.charge(Layer::Feed, wall - checked);
            stats += *op.stats();
            profile.merge(op.profile());
            inserted += op.state_a().index.total() + op.state_b().index.total();
            live_end += op.state_a().index.set().len() + op.state_b().index.set().len();
        }
        run.end_round(Round {
            elements: n as u64,
            wall_ns: wall,
            cpu_ns: cpu_ns() - cpu0,
            drift: drift.windows(),
        })?;
    }
    if args.trace {
        let rounds = run.round_eps.len() as f64;
        run.set("core.tuple_call_ns", run.ledger.mean(Layer::CoreTuple));
        run.set("core.punct_call_ns", run.ledger.mean(Layer::CorePunct));
        run.set("core.finish_ns", run.ledger.mean(Layer::CoreFinish));
        if punct_early.1 > 0 && punct_late.1 > 0 && punct_early.0 > 0 {
            let early = punct_early.0 as f64 / punct_early.1 as f64;
            let late = punct_late.0 as f64 / punct_late.1 as f64;
            run.set("core.punct_call_drift", late / early);
        }
        // Probe and insert happen inside the tuple calls; the program's
        // own memory-join spans run from a burst's first tuple to the
        // next punctuation and so also cover the loop between calls.
        run.set(
            "core.memory_join_ns",
            run.ledger.total(Layer::CoreTuple) as f64 / rounds,
        );
        crate::record_core(&mut run, &stats, &profile, rounds);
        run.set("core.punct_inserted", inserted as f64 / rounds);
        run.set("core.punct_live_end", live_end as f64 / rounds);
        run.set("core.state_tuples_peak", state_peak as f64);
    }
    Ok(run)
}
