//! `cluster_loopback`: a coordinator and one worker thread joined over
//! real loopback sockets, with the cluster's default options.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use punct_cluster::{
    run_worker, Cluster, ClusterError, ClusterOptions, ClusterReport, JoinSpec, WorkerOptions,
    WorkerReport,
};
use punct_trace::{TraceKind, TraceSettings};

use crate::check::{Checker, Reference};
use crate::gen::{close_per_key, WIDTH};
use crate::host::cpu_ns;
use crate::run::{item, ns_since, Args, Layer, Round, RunStats};
use crate::stats::{DriftMeter, DueTimes};

/// Keys per round: ~32k elements, well below the length at which
/// `finish` runs into the fixed control-plane timeout.
const KEYS: usize = 8_192;
/// Empty assemblies before each round to time set-up, besides the
/// round's own.
const SETUPS_PER_ROUND: usize = 2;
/// Pushes between two polls of the output.
const POLL_EVERY: usize = 128;

type Worker = JoinHandle<Result<WorkerReport, ClusterError>>;

fn err(what: &str) -> impl Fn(ClusterError) -> String + '_ {
    move |e| format!("cluster {what}: {e}")
}

/// Binds a coordinator, starts its worker and assembles the cluster.
/// Returns the times spent binding and accepting. A traced run also
/// traces the worker's ingest server, whose decode spans then reach the
/// coordinator in the worker's telemetry.
fn assemble(trace: bool) -> Result<(Cluster, Worker, u64, u64), String> {
    let t0 = Instant::now();
    let mut cluster = Cluster::bind(ClusterOptions::new(JoinSpec::new(WIDTH, WIDTH), 1, 1))
        .map_err(err("bind"))?;
    let ctrl = cluster.ctrl_addr();
    let mut opts = WorkerOptions::new(0, ctrl);
    if trace {
        opts.ingest.trace = TraceSettings::enabled();
    }
    let worker = std::thread::spawn(move || run_worker(opts));
    let bound = ns_since(t0);
    cluster.accept_workers().map_err(err("accept"))?;
    Ok((cluster, worker, bound, ns_since(t0) - bound))
}

fn join(worker: Worker) -> Result<(), String> {
    match worker.join() {
        Ok(r) => r.map(drop).map_err(err("worker")),
        Err(_) => Err("cluster worker panicked".into()),
    }
}

pub fn run(args: &Args) -> Result<RunStats, String> {
    let feed = close_per_key(KEYS, args.seed);
    let reference = Reference::new(&feed);
    let n = feed.len();
    let mut run = RunStats::new();
    let (mut assemblies, mut bind_ns, mut accept_ns) = (0u64, 0u64, 0u64);
    let mut reports: Vec<ClusterReport> = Vec::new();
    // The benchmark's own per-round state is allocated before the heap
    // baseline and reused.
    let mut checker = Checker::new(&reference);
    let mut due = DueTimes::on_push(n);
    run.start_rounds();
    let started = Instant::now();
    while run.round_eps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        // Empty assemblies, so that set-up is averaged over more than the
        // few rounds a run holds, and over the whole run.
        for _ in 0..SETUPS_PER_ROUND {
            let (cluster, worker, b, a) = assemble(args.trace)?;
            run.add_setup(Duration::from_nanos(b + a));
            (assemblies, bind_ns, accept_ns) = (assemblies + 1, bind_ns + b, accept_ns + a);
            cluster.finish().map_err(err("finish"))?;
            join(worker)?;
        }
        let (mut cluster, worker, b, a) = assemble(args.trace)?;
        run.add_setup(Duration::from_nanos(b + a));
        (assemblies, bind_ns, accept_ns) = (assemblies + 1, bind_ns + b, accept_ns + a);
        checker.reset();
        due.reset();
        let mut drift = DriftMeter::new(n as u64);
        let start = Instant::now();
        let traced = args.trace.then_some(start);
        let cpu0 = cpu_ns();
        let mut mark = 0u64;
        for (i, (side, e)) in feed.elements.iter().enumerate() {
            let element = e.clone();
            let t0 = ns_since(start);
            due.push(i, t0);
            cluster.push(*side, element).map_err(err("push"))?;
            let t1 = ns_since(start);
            if args.trace {
                run.ledger.charge(Layer::Feed, t0 - mark);
                run.ledger.charge(Layer::ClusterPush, t1 - t0);
                mark = t1;
            }
            if (i + 1) % POLL_EVERY == 0 {
                let mut outputs = cluster.poll_outputs().map_err(err("poll"))?;
                let t2 = ns_since(start);
                let t3 = run.check_batch(&mut checker, &due, &mut outputs, item, t2, traced)?;
                if args.trace {
                    run.ledger.charge(Layer::ClusterPoll, t2 - t1);
                    mark = t3;
                }
                run.heap.tick();
            }
            if drift.wants(i as u64 + 1) {
                drift.note(i as u64 + 1, cpu_ns() - cpu0);
            }
        }
        let f0 = ns_since(start);
        let mut report = cluster.finish().map_err(err("finish"))?;
        let f1 = ns_since(start);
        let mut outputs = std::mem::take(&mut report.outputs);
        let checked = run.check_batch(&mut checker, &due, &mut outputs, item, f1, traced)?;
        let wall = ns_since(start);
        join(worker)?;
        checker.finish()?;
        let worker_telemetry = report
            .telemetry
            .worker(0)
            .ok_or("no final telemetry from the worker")?;
        let left: u64 = worker_telemetry.shards.iter().map(|s| s.state_tuples).sum();
        if left != 0 {
            return Err(format!("cluster ends holding {left} tuples"));
        }
        if args.trace {
            run.ledger.charge(Layer::Feed, f0 - mark);
            run.ledger.charge(Layer::ClusterFinish, f1 - f0);
            run.ledger.charge(Layer::Feed, wall - checked);
            reports.push(report);
        }
        run.end_round(Round {
            elements: n as u64,
            wall_ns: wall,
            cpu_ns: cpu_ns() - cpu0,
            drift: drift.windows(),
        })?;
    }
    if args.trace {
        record_cluster(
            &mut run,
            &reports,
            bind_ns as f64 / assemblies as f64,
            accept_ns as f64 / assemblies as f64,
        );
    }
    Ok(run)
}

fn record_cluster(run: &mut RunStats, reports: &[ClusterReport], bind: f64, accept: f64) {
    let rounds = reports.len() as f64;
    run.set("cluster.bind_ns", bind);
    run.set("cluster.accept_ns", accept);
    run.set("cluster.push_ns", run.ledger.mean(Layer::ClusterPush));
    run.set("cluster.poll_ns", run.ledger.mean(Layer::ClusterPoll));
    run.set("cluster.finish_ns", run.ledger.mean(Layer::ClusterFinish));
    let reconnects: u32 = reports.iter().map(|r| r.sender_reconnects).sum();
    run.set("cluster.sender_reconnects", reconnects as f64);
    // The ingest counter the program calls `frames_received` counts
    // elements; reads are the decode spans of the ingest server.
    let (mut reads, mut received, mut bytes, mut stalls) = (0u64, 0u64, 0u64, 0u64);
    let mut kind_ns = [0u64; 4];
    let kinds = [
        TraceKind::MemoryJoin,
        TraceKind::Purge,
        TraceKind::Propagation,
        TraceKind::NetDecode,
    ];
    for w in reports.iter().filter_map(|r| r.telemetry.worker(0)) {
        received += w.ingest.frames_received;
        bytes += w.ingest.bytes_received;
        stalls += w.ingest.stalls;
        for s in &w.summaries {
            if let Some(at) = kinds.iter().position(|k| Some(*k) == s.trace_kind()) {
                kind_ns[at] += s.total_dur_ns;
                if kinds[at] == TraceKind::NetDecode {
                    reads += s.count;
                }
            }
        }
    }
    run.set("cluster.worker_memory_join_ns", kind_ns[0] as f64 / rounds);
    run.set("cluster.worker_purge_ns", kind_ns[1] as f64 / rounds);
    run.set("cluster.worker_propagation_ns", kind_ns[2] as f64 / rounds);
    run.set("net.decode_ns", kind_ns[3] as f64 / rounds);
    run.set("net.elements_received", received as f64 / rounds);
    if reads > 0 {
        run.set("net.elements_per_read", received as f64 / reads as f64);
    }
    if received > 0 {
        run.set("net.bytes_per_element", bytes as f64 / received as f64);
    }
    run.set("net.stalls", stalls as f64 / rounds);
}
