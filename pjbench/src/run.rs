//! What one invocation measures and how it is printed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use punct_types::{StreamElement, Timestamped};

use crate::check::{Checker, Latencies};
use crate::host::HeapPeak;
use crate::stats::{interquartile_mean, median, pooled_drift, DueTimes, Histogram};

/// End-to-end metrics, printed by every workload with `--trace 0`, in
/// the order and with the units of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "1/s"),
    ("setup_s", "s"),
    ("cpu_ns_per_element", "ns"),
    ("peak_heap_growth_mb", "MB"),
    ("cost_drift", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.tuple_call_ns", "ns"),
    ("core.punct_call_ns", "ns"),
    ("core.punct_call_drift", "ratio"),
    ("core.finish_ns", "ns"),
    ("core.memory_join_ns", "ns"),
    ("core.purge_ns", "ns"),
    ("core.index_build_ns", "ns"),
    ("core.propagation_ns", "ns"),
    ("core.purge_runs", "count"),
    ("core.tuples_purged", "count"),
    ("core.index_builds", "count"),
    ("core.propagation_runs", "count"),
    ("core.puncts_propagated", "count"),
    ("core.dropped_on_fly", "count"),
    ("core.punct_inserted", "count"),
    ("core.punct_live_end", "count"),
    ("core.state_tuples_peak", "count"),
    ("exec.push_ns", "ns"),
    ("exec.poll_ns", "ns"),
    ("exec.recv_wait_ns", "ns"),
    ("exec.finish_ns", "ns"),
    ("exec.router_batches_per_kelem", "count"),
    ("exec.aligner_acquisitions", "count"),
    ("exec.merge_puncts_held", "count"),
    ("exec.generator_late_max_us", "us"),
    ("cluster.bind_ns", "ns"),
    ("cluster.accept_ns", "ns"),
    ("cluster.push_ns", "ns"),
    ("cluster.poll_ns", "ns"),
    ("cluster.finish_ns", "ns"),
    ("cluster.sender_reconnects", "count"),
    ("cluster.worker_memory_join_ns", "ns"),
    ("cluster.worker_purge_ns", "ns"),
    ("cluster.worker_propagation_ns", "ns"),
    ("net.elements_received", "count"),
    ("net.elements_per_read", "ratio"),
    ("net.bytes_per_element", "bytes"),
    ("net.stalls", "count"),
    ("net.decode_ns", "ns"),
    ("bench.feed_ns", "ns"),
    ("bench.check_ns", "ns"),
    ("output.release_ns", "ns"),
    ("lat.result_p50_us", "us"),
    ("lat.punct_p50_us", "us"),
    ("tail.result_latency_p99_us", "us"),
    ("tail.punct_latency_p99_us", "us"),
    ("trace.accounted_share", "ratio"),
    ("trace.throughput_eps", "1/s"),
];

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The element of a timestamped output, for [`RunStats::check_batch`].
pub fn item(o: &Timestamped<StreamElement>) -> &StreamElement {
    &o.item
}

/// Nanoseconds since `start`.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Set-up samples a run keeps. They are reserved before the heap
/// baseline, so that keeping them does not count as growth.
const SETUP_SAMPLES: usize = 1 << 15;

/// A layer of the calling thread's timeline in a traced run.
#[derive(Clone, Copy)]
pub enum Layer {
    /// The benchmark's own loop: cloning the next input, due times,
    /// drift and heap sampling, reading the program's gauges, and any
    /// time the caller was descheduled outside a program call or check.
    /// It is what is left of a round's wall time once the other layers
    /// are charged.
    Feed,
    /// The benchmark's output checks.
    Check,
    /// Dropping the outputs the program handed over once they are
    /// checked: freeing what the program allocated for each of them.
    Release,
    CoreTuple,
    CorePunct,
    CoreFinish,
    ExecPush,
    ExecPoll,
    ExecRecvWait,
    ExecFinish,
    ClusterPush,
    ClusterPoll,
    ClusterFinish,
}

const LAYERS: usize = Layer::ClusterFinish as usize + 1;

/// Caller-side time by layer over a traced run: each span of the
/// calling thread's timeline is charged to exactly one layer, and
/// [`Layer::Feed`] takes the stretches between the others.
#[derive(Default)]
pub struct Ledger {
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Ledger {
    #[inline]
    pub fn charge(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += 1;
    }

    pub fn total(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Mean ns per call charged to `layer` (0 when never called).
    pub fn mean(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            0.0
        } else {
            self.ns[layer as usize] as f64 / calls as f64
        }
    }

    /// Every ns charged to a program call, the output check or the
    /// release of outputs: all layers but [`Layer::Feed`].
    pub fn accounted(&self) -> u64 {
        self.ns.iter().sum::<u64>() - self.total(Layer::Feed)
    }
}

/// What one round measured.
pub struct Round {
    pub elements: u64,
    /// From the first push to the return of the finishing call.
    pub wall_ns: u64,
    /// CPU time of every thread of the process over the round.
    pub cpu_ns: u64,
    pub drift: Option<(f64, f64)>,
}

/// Everything one invocation measures, filled in round by round.
pub struct RunStats {
    setups: Vec<Duration>,
    pub round_eps: Vec<f64>,
    pub round_cpu_per_element: Vec<f64>,
    round_drift: Vec<(f64, f64)>,
    round_heap_mb: Vec<f64>,
    pub round_latency_p50: Vec<(f64, f64)>,
    round_wall_ns: u64,
    /// The current round's latencies; folded into `lat_run` at its end.
    pub lat: Latencies,
    lat_run: Latencies,
    pub heap: HeapPeak,
    pub attempted: u64,
    pub ledger: Ledger,
    /// Per-layer values that are not caller-side times.
    pub layers: BTreeMap<&'static str, f64>,
}

impl RunStats {
    /// Starts a run. The heap baseline is retaken by
    /// [`start_rounds`](RunStats::start_rounds).
    pub fn new() -> RunStats {
        RunStats {
            setups: Vec::with_capacity(SETUP_SAMPLES),
            round_eps: Vec::new(),
            round_cpu_per_element: Vec::new(),
            round_drift: Vec::new(),
            round_heap_mb: Vec::new(),
            round_latency_p50: Vec::new(),
            round_wall_ns: 0,
            lat: Latencies::default(),
            lat_run: Latencies::default(),
            heap: HeapPeak::new(),
            attempted: 0,
            ledger: Ledger::default(),
            layers: BTreeMap::new(),
        }
    }

    /// Takes the heap baseline once inputs, the reference join and the
    /// set-up samples exist, so that none of them counts as growth.
    pub fn start_rounds(&mut self) {
        self.heap = HeapPeak::new();
    }

    /// Records one finished round.
    pub fn end_round(&mut self, round: Round) -> Result<(), String> {
        self.round_heap_mb.push(self.heap.end_round());
        self.attempted += round.elements;
        self.round_wall_ns += round.wall_ns;
        self.round_eps
            .push(round.elements as f64 * 1e9 / round.wall_ns as f64);
        self.round_cpu_per_element
            .push(round.cpu_ns as f64 / round.elements as f64);
        self.round_drift.extend(round.drift);
        let p50 = |h: &Histogram, what: &str| {
            h.percentile(0.5)
                .map(|ns| ns / 1e3)
                .ok_or_else(|| format!("too few {what} latencies"))
        };
        self.round_latency_p50.push((
            p50(&self.lat.result, "result")?,
            p50(&self.lat.punct, "punctuation")?,
        ));
        self.lat_run.result.merge(&self.lat.result);
        self.lat_run.punct.merge(&self.lat.punct);
        self.lat.clear();
        Ok(())
    }

    /// Keeps one set-up time, while the reserved room lasts.
    pub fn add_setup(&mut self, d: Duration) {
        if self.setups.len() < self.setups.capacity() {
            self.setups.push(d);
        }
    }

    /// Checks a batch of outputs received at `now` (ns into the round)
    /// and drops them, leaving `batch` empty. `traced` is the round's
    /// start in a traced run: the check and the drop are then charged to
    /// their layers and the clock after both is returned. Untraced, no
    /// clock is read and `now` is returned.
    pub fn check_batch<T>(
        &mut self,
        checker: &mut Checker,
        due: &DueTimes,
        batch: &mut Vec<T>,
        item: impl Fn(&T) -> &StreamElement,
        now: u64,
        traced: Option<Instant>,
    ) -> Result<u64, String> {
        for o in batch.iter() {
            checker.on_output(item(o), now, due, &mut self.lat)?;
        }
        let Some(start) = traced else {
            batch.clear();
            return Ok(now);
        };
        let checked = ns_since(start);
        batch.clear();
        let released = ns_since(start);
        self.ledger.charge(Layer::Check, checked - now);
        self.ledger.charge(Layer::Release, released - checked);
        Ok(released)
    }

    pub fn set(&mut self, layer: &'static str, value: f64) {
        self.layers.insert(layer, value);
    }

    /// The end-to-end metrics, or the first one that cannot be formed:
    /// medians over rounds, but for set-up and drift.
    pub fn end_to_end(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        [
            ("throughput_eps", median(&self.round_eps)),
            ("setup_s", interquartile_mean(&self.setups)),
            ("cpu_ns_per_element", median(&self.round_cpu_per_element)),
            ("peak_heap_growth_mb", median(&self.round_heap_mb)),
            ("cost_drift", pooled_drift(&self.round_drift)),
        ]
        .into_iter()
        .map(|(name, v)| {
            v.map(|v| (name, v))
                .ok_or_else(|| format!("no value for {name}"))
        })
        .collect()
    }

    /// The per-layer metrics; layers the workload did not run read 0.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        for (k, v) in &self.layers {
            m.insert(k, *v);
        }
        let per_element = |ns: u64| ns as f64 / self.attempted.max(1) as f64;
        m.insert("bench.feed_ns", per_element(self.ledger.total(Layer::Feed)));
        m.insert(
            "bench.check_ns",
            per_element(self.ledger.total(Layer::Check)),
        );
        m.insert(
            "output.release_ns",
            per_element(self.ledger.total(Layer::Release)),
        );
        if self.round_wall_ns > 0 {
            m.insert(
                "trace.accounted_share",
                self.ledger.accounted() as f64 / self.round_wall_ns as f64,
            );
        }
        m.insert(
            "trace.throughput_eps",
            median(&self.round_eps).unwrap_or(0.0),
        );
        // Median latencies are each run's best round: on a shared host
        // CPU steal comes in bursts of seconds and only ever delays a
        // result, and a burst during one round moves its median by tens
        // of percent.
        let least = |f: fn(&(f64, f64)) -> f64| {
            self.round_latency_p50
                .iter()
                .map(f)
                .reduce(f64::min)
                .unwrap_or(0.0)
        };
        m.insert("lat.result_p50_us", least(|l| l.0));
        m.insert("lat.punct_p50_us", least(|l| l.1));
        let p99 = |h: &Histogram| h.percentile(0.99).map_or(0.0, |ns| ns / 1e3);
        m.insert("tail.result_latency_p99_us", p99(&self.lat_run.result));
        m.insert("tail.punct_latency_p99_us", p99(&self.lat_run.punct));
        m
    }
}

/// The final line: one JSON object with the run's verdict and metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    names: &[(&str, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .filter_map(|(name, unit)| {
            metrics
                .get(name)
                .map(|v| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounted_time_leaves_out_the_loop() {
        let mut l = Ledger::default();
        l.charge(Layer::Feed, 10);
        l.charge(Layer::CoreTuple, 60);
        l.charge(Layer::CoreTuple, 20);
        l.charge(Layer::Check, 7);
        l.charge(Layer::Release, 3);
        assert_eq!(l.accounted(), 90);
        assert_eq!(l.mean(Layer::CoreTuple), 40.0);
        assert_eq!(l.mean(Layer::ExecPush), 0.0);
    }

    #[test]
    fn set_up_samples_stop_at_the_reserved_room() {
        let mut run = RunStats::new();
        let room = run.setups.capacity();
        for _ in 0..room + 5 {
            run.add_setup(Duration::from_micros(2));
        }
        assert_eq!(run.setups.len(), room);
        assert_eq!(run.setups.capacity(), room, "no growth after the baseline");
    }
}
