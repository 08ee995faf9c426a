//! One benchmark from the bare PJoin operator to the loopback cluster.
//!
//! ```text
//! pjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs whole rounds of one workload for about `--seconds`, checks every
//! output against a join computed apart from the program, and prints as
//! its last line one JSON object: `correct`, `attempted` and `failed`
//! input elements, and the metrics — end to end with `--trace 0`, per
//! layer with `--trace 1`. See README.md for what each number means.

mod check;
mod cluster;
mod gen;
mod host;
mod operator;
mod run;
mod sharded;
mod stats;

use pjoin::framework::{Component, FrameworkProfile};
use pjoin::PJoinStats;

use crate::run::{result_line, Args, RunStats, END_TO_END, PER_LAYER};

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &[
    "operator_punct_dense",
    "operator_probe_heavy",
    "sharded_paced",
    "cluster_loopback",
];

/// The `core.*` figures every operator-hosting workload shares, per
/// round.
pub fn record_core(
    run: &mut RunStats,
    stats: &PJoinStats,
    profile: &FrameworkProfile,
    rounds: f64,
) {
    let wall = |c: Component| profile.component(c).wall_ns as f64 / rounds;
    run.set("core.purge_ns", wall(Component::StatePurge));
    run.set("core.index_build_ns", wall(Component::IndexBuild));
    run.set("core.propagation_ns", wall(Component::Propagation));
    let per_round = |v: u64| v as f64 / rounds;
    run.set("core.purge_runs", per_round(stats.purge_runs));
    run.set("core.tuples_purged", per_round(stats.tuples_purged));
    run.set("core.index_builds", per_round(stats.index_builds));
    run.set("core.propagation_runs", per_round(stats.propagation_runs));
    run.set("core.puncts_propagated", per_round(stats.puncts_propagated));
    run.set("core.dropped_on_fly", per_round(stats.dropped_on_fly));
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pjbench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = host::steal_ms();
    let outcome = match args.workload.as_str() {
        "operator_punct_dense" => operator::run_punct_dense(&args),
        "operator_probe_heavy" => operator::run_probe_heavy(&args),
        "sharded_paced" => sharded::run(&args),
        "cluster_loopback" => cluster::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("pjbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (metrics, names) = if args.trace {
        (run.per_layer(), PER_LAYER)
    } else {
        match run.end_to_end() {
            Ok(m) => (m, END_TO_END),
            Err(e) => {
                eprintln!("pjbench: {}: {e}", args.workload);
                std::process::exit(1);
            }
        }
    };
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("pjbench: {}: {name} is {v}", args.workload);
        std::process::exit(1);
    }
    // Per-round figures, for judging the run's own spread.
    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ")
    };
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores\": {}, \"steal_ms\": {}, \"rounds\": {}, \"round_eps\": [{}], \"round_cpu_ns_per_element\": [{}], \"round_result_p50_us\": [{}]}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::cores(),
        host::steal_ms().saturating_sub(steal0),
        run.round_eps.len(),
        list(&mut run.round_eps.iter().copied()),
        list(&mut run.round_cpu_per_element.iter().copied()),
        list(&mut run.round_latency_p50.iter().map(|l| l.0)),
    );
    println!("{}", result_line(true, run.attempted, 0, &metrics, names));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists printed here are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let listed = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in("workloads"), WORKLOADS);
        assert_eq!(names_in("end_to_end"), listed(END_TO_END));
        assert_eq!(names_in("per_layer"), listed(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = text
                .find(&format!("\"name\": \"{name}\""))
                .expect("metric listed");
            assert!(
                text[at..]
                    .lines()
                    .next()
                    .unwrap()
                    .contains(&format!("\"unit\": \"{unit}\"")),
                "unit of {name}"
            );
        }
    }
}
