//! The metric tables and the result line.

use crate::check::Tally;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome { correct: true, tally: Tally::default(), metrics: Metrics::new() }
    }
}

/// End-to-end metrics (untraced run), with their units. Every workload
/// reports each of them; `README.md` defines them per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("host_ns_per_flit", "ns/flit"),
    ("delivered_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with their units. A layer that does
/// not run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.pre_ns_per_cycle", "ns/cycle"),
    ("sim.pipeline_ns_per_cycle", "ns/cycle"),
    ("sim.post_ns_per_cycle", "ns/cycle"),
    ("sim.skip_ns_per_cycle", "ns/cycle"),
    ("sim.profile_coverage", "fraction"),
    ("sim.pipeline_ns_per_active_router", "ns/router"),
    ("sim.active_routers_mean", "routers"),
    ("sim.skipped_cycle_frac", "fraction"),
    ("sim.source_backlog_flits", "flits"),
    ("sim.chunk_ms_p50", "ms"),
    ("sim.chunk_ms_p90", "ms"),
    ("sim.chunk_samples", "count"),
    ("fault.flits_dropped", "flits"),
    ("gating.gated_routers_mean", "routers"),
    ("sim.reachable_pairs", "fraction"),
    ("telemetry.overhead_frac", "fraction"),
    ("saturation.wall_s", "s"),
    ("saturation.wall_frac", "fraction"),
    ("closed_loop.nodvfs.point_s_max", "s"),
    ("closed_loop.nodvfs.intervals", "count"),
    ("closed_loop.nodvfs.useful_interval_frac", "fraction"),
    ("closed_loop.rmsd.point_s_max", "s"),
    ("closed_loop.rmsd.intervals", "count"),
    ("closed_loop.rmsd.useful_interval_frac", "fraction"),
    ("closed_loop.dmsd.point_s_max", "s"),
    ("closed_loop.dmsd.intervals", "count"),
    ("closed_loop.dmsd.useful_interval_frac", "fraction"),
    ("closed_loop.self_frac", "fraction"),
    ("power.calls", "count"),
    ("power.ns_per_call", "ns"),
    ("power.point_frac", "fraction"),
    ("controller.calls", "count"),
    ("controller.ns_per_call", "ns"),
    ("controller.point_frac", "fraction"),
    ("executor.workers", "count"),
    ("executor.busy_core_s", "s"),
    ("executor.idle_frac", "fraction"),
    ("executor.longest_point_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.span_coverage", "fraction"),
];

/// Prints one line per metric of `table`, then `failed_frac`, then the
/// result line (the last line of standard output). A metric that is
/// missing from an end-to-end run, or that is not finite, makes the run
/// incorrect.
pub fn print(outcome: &Outcome, trace: bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct && outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    for name in outcome.metrics.keys() {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    let mut json = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                correct = false;
                0.0
            }
            None => {
                correct &= trace;
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        outcome.tally.failed_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    // A run that broke before its first operation reports that one as
    // attempted and failed.
    let (attempted, failed) = match outcome.tally.attempted {
        0 => (1, 1),
        n => (n, outcome.tally.failed),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
}
