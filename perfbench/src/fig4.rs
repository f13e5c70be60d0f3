//! The `fig4_sweep` workload: `fig4_fig6_baseline_comparison`, the paper's
//! Fig. 4/6 No-DVFS / RMSD / DMSD comparison on the 5x5 baseline, as users
//! run it.

use crate::check::{self, Tally};
use crate::hostref;
use crate::replica::{self, PointTrace};
use crate::report::{Metrics, Outcome};
use crate::Args;
use noc_dvfs::experiments::{
    fig4_fig6_baseline_comparison, ExperimentQuality, PolicyComparison, PAPER_LAMBDA_MAX_MARGIN,
    PAPER_TARGET_DELAY_NS,
};
use noc_dvfs::sweep::load_grid;
use noc_dvfs::{
    find_saturation_rate, par_try_map, worker_threads, DmsdConfig, OperatingPointResult,
    PolicyKind, RmsdConfig, TradeOffSummary,
};
use noc_sim::{NetworkConfig, SyntheticTraffic, TrafficPattern};
use std::time::Instant;

/// Three points put one near the paper's reference load of 0.2 (the middle
/// of `0.1 λ_max ..= λ_max`), which is the fewest that can check the
/// headline trade-off.
const LOAD_POINTS: usize = 3;
/// Figures regenerated per run, each on its own seed derived from `--seed`.
/// A figure's work depends on its seed: the saturation search moves the
/// load grid, and RMSD's settling at mid-load, the longest point and so the
/// critical path of the sweep, runs anywhere up to 80 extra control
/// intervals. Averaging three figures damps how much that moves `wall_s`
/// from one seed to the next. Set-up times one saturation search per seed.
const FIGURE_SEEDS: usize = 3;
/// The load of the paper's headline ratios.
const HEADLINE_LOAD: f64 = 0.2;

/// A curve of the comparison and the names of its per-layer metrics.
struct Policy {
    name: &'static str,
    point_s_max: &'static str,
    intervals: &'static str,
    useful_interval_frac: &'static str,
}

/// The comparison's curves, in order.
const POLICIES: [Policy; 3] = [
    Policy {
        name: "No-DVFS",
        point_s_max: "closed_loop.nodvfs.point_s_max",
        intervals: "closed_loop.nodvfs.intervals",
        useful_interval_frac: "closed_loop.nodvfs.useful_interval_frac",
    },
    Policy {
        name: "RMSD",
        point_s_max: "closed_loop.rmsd.point_s_max",
        intervals: "closed_loop.rmsd.intervals",
        useful_interval_frac: "closed_loop.rmsd.useful_interval_frac",
    },
    Policy {
        name: "DMSD",
        point_s_max: "closed_loop.dmsd.point_s_max",
        intervals: "closed_loop.dmsd.intervals",
        useful_interval_frac: "closed_loop.dmsd.useful_interval_frac",
    },
];

fn quality(seed: u64) -> ExperimentQuality {
    ExperimentQuality { load_points: LOAD_POINTS, seed, ..ExperimentQuality::standard() }
}

fn saturation(q: &ExperimentQuality) -> f64 {
    find_saturation_rate(
        &NetworkConfig::paper_baseline(),
        TrafficPattern::Uniform,
        q.saturation_probe_cycles,
        q.seed,
    )
}

/// The comparison's points in curve order, each with its load.
fn points(cmp: &PolicyComparison) -> Vec<(f64, &OperatingPointResult)> {
    cmp.curves.iter().flat_map(|c| c.points.iter().map(|p| (p.load, &p.result))).collect()
}

/// Checks one regenerated figure and records its points as operations. A
/// point fails when a number is negative or not finite, when its curve is
/// not the expected policy, or (for the DMSD point at the headline load)
/// when DMSD does not win the power/delay trade-off there. Returns whether
/// the figure's shape is right: three curves of `LOAD_POINTS` points and
/// the `λ_max` the saturation search implies.
fn check_figure(cmp: &PolicyComparison, saturation: f64, tally: &mut Tally) -> bool {
    let shape_ok = cmp.curves.len() == POLICIES.len()
        && cmp.curves.iter().all(|c| c.points.len() == LOAD_POINTS)
        && cmp.lambda_max == PAPER_LAMBDA_MAX_MARGIN * saturation;
    if !shape_ok {
        tally.record(false);
        return false;
    }
    let trade_off = headline(cmp).is_some_and(|s| s.dmsd_wins_trade_off());
    let dmsd = &cmp.curves[2];
    let headline_load = dmsd.nearest(HEADLINE_LOAD).load;
    for (curve, policy) in cmp.curves.iter().zip(&POLICIES) {
        for point in &curve.points {
            let mut ok = check::point_ok(&point.result) && point.result.policy == policy.name;
            if policy.name == "DMSD" && point.load == headline_load {
                ok &= trade_off;
            }
            tally.record(ok);
        }
    }
    true
}

fn headline(cmp: &PolicyComparison) -> Option<TradeOffSummary> {
    let [no_dvfs, rmsd, dmsd] = [&cmp.curves[0], &cmp.curves[1], &cmp.curves[2]];
    check::catch(|| TradeOffSummary::at_load(HEADLINE_LOAD, no_dvfs, rmsd, dmsd))
}

/// Flits generated and delivered, and NoC cycles simulated, in the
/// measured phases of every point. A point reports rates, not counts, so
/// the counts are rebuilt from them: a measured phase lasts
/// `measurement_wall_ns`, during which the NoC clock averages
/// `avg_frequency_ghz` and the nodes run at the node clock.
struct Measured {
    noc_cycles: f64,
    generated: f64,
    delivered: f64,
}

fn measured(cmp: &PolicyComparison) -> Measured {
    let net = NetworkConfig::paper_baseline();
    let nodes = net.node_count() as f64;
    let node_ghz = net.node_frequency().as_hz() / 1e9;
    let mut m = Measured { noc_cycles: 0.0, generated: 0.0, delivered: 0.0 };
    for (_, p) in points(cmp) {
        let noc_cycles = p.avg_frequency_ghz * p.measurement_wall_ns;
        m.noc_cycles += noc_cycles;
        m.delivered += p.throughput * noc_cycles * nodes;
        m.generated += p.measured_rate * node_ghz * p.measurement_wall_ns * nodes;
    }
    m
}

fn print_digest(seed: u64, cmp: &PolicyComparison) {
    let words = std::iter::once(cmp.lambda_max.to_bits()).chain(points(cmp).into_iter().flat_map(
        |(load, p)| {
            [
                load.to_bits(),
                p.measured_rate.to_bits(),
                p.avg_latency_cycles.to_bits(),
                p.avg_delay_ns.to_bits(),
                p.max_delay_ns.to_bits(),
                p.power_mw.to_bits(),
                p.dynamic_power_mw.to_bits(),
                p.static_power_mw.to_bits(),
                p.avg_frequency_ghz.to_bits(),
                p.avg_vdd.to_bits(),
                p.throughput.to_bits(),
                p.packets_delivered,
                p.measurement_wall_ns.to_bits(),
                p.flits_dropped,
                p.reachability.to_bits(),
            ]
        },
    ));
    println!(
        "digest fig4_sweep seed {seed}: hash={:016x} lambda_max={}",
        check::fnv1a(words),
        cmp.lambda_max
    );
    for (load, p) in points(cmp) {
        println!(
            "  {:<7} load={load:.4} freq={:.4} GHz delay={:.2} ns power={:.4} mW packets={}",
            p.policy, p.avg_frequency_ghz, p.avg_delay_ns, p.power_mw, p.packets_delivered
        );
    }
    if let Some(summary) = headline(cmp) {
        println!("headline (model output, unvalidated against hardware) {summary}");
    }
}

/// Runs the workload as `args` asks.
pub fn run(args: &Args) -> Outcome {
    println!(
        "workload fig4_sweep: 5x5 baseline, {LOAD_POINTS} loads x 3 policies, {}-cycle control \
         period, {} sweep threads",
        ExperimentQuality::standard().loop_cfg.control_period_cycles,
        worker_threads()
    );
    if args.trace {
        traced(&quality(args.seed))
    } else {
        untraced(args.seed, args.seconds)
    }
}

fn untraced(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let qs: Vec<ExperimentQuality> =
        (0..FIGURE_SEEDS).map(|k| quality(crate::derived_seed(seed, k))).collect();
    let mut setup_s = Vec::with_capacity(FIGURE_SEEDS);
    let mut saturations = Vec::with_capacity(FIGURE_SEEDS);
    // The saturation search is serial, so like the open-loop workloads it
    // is stated at the reference speed, measured on this thread before and
    // after it. The two-thread sweep is not: see README.md.
    let mut reference_s = hostref::measure();
    for q in &qs {
        let t0 = Instant::now();
        let sat = check::catch(|| saturation(q));
        let host_s = t0.elapsed().as_secs_f64();
        let after = hostref::measure();
        setup_s.push(hostref::at_nominal(host_s, 0.5 * (reference_s + after)));
        reference_s = after;
        match sat {
            Some(s) if s > 0.0 && s < 1.0 => saturations.push(s),
            _ => {
                outcome.correct = false;
                return outcome;
            }
        }
    }

    let start = Instant::now();
    let mut walls = vec![Vec::new(); FIGURE_SEEDS];
    let mut figures: Vec<Option<PolicyComparison>> = vec![None; FIGURE_SEEDS];
    while walls[0].is_empty() || start.elapsed().as_secs_f64() < seconds {
        for (k, q) in qs.iter().enumerate() {
            let t0 = Instant::now();
            let figure = check::catch(|| fig4_fig6_baseline_comparison(q));
            walls[k].push(t0.elapsed().as_secs_f64());
            let Some(cmp) = figure else {
                // The sweep rethrows a point's panic only after the whole
                // grid ran, without saying which point: every point of the
                // figure counts as failed.
                for _ in 0..POLICIES.len() * LOAD_POINTS {
                    outcome.tally.record(false);
                }
                outcome.correct = false;
                return outcome;
            };
            outcome.correct &= check_figure(&cmp, saturations[k], &mut outcome.tally);
            match &figures[k] {
                Some(first) => outcome.correct &= *first == cmp,
                None => figures[k] = Some(cmp),
            }
        }
    }
    let figures: Vec<PolicyComparison> = figures.into_iter().flatten().collect();
    for (q, cmp) in qs.iter().zip(&figures) {
        print_digest(q.seed, cmp);
    }
    for (q, w) in qs.iter().zip(&walls) {
        println!("regeneration fig4_sweep seed {}: {w:?} s", q.seed);
    }

    let wall_per_seed: Vec<f64> = walls.iter().map(|w| check::median(w)).collect();
    let wall_total: f64 = wall_per_seed.iter().sum();
    let work: Vec<Measured> = figures.iter().map(measured).collect();
    let delivered: f64 = work.iter().map(|w| w.delivered).sum();
    let m = &mut outcome.metrics;
    m.insert("setup_s", check::median(&setup_s));
    m.insert("wall_s", wall_total / FIGURE_SEEDS as f64);
    m.insert("sim_cycles_per_s", work.iter().map(|w| w.noc_cycles).sum::<f64>() / wall_total);
    m.insert("host_ns_per_flit", wall_total * 1e9 / delivered);
    m.insert("delivered_frac", delivered / work.iter().map(|w| w.generated).sum::<f64>());
    m.insert("peak_rss_mb", check::peak_rss_mb());
    outcome
}

/// The traced run: the program's own sweep, untraced, then the replica of
/// the same sweep with spans around each layer. Every replica point must
/// equal the program's bit for bit.
fn traced(q: &ExperimentQuality) -> Outcome {
    let mut outcome = Outcome::default();
    let net = NetworkConfig::paper_baseline();

    let t0 = Instant::now();
    let Some(program) = check::catch(|| fig4_fig6_baseline_comparison(q)) else {
        outcome.tally.record(false);
        outcome.correct = false;
        return outcome;
    };
    let program_s = t0.elapsed().as_secs_f64();

    let replica_start = Instant::now();
    let t0 = Instant::now();
    let Some(sat) = check::catch(|| saturation(q)) else {
        outcome.correct = false;
        return outcome;
    };
    let saturation_s = t0.elapsed().as_secs_f64();

    let lambda_max = PAPER_LAMBDA_MAX_MARGIN * sat;
    let loads = load_grid(0.1 * lambda_max, lambda_max, LOAD_POINTS);
    let policies = [
        PolicyKind::NoDvfs,
        PolicyKind::Rmsd(RmsdConfig::with_lambda_max(lambda_max)),
        PolicyKind::Dmsd(DmsdConfig::with_target_ns(PAPER_TARGET_DELAY_NS)),
    ];
    let grid: Vec<(usize, f64)> =
        (0..policies.len()).flat_map(|pi| loads.iter().map(move |&l| (pi, l))).collect();
    let packet_length = net.packet_length();
    let t0 = Instant::now();
    let outcomes = par_try_map(&grid, |_, &(pi, load)| {
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, load, packet_length);
        replica::run_point(&net, Box::new(traffic), policies[pi].clone(), &q.loop_cfg, q.seed, true)
    });
    let executor_s = t0.elapsed().as_secs_f64();
    let replica_s = replica_start.elapsed().as_secs_f64();

    outcome.correct &= check_figure(&program, sat, &mut outcome.tally);
    print_digest(q.seed, &program);
    let expected = points(&program);
    let equal = check::tally_points(&mut outcome.tally, &outcomes, |i, (result, _)| {
        expected.get(i).is_some_and(|&(load, p)| load == grid[i].1 && p == result)
    });
    println!("replica fig4_sweep: {equal} of {} points equal the program's", grid.len());
    let traces: Vec<(usize, &PointTrace)> = grid
        .iter()
        .zip(&outcomes)
        .filter_map(|(&(pi, _), o)| o.as_ref().ok().map(|(_, t)| (pi, t)))
        .collect();
    if traces.len() != grid.len() {
        outcome.correct = false;
        return outcome;
    }

    let m = &mut outcome.metrics;
    layer_metrics(m, &traces, executor_s);
    m.insert("saturation.wall_s", saturation_s);
    m.insert("saturation.wall_frac", saturation_s / replica_s);
    m.insert("trace.overhead_frac", replica_s / program_s - 1.0);
    m.insert("trace.span_coverage", (saturation_s + executor_s) / replica_s);
    let results = points(&program);
    m.insert("fault.flits_dropped", results.iter().map(|(_, p)| p.flits_dropped as f64).sum());
    m.insert(
        "sim.reachable_pairs",
        results.iter().map(|(_, p)| p.reachability).sum::<f64>() / results.len() as f64,
    );
    outcome
}

/// Per-layer metrics of the replica's points (`(policy index, trace)`).
fn layer_metrics(m: &mut Metrics, traces: &[(usize, &PointTrace)], executor_s: f64) {
    const NS: f64 = 1e-9;
    let sum = |f: &dyn Fn(&PointTrace) -> u64| traces.iter().map(|(_, t)| f(t)).sum::<u64>() as f64;
    let point_ns = sum(&|t| t.wall_ns);
    let sim_ns = sum(&|t| t.sim_ns);
    let power_ns = sum(&|t| t.power_ns);
    let controller_ns = sum(&|t| t.controller_ns);
    let cycles = sum(&|t| t.cycles);
    let worklist_sum = sum(&|t| t.worklist_sum);

    m.insert("sim.pre_ns_per_cycle", sum(&|t| t.profile.pre_ns) / cycles);
    m.insert("sim.pipeline_ns_per_cycle", sum(&|t| t.profile.pipeline_ns) / cycles);
    m.insert("sim.post_ns_per_cycle", sum(&|t| t.profile.post_ns) / cycles);
    m.insert("sim.skip_ns_per_cycle", sum(&|t| t.profile.skip_ns) / cycles);
    let run_ns = sum(&|t| t.interval_ns.iter().sum());
    m.insert("sim.profile_coverage", sum(&|t| t.profile.total_ns()) / run_ns);
    m.insert(
        "sim.pipeline_ns_per_active_router",
        sum(&|t| t.profile.pipeline_ns) / worklist_sum.max(1.0),
    );
    m.insert("sim.active_routers_mean", worklist_sum / sum(&|t| t.worklist_samples).max(1.0));
    m.insert("sim.skipped_cycle_frac", sum(&|t| t.skipped_cycles) / cycles);
    let intervals = sum(&|t| t.intervals);
    m.insert("sim.source_backlog_flits", sum(&|t| t.backlog_sum) / intervals);
    let interval_ms: Vec<f64> =
        traces.iter().flat_map(|(_, t)| t.interval_ns.iter().map(|&ns| ns as f64 * 1e-6)).collect();
    m.insert("sim.chunk_ms_p50", check::percentile(&interval_ms, 50.0));
    m.insert("sim.chunk_ms_p90", check::percentile(&interval_ms, 90.0));
    m.insert("sim.chunk_samples", interval_ms.len() as f64);

    for (pi, policy) in POLICIES.iter().enumerate() {
        let mine: Vec<&PointTrace> =
            traces.iter().filter(|(p, _)| *p == pi).map(|(_, t)| *t).collect();
        let longest = mine.iter().map(|t| t.wall_ns).max().unwrap_or(0) as f64 * NS;
        let ran: u64 = mine.iter().map(|t| t.intervals).sum();
        let useful: u64 = mine.iter().map(|t| t.measured_intervals).sum();
        m.insert(policy.point_s_max, longest);
        m.insert(policy.intervals, ran as f64);
        m.insert(policy.useful_interval_frac, useful as f64 / ran as f64);
    }
    m.insert("closed_loop.self_frac", (point_ns - sim_ns - power_ns - controller_ns) / point_ns);

    let power_calls = sum(&|t| t.power_calls);
    m.insert("power.calls", power_calls);
    m.insert("power.ns_per_call", power_ns / power_calls);
    m.insert("power.point_frac", power_ns / point_ns);
    let controller_calls = sum(&|t| t.controller_calls);
    m.insert("controller.calls", controller_calls);
    m.insert("controller.ns_per_call", controller_ns / controller_calls);
    m.insert("controller.point_frac", controller_ns / point_ns);

    let workers = worker_threads().min(traces.len()) as f64;
    m.insert("executor.workers", workers);
    m.insert("executor.busy_core_s", point_ns * NS);
    m.insert("executor.idle_frac", 1.0 - point_ns * NS / (workers * executor_s));
    m.insert(
        "executor.longest_point_s",
        traces.iter().map(|(_, t)| t.wall_ns).max().unwrap_or(0) as f64 * NS,
    );
}
