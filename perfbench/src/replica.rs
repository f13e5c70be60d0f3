//! The closed loop of `noc_dvfs::run_operating_point`, driven from outside
//! the program through the same public calls, with a span around each
//! layer's call.
//!
//! `run_operating_point` exposes no hooks, so this is the only way to see
//! how a point's time splits between the simulator, the power model and
//! the controller. The copy must stay exact: the traced run compares every
//! result it produces with the program's own sweep and fails on any
//! difference.

use noc_dvfs::{ClosedLoopConfig, ControlMeasurement, OperatingPointResult, PolicyKind};
use noc_power::model::EnergyBreakdown;
use noc_power::{FdsoiTech, RouterPowerModel};
use noc_sim::{EngineProfile, Hertz, NetworkConfig, NocSimulation, TelemetryConfig, TrafficSpec};
use std::time::Instant;

/// Host time and work of one operating point, split by layer.
#[derive(Debug, Default, Clone)]
pub struct PointTrace {
    /// The whole point, construction included.
    pub wall_ns: u64,
    /// `run_cycles` plus the window/activity reads of the simulator.
    pub sim_ns: u64,
    /// Host time of each control interval's `run_cycles` call.
    pub interval_ns: Vec<u64>,
    /// `vdd_for_frequency` and `network_energy`.
    pub power_ns: u64,
    pub power_calls: u64,
    /// `DvfsPolicy::next_frequency`.
    pub controller_ns: u64,
    pub controller_calls: u64,
    /// Control intervals run (warm-up, settling and measured).
    pub intervals: u64,
    /// Control intervals whose measurements enter the result.
    pub measured_intervals: u64,
    /// Base cycles simulated.
    pub cycles: u64,
    /// Base cycles the simulator skipped as quiescent.
    pub skipped_cycles: u64,
    /// Source-queue backlog summed over interval ends.
    pub backlog_sum: u64,
    /// Sum over stepped ticks of the active-router count, and the ticks it
    /// covers (from the telemetry sample windows).
    pub worklist_sum: u64,
    pub worklist_samples: u64,
    /// The stepping engine's phase profile.
    pub profile: EngineProfile,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Number of NoC cycles in one control period at frequency `f`.
fn interval_cycles(period_ps: f64, f: Hertz) -> u64 {
    ((period_ps / f.period().as_ps()).round() as u64).max(1)
}

/// Runs one interval of `cycles` and records its span.
fn run_interval(sim: &mut NocSimulation, cycles: u64, trace: &mut PointTrace) {
    let t0 = Instant::now();
    sim.run_cycles(cycles);
    let ns = elapsed_ns(t0);
    trace.sim_ns += ns;
    trace.interval_ns.push(ns);
    trace.intervals += 1;
    let counters = sim.counters();
    trace.backlog_sum += counters.queued_source_flits as u64;
    if let Some(telemetry) = sim.telemetry_mut() {
        for window in telemetry.take_snapshots() {
            trace.worklist_sum += window.worklist_sum;
            trace.worklist_samples += window.worklist_samples;
        }
    }
}

/// `run_operating_point(net, traffic, policy, loop_cfg, seed)`, traced.
/// With `profile`, the simulator's phase profiler is installed; telemetry
/// never changes simulated results, so the point is the same either way.
pub fn run_point(
    net: &NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    policy: PolicyKind,
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
    profile: bool,
) -> (OperatingPointResult, PointTrace) {
    let start = Instant::now();
    let mut trace = PointTrace::default();
    loop_cfg.validate();
    let offered_load = traffic.offered_load();
    let tech = FdsoiTech::new();
    let power_model = RouterPowerModel::new();
    let mut sim = NocSimulation::new(net.clone(), traffic, seed);
    if profile {
        sim.install_telemetry(TelemetryConfig::default().with_trace_capacity(0).with_profile(true));
    }
    let mut controller = policy.build(net);

    let period_ps = loop_cfg.control_period_cycles as f64 * net.max_frequency().period().as_ps();
    let mut frequency = net.max_frequency();
    sim.set_noc_frequency(frequency);

    let mut next_frequency = |measurement: &ControlMeasurement, trace: &mut PointTrace| {
        let t0 = Instant::now();
        let next = controller.next_frequency(measurement);
        trace.controller_ns += elapsed_ns(t0);
        trace.controller_calls += 1;
        next
    };

    let mut stable_checks = 0;
    for interval in 0..(loop_cfg.warmup_intervals + loop_cfg.max_settle_intervals) {
        if interval >= loop_cfg.warmup_intervals && stable_checks >= 3 {
            break;
        }
        run_interval(&mut sim, interval_cycles(period_ps, frequency), &mut trace);
        let t0 = Instant::now();
        let window = sim.take_window();
        sim.reset_activity();
        trace.sim_ns += elapsed_ns(t0);
        let measurement = ControlMeasurement {
            window,
            node_count: sim.node_count(),
            current_frequency: frequency,
        };
        let next = next_frequency(&measurement, &mut trace);
        let relative_change = (next.as_hz() - frequency.as_hz()).abs() / frequency.as_hz();
        if relative_change <= loop_cfg.settle_tolerance {
            stable_checks += 1;
        } else {
            stable_checks = 0;
        }
        frequency = next;
        sim.set_noc_frequency(frequency);
    }

    sim.reset_stats();
    let mut energy = EnergyBreakdown::default();
    let mut freq_time_product = 0.0;
    let mut vdd_time_product = 0.0;
    let mut total_wall_ps = 0.0;
    let mut flits_generated = 0u64;
    let mut flits_ejected = 0u64;
    let mut flits_dropped = 0u64;
    let mut node_cycles = 0u64;
    let mut noc_cycles = 0u64;

    for _ in 0..loop_cfg.measure_intervals {
        run_interval(&mut sim, interval_cycles(period_ps, frequency), &mut trace);
        trace.measured_intervals += 1;
        let t0 = Instant::now();
        let window = sim.take_window();
        let activity = sim.take_activity();
        trace.sim_ns += elapsed_ns(t0);
        let t0 = Instant::now();
        let vdd = tech.vdd_for_frequency(frequency);
        energy += power_model.network_energy(&activity, frequency, vdd, window.wall_time_ps);
        trace.power_ns += elapsed_ns(t0);
        trace.power_calls += 2;

        freq_time_product += frequency.as_hz() * window.wall_time_ps;
        vdd_time_product += vdd.as_volts() * window.wall_time_ps;
        total_wall_ps += window.wall_time_ps;
        flits_generated += window.flits_generated;
        flits_ejected += window.flits_ejected;
        flits_dropped += window.flits_dropped;
        node_cycles += window.node_cycles;
        noc_cycles += window.noc_cycles;

        let measurement = ControlMeasurement {
            window,
            node_count: sim.node_count(),
            current_frequency: frequency,
        };
        frequency = next_frequency(&measurement, &mut trace);
        sim.set_noc_frequency(frequency);
    }

    let stats = sim.stats();
    let node_count = sim.node_count() as f64;
    let measured_rate = if node_cycles > 0 {
        flits_generated as f64 / (node_cycles as f64 * node_count)
    } else {
        0.0
    };
    let throughput =
        if noc_cycles > 0 { flits_ejected as f64 / (noc_cycles as f64 * node_count) } else { 0.0 };
    let total_wall_ns = total_wall_ps / 1.0e3;
    let per_ns = |pj: f64| if total_wall_ns > 0.0 { pj / total_wall_ns } else { 0.0 };

    let result = OperatingPointResult {
        policy: policy.name().to_string(),
        offered_load,
        measured_rate,
        avg_latency_cycles: stats.avg_latency_cycles().unwrap_or(0.0),
        avg_delay_ns: stats.avg_delay_ns().unwrap_or(0.0),
        max_delay_ns: stats.max_delay_ps / 1.0e3,
        power_mw: per_ns(energy.total_pj()),
        dynamic_power_mw: per_ns(energy.dynamic_pj),
        static_power_mw: per_ns(energy.static_pj),
        avg_frequency_ghz: if total_wall_ps > 0.0 {
            freq_time_product / total_wall_ps / 1.0e9
        } else {
            0.0
        },
        avg_vdd: if total_wall_ps > 0.0 { vdd_time_product / total_wall_ps } else { 0.0 },
        throughput,
        packets_delivered: stats.packets,
        measurement_wall_ns: total_wall_ns,
        flits_dropped,
        reachability: sim.reachable_pairs_fraction(),
    };
    let counters = sim.counters();
    trace.cycles = counters.cycle;
    trace.skipped_cycles = counters.skipped_cycles;
    if let Some(telemetry) = sim.telemetry() {
        trace.profile = telemetry.profile().clone();
    }
    trace.wall_ns = elapsed_ns(start);
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_dvfs::{run_operating_point, DmsdConfig, RmsdConfig};
    use noc_sim::{SyntheticTraffic, TrafficPattern};

    #[test]
    fn replica_equals_run_operating_point_on_a_tiny_config() {
        let net = NetworkConfig::builder()
            .mesh(3, 3)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(4)
            .build()
            .unwrap();
        let loop_cfg = ClosedLoopConfig {
            control_period_cycles: 800,
            warmup_intervals: 2,
            measure_intervals: 3,
            max_settle_intervals: 6,
            settle_tolerance: 0.004,
        };
        let traffic = || Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.12, 4));
        for policy in [
            PolicyKind::NoDvfs,
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3)),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(60.0)),
        ] {
            let program = run_operating_point(&net, traffic(), policy.clone(), &loop_cfg, 5);
            for profile in [false, true] {
                let (replica, trace) =
                    run_point(&net, traffic(), policy.clone(), &loop_cfg, 5, profile);
                assert_eq!(replica, program, "{} profile={profile}", policy.name());
                assert_eq!(trace.measured_intervals, 3);
                assert!(trace.intervals >= 5);
                assert_eq!(trace.controller_calls, trace.intervals);
                assert_eq!(trace.power_calls, 2 * trace.measured_intervals);
                assert_eq!(trace.profile.steps > 0, profile);
            }
        }
    }
}
