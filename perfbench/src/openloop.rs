//! The open-loop workloads: `NocSimulation::run_cycles` on a fixed fabric
//! and traffic, without a DVFS controller.
//!
//! A workload runs several replicas: simulations of the same fabric whose
//! seeds are derived from `--seed`. Set-up builds each replica and runs its
//! fill warm-up, then snapshots it. One *pass* restores every replica and
//! runs its timed region in chunks. Every pass therefore simulates exactly
//! the same cycles, so passes differ only in host time, and the simulated
//! statistics are a function of the seed alone. Replicas average out how
//! much one seed's traffic and faults change the work.
//!
//! The host-speed reference ([`crate::hostref`]) runs before every timed
//! chunk and after the last one; the end-to-end host times are stated at
//! the reference speed, each chunk scaled by the mean of the two reference
//! times around it.

use crate::check::{self, Tally};
use crate::hostref;
use crate::report::Outcome;
use crate::Args;
use noc_sim::{
    EngineProfile, FaultConfig, GatingConfig, HazardConfig, NetworkConfig, NocSimulation,
    RegionLayout, RoutingKind, SimSnapshot, SyntheticTraffic, TelemetryConfig, TrafficPattern,
};
use std::time::{Duration, Instant};

/// One open-loop workload.
pub struct Spec {
    build: fn() -> NetworkConfig,
    /// Uniform injection rate, flits per node per cycle.
    rate: f64,
    replicas: usize,
    warmup_cycles: u64,
    chunks: usize,
    chunk_cycles: u64,
    /// Whether the default telemetry counters are installed while timing.
    telemetry: bool,
}

/// Fewest passes one untraced run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Rounds of (plain, profiled) passes in a traced run.
const TRACED_ROUNDS: usize = 3;

fn mesh8() -> NetworkConfig {
    NetworkConfig::builder().mesh(8, 8).build().expect("8x8 mesh is valid")
}

fn mesh32() -> NetworkConfig {
    NetworkConfig::builder().mesh(32, 32).build().expect("32x32 mesh is valid")
}

/// The degraded fabric: quadrant islands, power gating, two VCs with
/// minimal adaptive routing and a storm of transient link and router
/// faults.
fn mesh8_degraded() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(8, 8)
        .virtual_channels(2)
        .regions(RegionLayout::Quadrants)
        .gating(GatingConfig::enabled(24, 8))
        .routing(RoutingKind::MinimalAdaptive)
        .faults(FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 1e-4,
            router_rate: 5e-5,
            transient_fraction: 1.0,
            transient_duration: 150,
        }))
        .build()
        .expect("degraded 8x8 configuration is valid")
}

/// The open-loop workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        // 0.30 is about 0.86 of this fabric's saturation: loaded, yet the
        // source backlog stays bounded.
        "mesh8_uniform_loaded" => Spec {
            build: mesh8,
            rate: 0.30,
            replicas: 3,
            warmup_cycles: 5_000,
            chunks: 6,
            chunk_cycles: 1_000,
            telemetry: false,
        },
        "mesh32_uniform_light" => Spec {
            build: mesh32,
            rate: 0.005,
            replicas: 3,
            warmup_cycles: 3_000,
            chunks: 5,
            chunk_cycles: 1_000,
            telemetry: false,
        },
        // Eight thousand cycles past the warm-up is long enough for the
        // delivery collapse under transient router faults to show in the
        // per-chunk series; many replicas because the moment it sets in
        // varies widely from seed to seed.
        "mesh8_degraded" => Spec {
            build: mesh8_degraded,
            rate: 0.05,
            replicas: 64,
            warmup_cycles: 2_000,
            chunks: 4,
            chunk_cycles: 2_000,
            telemetry: true,
        },
        _ => return None,
    })
}

struct Replica {
    sim: NocSimulation,
    warm: SimSnapshot,
}

/// How a pass watches the simulation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Watch {
    /// As the workload defines it (the end-to-end configuration).
    Plain,
    /// With the telemetry layer removed.
    Bare,
    /// With telemetry and the phase profiler installed.
    Profiled,
}

/// The simulated outcome of one pass, summed over replicas. Equal for
/// every pass of a run.
#[derive(Debug, Default, Clone, PartialEq)]
struct Digest {
    cycles: u64,
    generated: u64,
    received: u64,
    dropped: u64,
    packets: u64,
    skipped: u64,
    /// Source backlog at the end of the pass.
    backlog: u64,
    /// Flits received in each chunk.
    received_per_chunk: Vec<u64>,
}

impl Digest {
    fn hash(&self) -> u64 {
        check::fnv1a(
            [
                self.cycles,
                self.generated,
                self.received,
                self.dropped,
                self.packets,
                self.skipped,
                self.backlog,
            ]
            .into_iter()
            .chain(self.received_per_chunk.iter().copied()),
        )
    }
}

/// One pass: its host time and what the layers did in it.
#[derive(Default)]
struct Pass {
    /// Host time inside `run_cycles`.
    sim: Duration,
    /// Host time of the chunk loops, `run_cycles` plus the checks between
    /// chunks (the reference runs excluded).
    traced: Duration,
    chunk_ms: Vec<f64>,
    /// `chunk_ms` at the reference speed.
    nominal_ms: Vec<f64>,
    digest: Digest,
    profile: EngineProfile,
    worklist_sum: u64,
    worklist_samples: u64,
    backlog_sum: u64,
    gated_sum: u64,
    reachable_sum: f64,
}

/// Builds and warms every replica. Returns them with each replica's
/// set-up time at the reference speed.
fn set_up(spec: &Spec, seed: u64) -> (Vec<Replica>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(spec.replicas);
    let mut reference_s = hostref::measure();
    let replicas = (0..spec.replicas)
        .map(|index| {
            let t0 = Instant::now();
            let cfg = (spec.build)();
            let traffic =
                SyntheticTraffic::new(TrafficPattern::Uniform, spec.rate, cfg.packet_length());
            let mut sim =
                NocSimulation::new(cfg, Box::new(traffic), crate::derived_seed(seed, index));
            sim.run_cycles(spec.warmup_cycles);
            let host_s = t0.elapsed().as_secs_f64();
            let after = hostref::measure();
            setup_s.push(hostref::at_nominal(host_s, 0.5 * (reference_s + after)));
            reference_s = after;
            let warm = sim.snapshot();
            Replica { sim, warm }
        })
        .collect();
    (replicas, setup_s)
}

fn add_profile(total: &mut EngineProfile, p: &EngineProfile) {
    total.steps += p.steps;
    total.pre_ns += p.pre_ns;
    total.pipeline_ns += p.pipeline_ns;
    total.post_ns += p.post_ns;
    total.skip_ns += p.skip_ns;
    total.dense_step_ns += p.dense_step_ns;
}

impl Pass {
    /// Adds `other`'s host times, samples, profile and simulated cycles to
    /// this one (the traced run's totals over its profiled passes).
    fn add(&mut self, other: &Pass) {
        self.sim += other.sim;
        self.traced += other.traced;
        self.chunk_ms.extend_from_slice(&other.chunk_ms);
        self.nominal_ms.extend_from_slice(&other.nominal_ms);
        self.digest.cycles += other.digest.cycles;
        self.digest.skipped += other.digest.skipped;
        add_profile(&mut self.profile, &other.profile);
        self.worklist_sum += other.worklist_sum;
        self.worklist_samples += other.worklist_samples;
        self.backlog_sum += other.backlog_sum;
        self.gated_sum += other.gated_sum;
        self.reachable_sum += other.reachable_sum;
    }
}

/// Restores every replica and runs its timed region. Each chunk is one
/// operation: it fails on a panic or a broken flit ledger. Returns `None`
/// when a replica cannot continue.
fn run_pass(
    spec: &Spec,
    replicas: &mut [Replica],
    watch: Watch,
    tally: &mut Tally,
) -> Option<Pass> {
    let mut pass = Pass::default();
    pass.digest.received_per_chunk = vec![0; spec.chunks];
    for replica in replicas.iter_mut() {
        let sim = &mut replica.sim;
        sim.restore(&replica.warm).ok()?;
        sim.clear_telemetry();
        match watch {
            Watch::Plain if spec.telemetry => sim.install_telemetry(TelemetryConfig::default()),
            Watch::Profiled => sim.install_telemetry(TelemetryConfig::default().with_profile(true)),
            Watch::Plain | Watch::Bare => {}
        }
        let start = sim.counters();
        let mut before = start;
        let mut reference_s = hostref::measure();
        let mut chunk_s = Vec::with_capacity(spec.chunks);
        let mut references = Vec::with_capacity(spec.chunks);
        let mut traced = Duration::ZERO;
        for chunk in 0..spec.chunks {
            let t0 = Instant::now();
            let ran = check::catch(|| sim.run_cycles(spec.chunk_cycles));
            let dt = t0.elapsed();
            if ran.is_none() {
                tally.record(false);
                return None;
            }
            pass.sim += dt;
            chunk_s.push(dt.as_secs_f64());
            let c = sim.counters();
            tally.record(check::ledger_balanced(&c) && c.reachable_pairs.is_finite());
            pass.digest.received_per_chunk[chunk] += c.flits_received - before.flits_received;
            pass.backlog_sum += c.queued_source_flits as u64;
            pass.gated_sum += c.gated_routers as u64;
            pass.reachable_sum += c.reachable_pairs;
            if watch == Watch::Profiled {
                let telemetry = sim.telemetry_mut().expect("profiled passes install telemetry");
                for window in telemetry.take_snapshots() {
                    pass.worklist_sum += window.worklist_sum;
                    pass.worklist_samples += window.worklist_samples;
                }
            }
            before = c;
            traced += t0.elapsed();
            let after = hostref::measure();
            references.push(0.5 * (reference_s + after));
            reference_s = after;
        }
        pass.traced += traced;
        for (dt, reference) in chunk_s.into_iter().zip(references) {
            pass.chunk_ms.push(dt * 1e3);
            pass.nominal_ms.push(hostref::at_nominal(dt, reference) * 1e3);
        }
        let end = before;
        let d = &mut pass.digest;
        d.cycles += end.cycle - start.cycle;
        d.generated += end.flits_generated - start.flits_generated;
        d.received += end.flits_received - start.flits_received;
        d.dropped += end.flits_dropped - start.flits_dropped;
        d.packets += end.packets_delivered - start.packets_delivered;
        d.skipped += end.skipped_cycles - start.skipped_cycles;
        d.backlog += end.queued_source_flits as u64;
        if let Some(telemetry) = sim.telemetry() {
            add_profile(&mut pass.profile, telemetry.profile());
        }
    }
    Some(pass)
}

/// Runs passes of `watch` until `budget` has elapsed and at least
/// `min_passes` are done. Every pass must simulate exactly what the first
/// did; one that does not counts as a failed operation.
fn run_passes(
    spec: &Spec,
    replicas: &mut [Replica],
    watch: Watch,
    budget: Duration,
    min_passes: usize,
    tally: &mut Tally,
) -> Option<Vec<Pass>> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let pass = run_pass(spec, replicas, watch, tally)?;
        if let Some(first) = passes.first() {
            if pass.digest != first.digest {
                tally.record(false);
            }
        }
        passes.push(pass);
    }
    Some(passes)
}

/// Host seconds of one pass, robust to interference: every chunk of every
/// replica is the same simulation in each pass, so each chunk's time is
/// the median over passes, and the pass time is their sum. `times` picks
/// a pass's per-chunk milliseconds.
fn median_pass_s(passes: &[Pass], times: fn(&Pass) -> &[f64]) -> f64 {
    let chunks = times(&passes[0]).len();
    let total_ms: f64 = (0..chunks)
        .map(|i| check::median(&passes.iter().map(|p| times(p)[i]).collect::<Vec<_>>()))
        .sum();
    total_ms / 1e3
}

fn host_ms(pass: &Pass) -> &[f64] {
    &pass.chunk_ms
}

fn nominal_ms(pass: &Pass) -> &[f64] {
    &pass.nominal_ms
}

fn print_digest(name: &str, d: &Digest) {
    println!(
        "digest {name}: hash={:016x} cycles={} generated={} received={} dropped={} packets={} \
         skipped={} backlog={} received_per_chunk={:?}",
        d.hash(),
        d.cycles,
        d.generated,
        d.received,
        d.dropped,
        d.packets,
        d.skipped,
        d.backlog,
        d.received_per_chunk
    );
}

/// Runs open-loop workload `spec` as `args` asks.
pub fn run(name: &str, spec: &Spec, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let setup_start = Instant::now();
    let (mut replicas, setup_s) = set_up(spec, args.seed);
    let setup_wall = setup_start.elapsed();
    println!(
        "workload {name}: {} replicas x {} cycles after a {}-cycle warm-up",
        spec.replicas,
        spec.chunks as u64 * spec.chunk_cycles,
        spec.warmup_cycles
    );
    let budget = Duration::from_secs_f64(args.seconds).saturating_sub(setup_wall);
    let tally = &mut outcome.tally;
    let passes = if args.trace {
        traced(spec, &mut replicas, budget, tally, &mut outcome.metrics)
    } else {
        run_passes(spec, &mut replicas, Watch::Plain, budget, MIN_PASSES, tally)
    };
    let Some(passes) = passes else {
        outcome.correct = false;
        return outcome;
    };
    let digest = &passes[0].digest;
    print_digest(name, digest);
    if !args.trace {
        let wall_s = median_pass_s(&passes, nominal_ms);
        println!(
            "host time {name}: {:.4} s per pass as measured, {wall_s:.4} s at the reference speed",
            median_pass_s(&passes, host_ms)
        );
        let m = &mut outcome.metrics;
        m.insert("setup_s", check::median(&setup_s));
        m.insert("wall_s", wall_s);
        m.insert("sim_cycles_per_s", digest.cycles as f64 / wall_s);
        m.insert("host_ns_per_flit", wall_s * 1e9 / digest.received as f64);
        m.insert("delivered_frac", digest.received as f64 / digest.generated as f64);
        m.insert("peak_rss_mb", check::peak_rss_mb());
        println!("passes {name}: {}", passes.len());
    }
    outcome
}

/// The traced run: interleaved rounds of plain, bare (only where the
/// workload installs telemetry) and profiled passes. Returns the plain
/// passes.
fn traced(
    spec: &Spec,
    replicas: &mut [Replica],
    budget: Duration,
    tally: &mut Tally,
    m: &mut crate::report::Metrics,
) -> Option<Vec<Pass>> {
    let round_budget = budget / TRACED_ROUNDS as u32;
    let mut plain = Vec::new();
    let mut bare = Vec::new();
    let mut profiled = Vec::new();
    for _ in 0..TRACED_ROUNDS {
        let share = round_budget / if spec.telemetry { 3 } else { 2 };
        plain.extend(run_passes(spec, replicas, Watch::Plain, share, 1, tally)?);
        if spec.telemetry {
            bare.extend(run_passes(spec, replicas, Watch::Bare, share, 1, tally)?);
        }
        profiled.extend(run_passes(spec, replicas, Watch::Profiled, share, 1, tally)?);
    }
    for pass in bare.iter().chain(&profiled) {
        if pass.digest != plain[0].digest {
            tally.record(false);
        }
    }

    let mut total = Pass::default();
    for pass in &profiled {
        total.add(pass);
    }
    let profile = &total.profile;
    let sim_ns = total.sim.as_secs_f64() * 1e9;
    let cycles = total.digest.cycles as f64;
    let samples = total.chunk_ms.len() as f64;
    m.insert("sim.pre_ns_per_cycle", profile.pre_ns as f64 / cycles);
    m.insert("sim.pipeline_ns_per_cycle", profile.pipeline_ns as f64 / cycles);
    m.insert("sim.post_ns_per_cycle", profile.post_ns as f64 / cycles);
    m.insert("sim.skip_ns_per_cycle", profile.skip_ns as f64 / cycles);
    m.insert("sim.profile_coverage", profile.total_ns() as f64 / sim_ns);
    m.insert(
        "sim.pipeline_ns_per_active_router",
        profile.pipeline_ns as f64 / total.worklist_sum.max(1) as f64,
    );
    m.insert(
        "sim.active_routers_mean",
        total.worklist_sum as f64 / total.worklist_samples.max(1) as f64,
    );
    m.insert("sim.skipped_cycle_frac", total.digest.skipped as f64 / cycles);
    m.insert("sim.source_backlog_flits", total.backlog_sum as f64 / samples);
    m.insert("sim.chunk_ms_p50", check::percentile(&total.chunk_ms, 50.0));
    m.insert("sim.chunk_ms_p90", check::percentile(&total.chunk_ms, 90.0));
    m.insert("sim.chunk_samples", samples);
    m.insert("fault.flits_dropped", profiled[0].digest.dropped as f64);
    m.insert("gating.gated_routers_mean", total.gated_sum as f64 / samples);
    m.insert("sim.reachable_pairs", total.reachable_sum / samples);
    // Overheads compare passes run at different moments, so they compare
    // times at the reference speed.
    if spec.telemetry {
        m.insert(
            "telemetry.overhead_frac",
            median_pass_s(&plain, nominal_ms) / median_pass_s(&bare, nominal_ms) - 1.0,
        );
    }
    m.insert(
        "trace.overhead_frac",
        median_pass_s(&profiled, nominal_ms) / median_pass_s(&plain, nominal_ms) - 1.0,
    );
    m.insert("trace.span_coverage", sim_ns / (total.traced.as_secs_f64() * 1e9));
    Some(plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_the_same_simulation() {
        let spec = Spec {
            build: mesh8_degraded,
            rate: 0.05,
            replicas: 2,
            warmup_cycles: 500,
            chunks: 2,
            chunk_cycles: 1_000,
            telemetry: true,
        };
        let (mut replicas, setup_s) = set_up(&spec, 7);
        assert_eq!(setup_s.len(), 2);
        let mut tally = Tally::default();
        let a = run_pass(&spec, &mut replicas, Watch::Plain, &mut tally).unwrap();
        let b = run_pass(&spec, &mut replicas, Watch::Profiled, &mut tally).unwrap();
        let c = run_pass(&spec, &mut replicas, Watch::Bare, &mut tally).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, c.digest);
        assert_eq!(a.digest.cycles, 4_000);
        assert!(a.digest.generated > 0);
        assert_eq!(tally, Tally { attempted: 12, failed: 0 });
        assert!(b.profile.steps > 0 && a.profile.steps == 0);
    }
}
