//! Output checks, failure accounting and the small statistics the harness
//! reports.

use noc_dvfs::OperatingPointResult;
use noc_sim::SimCounters;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Operations attempted and failed in one run. An operation is one
/// operating point of a sweep or one timed chunk of an open-loop
/// simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Records one operation per item of `outcomes`: a point that panicked
/// (`Err`) or whose result fails `ok` counts as one failure. Returns the
/// number of points that passed.
pub fn tally_points<U, E>(
    tally: &mut Tally,
    outcomes: &[Result<U, E>],
    ok: impl Fn(usize, &U) -> bool,
) -> usize {
    let before = tally.failed;
    for (index, outcome) in outcomes.iter().enumerate() {
        tally.record(outcome.as_ref().is_ok_and(|value| ok(index, value)));
    }
    outcomes.len() - (tally.failed - before) as usize
}

/// The flit-conservation ledger: every generated flit was received, is
/// still queued at a source, buffered in a router or in flight, or was
/// dropped by a failed component.
pub fn ledger_balanced(c: &SimCounters) -> bool {
    c.flits_generated
        == c.flits_received
            + c.queued_source_flits as u64
            + c.buffered_network_flits as u64
            + c.in_flight_flits as u64
            + c.flits_dropped
}

/// Whether every simulated number of a closed-loop point is finite and
/// non-negative.
pub fn point_ok(p: &OperatingPointResult) -> bool {
    [
        p.offered_load,
        p.measured_rate,
        p.avg_latency_cycles,
        p.avg_delay_ns,
        p.max_delay_ns,
        p.power_mw,
        p.dynamic_power_mw,
        p.static_power_mw,
        p.avg_frequency_ghz,
        p.avg_vdd,
        p.throughput,
        p.measurement_wall_ns,
        p.reachability,
    ]
    .iter()
    .all(|v| v.is_finite() && *v >= 0.0)
}

/// Runs `f`, turning a panic into `None`.
pub fn catch<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// FNV-1a hash of a sequence of 64-bit words: the digest that lets two
/// builds show they simulated exactly the same numbers.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{NetworkConfig, NocSimulation, SyntheticTraffic, TrafficPattern};

    #[test]
    fn ledger_check_fails_on_a_tampered_counter_set() {
        let cfg = NetworkConfig::builder().mesh(4, 4).build().unwrap();
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.2, cfg.packet_length());
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), 3);
        sim.run_cycles(2_000);
        let counters = sim.counters();
        assert!(counters.flits_generated > 0);
        assert!(ledger_balanced(&counters));
        for tamper in [
            |c: &mut SimCounters| c.flits_received += 1,
            |c: &mut SimCounters| c.flits_generated -= 1,
            |c: &mut SimCounters| c.queued_source_flits += 1,
            |c: &mut SimCounters| c.buffered_network_flits += 1,
            |c: &mut SimCounters| c.in_flight_flits += 1,
            |c: &mut SimCounters| c.flits_dropped += 1,
        ] {
            let mut bad = counters;
            tamper(&mut bad);
            assert!(!ledger_balanced(&bad));
        }
    }

    #[test]
    fn a_panicking_point_counts_as_one_failure() {
        let items: Vec<u32> = (0..6).collect();
        let outcomes = noc_dvfs::parallel::par_try_map(&items, |_, &i| {
            assert!(i != 4, "point {i} blows up");
            i
        });
        let mut tally = Tally::default();
        assert_eq!(tally_points(&mut tally, &outcomes, |_, _| true), 5);
        assert_eq!(tally, Tally { attempted: 6, failed: 1 });
        assert!((tally.failed_frac() - 1.0 / 6.0).abs() < 1e-12);

        // A point that both panics and would fail its check is still one
        // failure, and a rejected result is one more.
        assert_eq!(tally_points(&mut tally, &outcomes, |index, _| index != 2), 4);
        assert_eq!(tally, Tally { attempted: 12, failed: 3 });
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }
}
