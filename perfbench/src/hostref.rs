//! The host-speed reference: a small, fixed cycle-level mesh simulation
//! written in the benchmark itself, timed next to the program so that
//! host times can be stated at a fixed host speed.
//!
//! A shared host runs the benchmark at a speed that drifts by tens of
//! percent within seconds to minutes, with other tenants' load on the same
//! cores, caches and memory. One reference run builds a fresh 48x48 mesh
//! of per-port flit queues and simulates a few cycles of XY-routed,
//! round-robin-arbitrated traffic on it, so it is mostly allocation,
//! first-touch memory and queue traffic. Timed next to the simulator every
//! few seconds on a 2-vCPU Xeon host over minutes, the logarithm of its
//! time tracked the simulator's with a slope between 0.86 and 1.13 on all
//! three open-loop workloads, and scaling by it cut the spread of their
//! times four- to tenfold. Smaller meshes run for longer tracked worse
//! (slopes up to 2). Scaling a host time by `NOMINAL_S / reference time`
//! therefore removes most of the drift. The reference is the benchmark's
//! own code, so a change to the program moves the measured time and not
//! the reference.

use std::collections::VecDeque;
use std::time::Instant;

/// The reference time host times are stated at. The scale is arbitrary
/// (it is of the order of a [`measure`] result on a 2-vCPU Intel Xeon
/// host); it is fixed so that numbers compare across builds and hosts.
pub const NOMINAL_S: f64 = 0.0019;

const K: usize = 48;
const NODES: usize = K * K;
/// Local, east, west, north, south.
const PORTS: usize = 5;
const DEPTH: usize = 4;
const PACKET_FLITS: usize = 4;
const CYCLES: u32 = 8;
/// Reference runs per [`measure`].
const RUNS: usize = 3;

#[derive(Clone, Copy)]
struct Flit {
    dst: u16,
    born: u32,
}

/// Output port of the XY route from `at` to `dst`.
fn route(at: usize, dst: usize) -> usize {
    let (x, y, dx, dy) = (at % K, at / K, dst % K, dst / K);
    if dx > x {
        1
    } else if dx < x {
        2
    } else if dy > y {
        3
    } else if dy < y {
        4
    } else {
        0
    }
}

/// Router and input port at the far end of output `out` of router `at`.
fn downstream(at: usize, out: usize) -> (usize, usize) {
    match out {
        1 => (at + 1, 2),
        2 => (at - 1, 1),
        3 => (at + K, 4),
        _ => (at - K, 3),
    }
}

/// One reference run: always the same simulation. Returns a checksum of
/// the flits it delivered and their latencies.
pub fn run() -> u64 {
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut inputs: Vec<[VecDeque<Flit>; PORTS]> = (0..NODES).map(|_| Default::default()).collect();
    let mut sources: Vec<VecDeque<Flit>> = vec![VecDeque::new(); NODES];
    let mut rotation = vec![[0usize; PORTS]; NODES];
    let mut grants: Vec<(usize, usize, usize)> = Vec::new();
    let (mut delivered, mut latency) = (0u64, 0u64);
    // 0.08 packets per node per cycle.
    let inject_below = u64::MAX / 100 * 8;
    for now in 0..CYCLES {
        for node in 0..NODES {
            if next() < inject_below && sources[node].len() < 16 * PACKET_FLITS {
                let dst = ((next() % (NODES as u64 - 1)) as usize + node + 1) % NODES;
                for _ in 0..PACKET_FLITS {
                    sources[node].push_back(Flit { dst: dst as u16, born: now });
                }
            }
            if inputs[node][0].len() < DEPTH {
                if let Some(flit) = sources[node].pop_front() {
                    inputs[node][0].push_back(flit);
                }
            }
        }
        grants.clear();
        for node in 0..NODES {
            for (out, first) in rotation[node].iter_mut().enumerate() {
                for k in 0..PORTS {
                    let input = (*first + k) % PORTS;
                    let Some(flit) = inputs[node][input].front() else { continue };
                    if route(node, usize::from(flit.dst)) != out {
                        continue;
                    }
                    if out != 0 {
                        let (n, p) = downstream(node, out);
                        if inputs[n][p].len() >= DEPTH {
                            break;
                        }
                    }
                    grants.push((node, input, out));
                    *first = (input + 1) % PORTS;
                    break;
                }
            }
        }
        for &(node, input, out) in &grants {
            let flit = inputs[node][input].pop_front().expect("a granted input holds a flit");
            if out == 0 {
                delivered += 1;
                latency += u64::from(now - flit.born);
            } else {
                let (n, p) = downstream(node, out);
                inputs[n][p].push_back(flit);
            }
        }
    }
    delivered ^ latency.rotate_left(32)
}

/// Seconds of one reference run, the median of a few.
pub fn measure() -> f64 {
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::check::median(&times)
}

/// `host_s` stated at the reference speed, given the reference time
/// measured next to it.
pub fn at_nominal(host_s: f64, reference_s: f64) -> f64 {
    host_s * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_fixed_work() {
        let first = run();
        assert_eq!(first, run());
        // It delivers flits, so it is not an empty loop.
        assert!(first != 0);
        assert!(measure() > 0.0);
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_time() {
        assert_eq!(at_nominal(2.0, NOMINAL_S), 2.0);
        assert_eq!(at_nominal(2.0, 2.0 * NOMINAL_S), 1.0);
    }
}
