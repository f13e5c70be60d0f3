//! Benchmark of the noc-dvfs reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fig4_sweep`, `mesh8_uniform_loaded`, `mesh32_uniform_light`,
//! `mesh8_degraded` (see `README.md`). With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` a separate run reports the
//! per-layer metrics from spans around calls into each layer. The last
//! line of standard output is the JSON result. `run.py` builds this
//! program and runs it.

mod check;
mod fig4;
mod hostref;
mod openloop;
mod replica;
mod report;

const USAGE: &str = "usage: perfbench --workload <fig4_sweep|mesh8_uniform_loaded|\
                     mesh32_uniform_light|mesh8_degraded> [--seed N] [--seconds S] [--trace 0|1]";

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The `index`-th seed derived from the run's seed; index 0 is the run's
/// seed itself.
pub fn derived_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 2015, seconds: 10.0, trace: false };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The host and build every result is stamped with. `run.py` passes the
/// compiler version and source revision in the environment.
fn print_stamp(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let threads = if args.workload == "fig4_sweep" { noc_dvfs::worker_threads() } else { 1 };
    println!(
        "stamp: cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\" rev={} workload={} seed={} threads={} \
         seconds={} trace={}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_REV"),
        args.workload,
        args.seed,
        threads,
        args.seconds,
        u8::from(args.trace)
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.workload == "fig4_sweep" {
        print_stamp(&args);
        fig4::run(&args)
    } else if let Some(spec) = openloop::spec(&args.workload) {
        print_stamp(&args);
        openloop::run(&args.workload, &spec, &args)
    } else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    report::print(&outcome, args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn derived_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(derived_seed(2015, 0), 2015);
        let seeds: std::collections::BTreeSet<u64> =
            (0..32).map(|i| derived_seed(2015, i)).collect();
        assert_eq!(seeds.len(), 32);
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse("--workload fig4_sweep --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("fig4_sweep", 7, 2.5, true));
        let d = parse("--workload mesh8_degraded").unwrap();
        assert_eq!((d.seed, d.trace), (2015, false));
        for bad in
            ["", "--seed 1", "--workload x --trace 2", "--workload x --seconds 0", "--workload"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
