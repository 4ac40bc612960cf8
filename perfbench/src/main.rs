//! End-to-end and per-layer benchmark of tilefuse.
//!
//! ```text
//! perfbench --workload camera|harris|compile|exec-large --seed N
//!           --seconds S --trace 0|1 [--daemon PATH] [--scratch DIR]
//! perfbench --gen-digests FILE
//! ```
//!
//! Prints progress and the run's traffic properties to stderr and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! workload's end-to-end metrics; with `--trace 1` they are its per-layer
//! metrics. The two workloads of `BENCHMARK.json`, `camera` and `harris`,
//! run the whole stack and report the same metric names; `compile` and
//! `exec-large` report a subset. A wrong output, a program that executes
//! no instances, a compile that leaves ladder rung 1, work counts that
//! differ between two repetitions, or a late load generator fail the run:
//! it prints `"correct": false` with no metrics and exits 1. See
//! `README.md`.

mod compile;
mod exec;
mod layers;
mod measure;
mod programs;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use tilefuse_trace::json::Value;

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Adds `other`'s metrics. A metric both report, with one unit, is
    /// summed: set-up time until both halves are ready, peak memory of
    /// both processes.
    fn merge(&mut self, other: Metrics) -> Result<(), String> {
        for (name, (v, unit)) in other.0 {
            match self.0.get_mut(&name) {
                None => {
                    self.0.insert(name, (v, unit));
                }
                Some((sum, u)) if *u == unit => *sum += v,
                Some((_, u)) => return Err(format!("{name} reported in {u} and in {unit}")),
            }
        }
        Ok(())
    }

    fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(k, (v, u))| {
                    let mut o = BTreeMap::new();
                    o.insert("value".to_string(), Value::Num(*v));
                    o.insert("unit".to_string(), Value::Str((*u).to_string()));
                    (k.clone(), Value::Obj(o))
                })
                .collect(),
        )
    }
}

/// What a successful run reports.
pub struct Outcome {
    /// Operations attempted: optimize calls, program executions or
    /// requests.
    pub attempted: u64,
    /// Operations that failed or were refused (only requests can; any
    /// other failure fails the run).
    pub failed: u64,
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `tilefused` binary (`camera` and `harris` only).
    pub daemon: Option<PathBuf>,
    /// Directory for the daemon's socket and quarantine.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut daemon = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        daemon,
        scratch,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (l1d, l2) = measure::cache_sizes();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} L1d {} KiB L2 {} KiB",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::nproc(),
        l1d / 1024,
        l2 / 1024
    );
    match args.workload.as_str() {
        "camera" => full_stack(args, &programs::CAMERA, CAMERA_CATALOG),
        "harris" => full_stack(args, &programs::HARRIS, HARRIS_CATALOG),
        "compile" => compile::run(args),
        "exec-large" => exec::run(args, &programs::EXEC_LARGE),
        other => Err(format!(
            "unknown workload {other} (camera, harris, compile, exec-large)"
        )),
    }
}

/// Seeds of the structure catalogs the two workloads serve.
const CAMERA_CATALOG: u64 = 0x7f1e;
const HARRIS_CATALOG: u64 = 0x5eed;

/// A workload through the whole stack: `exec`'s programs optimized,
/// lowered and run in this process, then the traffic of `catalog` served
/// by a spawned `tilefused`.
fn full_stack(args: &Args, exec: &programs::ExecSet, catalog: u64) -> Result<Outcome, String> {
    let mut out = exec::run(args, exec)?;
    let served = serve::run(args, catalog)?;
    out.attempted += served.attempted;
    out.failed += served.failed;
    out.metrics.merge(served.metrics)?;
    Ok(out)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let mut o = BTreeMap::new();
    o.insert("correct".to_string(), Value::Bool(correct));
    o.insert("attempted".to_string(), Value::Num(attempted as f64));
    o.insert("failed".to_string(), Value::Num(failed as f64));
    o.insert("metrics".to_string(), metrics.to_value());
    println!("{}", Value::Obj(o).render());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--gen-digests" {
        return match exec::gen_digests(&PathBuf::from(&argv[2])) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            eprintln!(
                "perfbench: failed_ratio {} ({} of {} operations)",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.failed,
                out.attempted
            );
            print_result(true, out.attempted, out.failed, &out.metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            print_result(false, 1, 1, &Metrics::default());
            ExitCode::FAILURE
        }
    }
}
