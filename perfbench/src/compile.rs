//! `compile`: cold `core::optimize` passes over the paper's compile set.
//!
//! All of the time goes to `pir`, `scheduler`, `core` and `presburger`;
//! none to `codegen`. Local Laplacian and Multiscale Interpolation
//! dominate it.

use crate::layers::{chain_pass, cold_memo, on_rung_one, trace_overhead, OVERHEAD_REPS};
use crate::measure::{peak_rss_mb, timed, window_over, Samples};
use crate::programs::{compile_set, Item};
use crate::{Args, Metrics, Outcome};
use std::time::Instant;
use tilefuse_presburger::stats;

/// Times the program set is built to measure set-up.
const SETUP_REPS: usize = 41;
/// Fewest timed passes a run makes, however short its window.
const MIN_PASSES: usize = 3;

/// The exact work one cold pass does. Two cold passes over the same
/// programs in the same order must agree on every field.
#[derive(Debug, PartialEq)]
struct Counts {
    omega_ops: u64,
    presburger: stats::CacheStats,
}

/// Builds the set `SETUP_REPS` times and returns the median build time
/// with a fresh set.
fn setup() -> Result<(f64, Vec<Item>), String> {
    let mut t = Samples::default();
    for _ in 0..SETUP_REPS {
        let (s, set) = timed(compile_set);
        set?;
        t.push(s);
    }
    eprintln!("{}", t.describe("setup_s", "s"));
    Ok((t.median(), compile_set()?))
}

/// One cold pass: rebuilt programs, cleared memo and zeroed counters
/// (all outside the timed region), then `optimize` on every program.
fn cold_pass(set: &[Item]) -> Result<(f64, Counts), String> {
    cold_memo();
    let mut omega_ops = 0;
    let (t, res) = timed(|| -> Result<(), String> {
        for item in set {
            let o = tilefuse_core::optimize(&item.program, &item.opts)
                .map_err(|e| format!("{}: optimize: {e}", item.label))?;
            on_rung_one(&item.label, o.report.degradation.rung)?;
            omega_ops += o.report.degradation.omega_ops;
        }
        Ok(())
    });
    res?;
    Ok((
        t,
        Counts {
            omega_ops,
            presburger: stats::snapshot(),
        },
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup_s, first) = setup()?;
    let n = first.len() as u64;
    if args.trace {
        return traced(first);
    }
    let start = Instant::now();
    let mut opt = Samples::default();
    let mut reference: Option<Counts> = None;
    let mut set = Some(first);
    while opt.len() < MIN_PASSES || !window_over(start, args.seconds) {
        let programs = match set.take() {
            Some(s) => s,
            None => compile_set()?,
        };
        let (t, counts) = cold_pass(&programs)?;
        opt.push(t);
        match &reference {
            None => {
                eprintln!(
                    "work counts per pass: omega_ops {} | presburger {}",
                    counts.omega_ops, counts.presburger
                );
                reference = Some(counts);
            }
            Some(r) if *r != counts => {
                return Err(format!(
                    "work counts differ between two cold passes: {r:?} vs {counts:?}"
                ))
            }
            Some(_) => {}
        }
    }
    eprintln!("{}", opt.describe("optimize_s", "s"));
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("optimize_s", opt.median(), "s");
    m.put("peak_rss_mb", peak_rss_mb("self")?, "MB");
    Ok(Outcome {
        attempted: n * opt.len() as u64,
        failed: 0,
        metrics: m,
    })
}

/// The per-layer run: one chain pass gives the metrics, then the
/// tracing overhead is measured on further passes that must repeat its
/// work counts exactly.
fn traced(first: Vec<Item>) -> Result<Outcome, String> {
    let (_, chain, counts) = chain_pass(&first, false)?;
    let overhead = trace_overhead(&compile_set, false, &counts)?;
    let mut m = Metrics::default();
    chain.report(&mut m);
    m.put("bench.trace_overhead_ms", overhead, "ms");
    Ok(Outcome {
        attempted: first.len() as u64 * (1 + 2 * OVERHEAD_REPS as u64),
        failed: 0,
        metrics: m,
    })
}
