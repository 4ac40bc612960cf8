//! The per-layer chain, timed from outside.
//!
//! On a cold memo the chain calls `pir::compute_dependences`, then
//! `scheduler::schedule`, then `core::optimize`, then (on the executed
//! workloads only) `schedtree::flatten`, each through its public entry
//! point. The compile set skips `flatten`: with its Table I tiles
//! (64×256), Camera Pipeline's optimized tree does not flatten within
//! 3 GB even at 512² (see README.md). Every layer
//! therefore shows its increment given the layers before it: `optimize`
//! re-schedules, but finds the dependences and the scheduler's presburger
//! work already memoized. Presburger hits and misses are attributed to a
//! layer by `stats::snapshot()` diffs around its call.

use crate::measure::{timed, Samples};
use crate::programs::Item;
use crate::Metrics;
use tilefuse_core::Optimized;
use tilefuse_presburger::stats::{self, CacheStats, OpStats, OP_NAMES};

/// The layers that presburger work is attributed to, in chain order.
pub const LAYERS: [&str; 3] = ["pir", "scheduler", "core"];

fn per_op(s: &CacheStats) -> [OpStats; 5] {
    [s.is_empty, s.project, s.intersect, s.apply, s.reverse]
}

/// Accumulated per-layer numbers over the programs of one pass.
#[derive(Default)]
pub struct Chain {
    deps_ms: f64,
    schedule_ms: f64,
    groups: u64,
    optimize_ms: f64,
    omega_ops: u64,
    peak_disjuncts: usize,
    rung_max: u8,
    /// `None` when the chain stopped at `optimize`.
    flatten_ms: Option<f64>,
    presburger: [[OpStats; 5]; 3],
    /// `core.optimize` time per program group (PolyMage programs only
    /// end up in the run log).
    optimize_by_group: Vec<(&'static str, f64)>,
}

impl Chain {
    /// Runs the chain on `item` and returns the optimized program.
    pub fn run(&mut self, item: &Item, flatten: bool) -> Result<Optimized, String> {
        let p = &item.program;
        let s0 = stats::snapshot();
        let (t_deps, deps) = timed(|| tilefuse_pir::compute_dependences(p));
        deps.map_err(|e| format!("{}: dependences: {e}", item.label))?;
        let s1 = stats::snapshot();
        let (t_sched, sched) = timed(|| tilefuse_scheduler::schedule(p, item.opts.startup));
        let sched = sched.map_err(|e| format!("{}: schedule: {e}", item.label))?;
        let s2 = stats::snapshot();
        let (t_opt, opt) = timed(|| tilefuse_core::optimize(p, &item.opts));
        let opt = opt.map_err(|e| format!("{}: optimize: {e}", item.label))?;
        on_rung_one(&item.label, opt.report.degradation.rung)?;
        let s3 = stats::snapshot();
        if flatten {
            let (t_flat, flat) = timed(|| tilefuse_schedtree::flatten(&opt.tree));
            flat.map_err(|e| format!("{}: flatten: {e}", item.label))?;
            self.flatten_ms = Some(self.flatten_ms.unwrap_or(0.0) + t_flat * 1e3);
        }

        self.deps_ms += t_deps * 1e3;
        self.schedule_ms += t_sched * 1e3;
        self.groups += sched.fusion.groups.len() as u64;
        self.optimize_ms += t_opt * 1e3;
        let d = &opt.report.degradation;
        self.omega_ops += d.omega_ops;
        self.peak_disjuncts = self.peak_disjuncts.max(d.peak_disjuncts);
        self.rung_max = self.rung_max.max(d.rung);
        for (layer, (a, b)) in [(&s0, &s1), (&s1, &s2), (&s2, &s3)].into_iter().enumerate() {
            for (op, (x, y)) in per_op(a).iter().zip(per_op(b)).enumerate() {
                let acc = &mut self.presburger[layer][op];
                acc.hits += y.hits - x.hits;
                acc.misses += y.misses - x.misses;
            }
        }
        self.optimize_by_group.push((item.group, t_opt * 1e3));
        Ok(opt)
    }

    /// Writes the chain's metrics, and `optimize_ms.<program>` for every
    /// PolyMage program the pass optimized to the run log.
    pub fn report(&self, m: &mut Metrics) {
        m.put("pir.deps_ms", self.deps_ms, "ms");
        m.put("scheduler.schedule_ms", self.schedule_ms, "ms");
        m.put("scheduler.groups", self.groups as f64, "count");
        m.put("core.optimize_ms", self.optimize_ms, "ms");
        m.put("core.omega_ops", self.omega_ops as f64, "count");
        m.put("core.peak_disjuncts", self.peak_disjuncts as f64, "count");
        m.put("core.rung", f64::from(self.rung_max), "rung");
        if let Some(ms) = self.flatten_ms {
            m.put("schedtree.flatten_ms", ms, "ms");
        }
        for (layer, ops) in LAYERS.iter().zip(&self.presburger) {
            for (op, s) in OP_NAMES.iter().zip(ops) {
                let key = format!("presburger.{layer}.{op}");
                m.put(&format!("{key}.hits"), s.hits as f64, "count");
                m.put(&format!("{key}.misses"), s.misses as f64, "count");
                m.put(&format!("{key}.hit_rate"), s.hit_rate(), "ratio");
            }
        }
        m.put(
            "presburger.entries",
            stats::snapshot().entries as f64,
            "count",
        );
        for name in crate::programs::POLYMAGE {
            let ms: f64 = self
                .optimize_by_group
                .iter()
                .filter(|(g, _)| *g == name)
                .map(|(_, t)| *t)
                .sum();
            if ms > 0.0 {
                eprintln!("optimize_ms.{name}: {ms:.3}");
            }
        }
    }
}

/// Fails unless `optimize` kept `label` on ladder rung 1, the paper's
/// full algorithm.
pub fn on_rung_one(label: &str, rung: u8) -> Result<(), String> {
    if rung == 1 {
        Ok(())
    } else {
        Err(format!("{label}: left ladder rung 1 (rung {rung})"))
    }
}

/// Empties the presburger memo and zeroes its counters: a cold start.
pub fn cold_memo() {
    stats::clear_cache();
    stats::reset();
}

/// Chain passes the tracing overhead is measured over, per side.
pub const OVERHEAD_REPS: usize = 3;

/// One chain pass over `set` on a cold memo: its seconds, its per-layer
/// numbers and the presburger counters it left.
pub fn chain_pass(set: &[Item], flatten: bool) -> Result<(f64, Chain, CacheStats), String> {
    cold_memo();
    let mut chain = Chain::default();
    let (t, res) = timed(|| {
        set.iter()
            .try_for_each(|it| chain.run(it, flatten).map(drop))
    });
    res?;
    Ok((t, chain, stats::snapshot()))
}

/// The cost of the program's own `tilefuse_trace` spans: chain passes
/// over freshly built programs, alternately with spans off and on, and
/// the median traced time minus the median untraced time, in ms. Prints
/// the traced phase table. Fails unless every pass does the same work as
/// `reference`, the counters of the reported pass.
pub fn trace_overhead(
    build: &dyn Fn() -> Result<Vec<Item>, String>,
    flatten: bool,
    reference: &CacheStats,
) -> Result<f64, String> {
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    tilefuse_trace::reset();
    for _ in 0..OVERHEAD_REPS {
        for on in [false, true] {
            let set = build()?;
            tilefuse_trace::set_enabled(on);
            let pass = chain_pass(&set, flatten);
            tilefuse_trace::set_enabled(false);
            let (t, _, counts) = pass?;
            if counts != *reference {
                return Err(format!(
                    "work counts differ between two chain passes: {reference} vs {counts}"
                ));
            }
            if on { &mut traced } else { &mut plain }.push(t);
        }
    }
    eprintln!(
        "{}",
        tilefuse_trace::phase_table(&tilefuse_trace::snapshot(), &stats::SLOT_NAMES)
    );
    Ok((traced.median() - plain.median()) * 1e3)
}
