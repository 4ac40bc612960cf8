//! Lowering and VM execution of optimized PolyMage pipelines, checked
//! bit-exact against interpreter digests: the exec half of the `camera`
//! and `harris` workloads, and all of `exec-large`.

use crate::layers::{chain_pass, cold_memo, trace_overhead, OVERHEAD_REPS};
use crate::measure::{calibrate, nproc, peak_rss_mb, timed, window_over, Samples, CALIB_REF_S};
use crate::programs::{
    exec_item, working_set, ExecSet, ExecSpec, Item, CAMERA, EXEC_LARGE, HARRIS,
};
use crate::{Args, Metrics, Outcome};
use std::time::Instant;
use tilefuse_codegen::{
    disasm, execute_compiled, execute_tree_dag, lower_tree, CompiledProgram, ExecBackend,
    ExecContext, ExecStats,
};
use tilefuse_core::Optimized;
use tilefuse_fuzzgen::output_digest;

/// Output digests of `codegen::reference_execute`, one line per program:
/// `name image-side digest reference-instances`. Regenerate with
/// `perfbench --gen-digests perfbench/digests.txt`.
const DIGESTS: &str = include_str!("../digests.txt");

/// Times the program set is built and optimized before the timed loop,
/// which adds one more per round.
const SETUP_REPS: usize = 3;

struct Expected {
    digest: u64,
    ref_instances: u64,
}

fn expected(spec: &ExecSpec) -> Result<Expected, String> {
    DIGESTS
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == spec.name && f[1] == spec.img.to_string()).then_some(f)
        })
        .find_map(|f| {
            Some(Expected {
                digest: u64::from_str_radix(f[2], 16).ok()?,
                ref_instances: f[3].parse().ok()?,
            })
        })
        .ok_or_else(|| format!("no reference digest for {} at {}²", spec.name, spec.img))
}

/// Writes the interpreter digests of every executed program to `path`.
pub fn gen_digests(path: &std::path::Path) -> Result<(), String> {
    let mut out = String::new();
    for spec in [CAMERA, HARRIS, EXEC_LARGE]
        .iter()
        .flat_map(|set| set.specs)
    {
        let item = exec_item(spec)?;
        let (ctx, stats) = tilefuse_codegen::reference_execute(&item.program, &[])
            .map_err(|e| format!("{}: reference: {e}", spec.name))?;
        let line = format!(
            "{} {} {:016x} {}\n",
            spec.name,
            spec.img,
            output_digest(&item.program, &ctx),
            stats.total_instances()
        );
        eprint!("{line}");
        out.push_str(&line);
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// One optimized program and what it must produce.
struct Prepared {
    spec: ExecSpec,
    item: Item,
    opt: Optimized,
    expect: Expected,
}

impl Prepared {
    fn label(&self) -> &str {
        &self.item.label
    }

    /// Lowers on a cold presburger memo, so every sample does the same
    /// work whatever ran before it. The memo is emptied before the clock
    /// starts; returns the lowering's seconds.
    fn lower(&self) -> Result<(f64, CompiledProgram), String> {
        cold_memo();
        let (t, compiled) = timed(|| {
            lower_tree(
                &self.item.program,
                &self.opt.tree,
                &[],
                &self.opt.report.scratch_scopes,
            )
        });
        let compiled = compiled.map_err(|e| format!("{}: lower: {e}", self.label()))?;
        Ok((t, compiled))
    }

    /// Fails unless the run did work and its outputs are bit-exact with
    /// the interpreter's.
    fn check(&self, how: &str, out: &(ExecContext, ExecStats)) -> Result<(), String> {
        if out.1.total_instances() == 0 {
            return Err(format!("{} ({how}): executed 0 instances", self.label()));
        }
        let digest = output_digest(&self.item.program, &out.0);
        if digest != self.expect.digest {
            return Err(format!(
                "{} ({how}): output digest {digest:016x} differs from the interpreter's {:016x}",
                self.label(),
                self.expect.digest
            ));
        }
        Ok(())
    }

    fn run_vm(
        &self,
        compiled: &CompiledProgram,
        threads: usize,
    ) -> Result<(f64, ExecStats), String> {
        let (t, out) = timed(|| execute_compiled(&self.item.program, compiled, threads));
        let out = out.map_err(|e| format!("{}: VM at {threads} threads: {e}", self.label()))?;
        self.check(&format!("VM, {threads} threads"), &out)?;
        Ok((t, out.1))
    }

    /// Runs the VM at 1 and at `threads` threads; returns both times and
    /// the statistics, which must agree between the two.
    fn run_pair(
        &self,
        compiled: &CompiledProgram,
        threads: usize,
    ) -> Result<(f64, f64, ExecStats), String> {
        let (t1, stats) = self.run_vm(compiled, 1)?;
        let (tp, par_stats) = self.run_vm(compiled, threads)?;
        if par_stats != stats {
            return Err(format!(
                "{}: VM stats at {threads} threads differ from 1 thread",
                self.label()
            ));
        }
        Ok((t1, tp, stats))
    }
}

/// Builds and optimizes every program on a cold presburger memo, as a
/// fresh process would; returns the seconds that took and the set. The
/// memo is emptied before the clock starts.
fn prepare(specs: &[ExecSpec]) -> Result<(f64, Vec<Prepared>), String> {
    cold_memo();
    let (s, set) = timed(|| -> Result<Vec<Prepared>, String> {
        specs
            .iter()
            .map(|spec| {
                let item = exec_item(spec)?;
                let opt = tilefuse_core::optimize(&item.program, &item.opts)
                    .map_err(|e| format!("{}: optimize: {e}", spec.name))?;
                Ok(Prepared {
                    spec: *spec,
                    item,
                    opt,
                    expect: expected(spec)?,
                })
            })
            .collect()
    });
    Ok((s, set?))
}

/// Prepares the set `SETUP_REPS` times; returns the set-up samples and
/// the last set.
fn setup(specs: &[ExecSpec]) -> Result<(Samples, Vec<Prepared>), String> {
    let mut t = Samples::default();
    let mut last = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, set) = prepare(specs)?;
        last = set;
        t.push(s);
    }
    let (l1d, l2) = crate::measure::cache_sizes();
    for p in &last {
        let (total, largest) = working_set(&p.item.program);
        eprintln!(
            "working set {}: {} KiB in all arrays, largest array {} KiB ({:.1}x L1d, {:.2}x L2)",
            p.label(),
            total / 1024,
            largest / 1024,
            largest as f64 / l1d.max(1) as f64,
            largest as f64 / l2.max(1) as f64
        );
    }
    Ok((t, last))
}

/// Per-program samples of the timed loop.
#[derive(Default)]
struct Timings {
    lower: Samples,
    run: Samples,
}

pub fn run(args: &Args, exec: &ExecSet) -> Result<Outcome, String> {
    let (mut setup_s, set) = setup(exec.specs)?;
    if args.trace {
        return traced(set);
    }
    // A warm-up round, outside the window: each program is lowered and
    // run at 1 and at `nproc` threads, both runs checked. Its work counts
    // are the ones every timed round must repeat.
    let threads = nproc();
    let mut counts = Vec::new();
    for p in &set {
        let (_, compiled) = p.lower()?;
        let (t1, tp, stats) = p.run_pair(&compiled, threads)?;
        let lines = disasm(&compiled).lines().count();
        eprintln!(
            "warm-up {}: VM {t1:.4} s at 1 thread, {tp:.4} s at {threads}; instances {} \
             (reference {}), loads {}, stores {}, scratch_hits {}, code lines {lines}",
            p.label(),
            stats.total_instances(),
            p.expect.ref_instances,
            stats.loads,
            stats.stores,
            stats.scratch_hits
        );
        counts.push((stats, lines));
    }
    // The timed loop lowers and runs at 1 thread only: over five runs
    // the `nproc`-thread time spread by 0.5–0.7 of its median (README.md).
    let mut timings: Vec<Timings> = set.iter().map(|_| Timings::default()).collect();
    let mut calib = Samples::default();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < exec.min_rounds || !window_over(start, args.seconds) {
        // Set-up is sampled in every round too, so that its samples
        // spread over the window like the others.
        setup_s.push(prepare(exec.specs)?.0);
        calib.push(calibrate());
        for ((p, t), first) in set.iter().zip(&mut timings).zip(&counts) {
            let (tl, compiled) = p.lower()?;
            t.lower.push(tl);
            calib.push(calibrate());
            let (t1, stats) = p.run_vm(&compiled, 1)?;
            t.run.push(t1);
            if *first != (stats, disasm(&compiled).lines().count()) {
                return Err(format!(
                    "{}: work counts differ between two rounds",
                    p.label()
                ));
            }
        }
        rounds += 1;
    }
    // The timings are reported in seconds of a host that runs the
    // calibration in `CALIB_REF_S`: this host's speed swings by a third
    // and more in phases of minutes, and the calibration swings with it.
    let scale = CALIB_REF_S / calib.median();
    eprintln!("{}", calib.describe("calibration", "s"));
    eprintln!("host speed: timings scaled by {scale:.4} to the reference host");
    let mut m = Metrics::default();
    let mut sum = |name: &str, pick: fn(&Timings) -> &Samples| {
        let mut total = 0.0;
        for (p, t) in set.iter().zip(&timings) {
            eprintln!(
                "{} (unscaled)",
                pick(t).describe(&format!("{name}.{}", p.label()), "s")
            );
            total += pick(t).median();
        }
        m.put(name, total * scale, "s");
    };
    sum("lower_s", |t| &t.lower);
    sum("run_s", |t| &t.run);
    eprintln!("{} (unscaled)", setup_s.describe("setup_s", "s"));
    m.put("setup_s", setup_s.median() * scale, "s");
    m.put("peak_rss_mb", peak_rss_mb("self")?, "MB");
    Ok(Outcome {
        attempted: (2 + rounds) * set.len() as u64,
        failed: 0,
        metrics: m,
    })
}

/// The per-layer run. The chain runs once on freshly built programs and a
/// cold memo; lowering, the VM at 1 and `nproc` threads and the tile-DAG
/// runtime then run once per program, each timed and checked. The
/// `codegen.*` numbers are sums over the set, so every set reports the
/// same names. The tracing overhead is measured on further chain passes.
fn traced(set: Vec<Prepared>) -> Result<Outcome, String> {
    let threads = nproc();
    let fresh =
        || -> Result<Vec<Item>, String> { set.iter().map(|p| exec_item(&p.spec)).collect() };
    let (_, chain, counts) = chain_pass(&fresh()?, true)?;
    let mut m = Metrics::default();
    chain.report(&mut m);
    let mut total = ExecStats::default();
    let (mut lower_ms, mut vm_ms, mut vm_par_ms, mut lines) = (0.0, 0.0, 0.0, 0);
    let mut dag_ms = None;
    // Optimize calls of the reported and the overhead chain passes; the
    // checked executions are added below.
    let mut attempted = set.len() as u64 * (1 + 2 * OVERHEAD_REPS as u64);
    for p in &set {
        let name = p.label();
        let (tl, compiled) = p.lower()?;
        let (tv, tp, stats) = p.run_pair(&compiled, threads)?;
        attempted += 2;
        if p.spec.dag {
            attempted += 1;
            let (td, dag) = timed(|| {
                execute_tree_dag(
                    &p.item.program,
                    &p.opt.tree,
                    &[],
                    &p.opt.report.scratch_scopes,
                    threads,
                    ExecBackend::Vm,
                )
            });
            let dag = dag.map_err(|e| format!("{name}: tile DAG: {e}"))?;
            p.check("tile DAG", &dag)?;
            if dag.1 != stats {
                return Err(format!("{name}: tile-DAG stats differ from the VM's"));
            }
            eprintln!("codegen.dag_ms.{name}: {:.3}", td * 1e3);
            *dag_ms.get_or_insert(0.0) += td * 1e3;
        }
        let code_lines = disasm(&compiled).lines().count();
        eprintln!(
            "codegen.{name}: lower {:.3} ms, vm {:.3} ms, vm_par {:.3} ms, {} instances, \
             {code_lines} code lines",
            tl * 1e3,
            tv * 1e3,
            tp * 1e3,
            stats.total_instances()
        );
        lower_ms += tl * 1e3;
        vm_ms += tv * 1e3;
        vm_par_ms += tp * 1e3;
        lines += code_lines;
        total.merge(&stats);
    }
    let n = total.total_instances();
    m.put("codegen.lower_ms", lower_ms, "ms");
    m.put("codegen.code_lines", lines as f64, "count");
    m.put("codegen.vm_ms", vm_ms, "ms");
    m.put("codegen.vm_par_ms", vm_par_ms, "ms");
    if let Some(ms) = dag_ms {
        m.put("codegen.dag_ms", ms, "ms");
    }
    m.put("codegen.instances", n as f64, "count");
    m.put("codegen.ns_per_instance", vm_ms * 1e6 / n as f64, "ns");
    m.put(
        "codegen.scratch_hit_ratio",
        total.scratch_hits as f64 / total.loads.max(1) as f64,
        "ratio",
    );
    m.put("codegen.loads", total.loads as f64, "count");
    m.put("codegen.stores", total.stores as f64, "count");
    m.put("codegen.scratch_hits", total.scratch_hits as f64, "count");
    let overhead = trace_overhead(&fresh, true, &counts)?;
    m.put("bench.trace_overhead_ms", overhead, "ms");
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}
