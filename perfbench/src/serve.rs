//! The serve half of the `camera` and `harris` workloads: a spawned
//! `tilefused` under fault-free open-loop traffic.
//!
//! The traffic is `fuzzgen::random_spec` pipelines. Half of each
//! phase's requests reuse one of a hot pool of structures at a fresh,
//! slightly larger image size, so they hit the daemon's plan cache; the
//! other half are new structures, so they pay a cold optimize. No request
//! carries a `fault`, `budget` or `deadline_ms` field.
//!
//! The structures come from a fixed catalog (`random_spec` from the
//! workload's catalog seed); the run's seed draws the order of each phase's
//! requests and the fresh sizes. A few `random_spec` structures take
//! 0.4–1.5 s in the daemon's interpreter and block their connection, so
//! with the structures drawn from the run's seed the median latency moved
//! between 2 and 52 ms from seed to seed; a fixed catalog keeps that work
//! the same in every run.
//!
//! The load is open-loop over two connections from this process: request
//! `i` of a phase is due at `i / rate` seconds after the phase starts,
//! whether or not earlier requests were answered. A writer thread per
//! connection sends each request at its due time and a reader thread
//! takes the replies, so latency is timed from when a request was due and
//! includes any wait a slow reply imposed on the requests behind it. Two
//! open-loop phases run back to back, `light` then `heavy`. A traced run
//! then adds a `closed` loop: each connection sends its next request as
//! soon as its previous reply arrives. The heavy rate sits well below the daemon's
//! capacity, so the heavy goodput moves only once the daemon saturates;
//! the closed loop's throughput and latency follow service time below
//! saturation, but swing with the host too much for a bound (README.md).

use crate::measure::{nproc, peak_rss_mb, Samples};
use crate::{Args, Metrics, Outcome};
use std::collections::{BTreeMap, HashSet};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tilefuse_fuzzgen::{build_program, output_digest, random_spec, spec_to_json, ProgramSpec, Rng};
use tilefuse_server::protocol;
use tilefuse_trace::json::{self, Value};

/// Requests per second of the light phase (total over both connections).
const LIGHT_RPS: f64 = 15.0;
/// Requests per second of the heavy phase.
const HEAVY_RPS: f64 = 30.0;
/// Shares of `--seconds` the light and the heavy phase run for. The
/// closed-loop phase of a traced run sends as many requests as the heavy
/// phase.
const LIGHT_SHARE: f64 = 0.2;
const HEAVY_SHARE: f64 = 0.4;
/// Client connections.
const CONNS: usize = 2;
/// Hot-pool structures that repeated requests are drawn from.
const HOT_POOL: usize = 8;
/// A request answered later than this after it was due misses the limit.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// A run whose generator sent any request later than this after it was
/// due is invalid: it fell a whole request behind on a connection, so it
/// no longer kept the offered rate and its latencies would describe the
/// generator. The limit is the interval between two requests of one
/// connection at the heavy rate.
const MAX_GENERATOR_LAG_MS: f64 = 1e3 * CONNS as f64 / HEAVY_RPS;
/// Daemon spawns measured for set-up (the last one serves the traffic).
const SETUP_REPS: usize = 21;
/// How long any single wait on the daemon may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of the generated traffic.
struct Req {
    spec: ProgramSpec,
    /// Whether its structure was already sent earlier in the run.
    repeat: bool,
}

/// The run's traffic: `phases[0]` requests, then `phases[1]`, and so on.
/// Each phase alternates new structures of the catalog drawn from
/// `catalog_seed` with hot-pool ones, then is shuffled by `seed`, which
/// also draws the hot requests' fresh sizes.
fn traffic(seed: u64, catalog_seed: u64, phases: &[usize]) -> Vec<Req> {
    let mut catalog = Rng::new(catalog_seed);
    let pool: Vec<ProgramSpec> = (0..HOT_POOL).map(|_| random_spec(&mut catalog)).collect();
    let mut rng = Rng::new(seed);
    let mut specs = Vec::new();
    let mut hot = 0;
    for &n in phases {
        let mut phase: Vec<ProgramSpec> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    return random_spec(&mut catalog);
                }
                let mut s = pool[hot % HOT_POOL].clone();
                hot += 1;
                // A fresh size: never smaller than the drawn one, so every
                // stage keeps the rows its halo needs.
                s.size += rng.range(1, 3) as i64;
                s
            })
            .collect();
        for i in (1..phase.len()).rev() {
            phase.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        specs.extend(phase);
    }
    let mut seen = HashSet::new();
    specs
        .into_iter()
        .map(|spec| {
            let shape = spec_to_json(&ProgramSpec {
                size: 0,
                param_delta: 0,
                ..spec.clone()
            });
            let repeat = !seen.insert(shape);
            Req { spec, repeat }
        })
        .collect()
}

fn send(s: &mut UnixStream, v: &Value) -> Result<(), String> {
    protocol::write_frame(s, v).map_err(|e| format!("write to tilefused: {e}"))
}

fn recv(s: &mut UnixStream) -> Result<Value, String> {
    protocol::read_frame(s)
        .map_err(|e| format!("read from tilefused: {e}"))?
        .ok_or_else(|| "tilefused closed the connection".to_string())
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let s = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

fn request(op: &str, id: u64, spec: Option<&ProgramSpec>) -> Value {
    let mut o = BTreeMap::new();
    o.insert("op".to_string(), Value::Str(op.into()));
    o.insert("id".to_string(), Value::Num(id as f64));
    if let Some(spec) = spec {
        let v = json::parse(&spec_to_json(spec)).expect("spec_to_json renders valid JSON");
        o.insert("spec".to_string(), v);
    }
    Value::Obj(o)
}

/// One request/reply exchange on a fresh connection.
fn call(socket: &Path, op: &str) -> Result<Value, String> {
    let mut s = connect(socket)?;
    send(&mut s, &request(op, 0, None))?;
    let v = recv(&mut s)?;
    match v.get("status").and_then(Value::as_str) {
        Some("ok") => Ok(v),
        _ => Err(format!("{op} answered {}", v.render())),
    }
}

/// A running daemon; killed and reaped if the run fails before a clean
/// shutdown.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `tilefused` and returns it once it answers `ping`, with the
    /// seconds that took.
    fn spawn(bin: &Path, dir: &Path) -> Result<(f64, Daemon), String> {
        let socket = dir.join("tilefused.sock");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--quarantine-dir")
            .arg(dir.join("quarantine"))
            .args(["--workers", &nproc().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let d = Daemon { child, socket };
        // The daemon's accept loop naps 5 ms when idle. A ping sent as
        // soon as the socket exists races the loop's first `accept` and
        // makes set-up time bimodal (1.6 or 7 ms); sent 2 ms later, it is
        // always answered on the loop's first wake-up.
        while !d.socket.exists() {
            if t0.elapsed() > IO_TIMEOUT {
                return Err("tilefused did not bind its socket".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        std::thread::sleep(Duration::from_millis(2));
        loop {
            if call(&d.socket, "ping").is_ok() {
                return Ok((t0.elapsed().as_secs_f64(), d));
            }
            if t0.elapsed() > IO_TIMEOUT {
                return Err("tilefused did not answer ping".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stats(&self) -> Result<Value, String> {
        call(&self.socket, "stats")?
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats reply without stats".to_string())
    }

    /// Sends `shutdown` and fails unless the daemon exits 0.
    fn shutdown(mut self) -> Result<(), String> {
        call(&self.socket, "shutdown")?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(s) if s.success() => return Ok(()),
                Some(s) => return Err(format!("tilefused exited with {s}")),
                None if t0.elapsed() > IO_TIMEOUT => {
                    return Err("tilefused did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One reply, as the reader thread saw it.
struct Reply {
    id: usize,
    latency_ms: f64,
    status: String,
    digest: Option<String>,
    /// `supervision.cache`: `hit` or `miss`.
    cache: String,
    /// `supervision.elapsed_ms`: the worker's whole job, optimize and
    /// execution.
    service_ms: f64,
    /// Σ `supervision.attempts[].elapsed_ms`: optimize attempts only (0 on
    /// a cache hit).
    optimize_ms: f64,
    rung: f64,
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_num().unwrap_or(0.0)
}

impl Reply {
    fn parse(id: usize, latency_ms: f64, v: &Value) -> Result<Reply, String> {
        if v.get("id").and_then(Value::as_num) != Some(id as f64) {
            return Err(format!("reply to request {id} carries the wrong id"));
        }
        let optimize_ms = v
            .get("supervision")
            .and_then(|s| s.get("attempts"))
            .and_then(Value::as_arr)
            .map_or(0.0, |a| a.iter().map(|x| num(x, &["elapsed_ms"])).sum());
        Ok(Reply {
            id,
            latency_ms,
            status: v
                .get("status")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("untyped reply to request {id}"))?
                .to_string(),
            digest: v.get("digest").and_then(Value::as_str).map(str::to_string),
            cache: v
                .get("supervision")
                .and_then(|s| s.get("cache"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            service_ms: num(v, &["supervision", "elapsed_ms"]),
            optimize_ms,
            rung: num(v, &["rung"]),
        })
    }
}

/// What one open-loop phase measured.
struct Phase {
    replies: Vec<Reply>,
    /// How late the generator sent each request, ms.
    lag_ms: Vec<f64>,
    /// From the first request's due time to the last reply.
    seconds: f64,
}

/// Sends `reqs[first..first + n]` at `rate` over `CONNS` connections.
fn phase(socket: &Path, reqs: &[Req], first: usize, n: usize, rate: f64) -> Result<Phase, String> {
    let frames: Vec<Value> = (first..first + n)
        .map(|i| request("optimize", i as u64, Some(&reqs[i].spec)))
        .collect();
    let streams = (0..CONNS)
        .map(|_| connect(socket))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut replies = Vec::new();
    let mut lag_ms = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for (c, stream) in streams.iter().enumerate() {
            let mine: Vec<usize> = (c..n).step_by(CONNS).collect();
            let mut w = stream.try_clone().map_err(|e| e.to_string())?;
            let mut r = stream.try_clone().map_err(|e| e.to_string())?;
            let to_send = mine.clone();
            let frames = &frames;
            let writer = scope.spawn(move || -> Result<Vec<f64>, String> {
                let mut lags = Vec::new();
                for k in to_send {
                    let at = due(k);
                    let now = Instant::now();
                    if now < at {
                        std::thread::sleep(at - now);
                    }
                    lags.push(Instant::now().duration_since(at).as_secs_f64() * 1e3);
                    send(&mut w, &frames[k])?;
                }
                Ok(lags)
            });
            let reader = scope.spawn(move || -> Result<Vec<Reply>, String> {
                mine.into_iter()
                    .map(|k| {
                        let v = recv(&mut r)?;
                        let latency = Instant::now().duration_since(due(k)).as_secs_f64() * 1e3;
                        Reply::parse(first + k, latency, &v)
                    })
                    .collect()
            });
            handles.push((writer, reader));
        }
        for (writer, reader) in handles {
            let w = writer
                .join()
                .map_err(|_| "writer thread panicked".to_string())?;
            let r = reader
                .join()
                .map_err(|_| "reader thread panicked".to_string())?;
            lag_ms.extend(w?);
            replies.extend(r?);
        }
        Ok(())
    })?;
    replies.sort_by_key(|r| r.id);
    Ok(Phase {
        replies,
        lag_ms,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Sends `reqs[first..first + n]` closed-loop: each of `CONNS`
/// connections sends the next unsent request as soon as its previous
/// reply arrives. Latency is timed from the send.
fn closed_loop(socket: &Path, reqs: &[Req], first: usize, n: usize) -> Result<Phase, String> {
    let frames: Vec<Value> = (first..first + n)
        .map(|i| request("optimize", i as u64, Some(&reqs[i].spec)))
        .collect();
    let streams = (0..CONNS)
        .map(|_| connect(socket))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut replies = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let clients: Vec<_> = streams
            .into_iter()
            .map(|mut s| {
                let (frames, next) = (&frames, &next);
                scope.spawn(move || -> Result<Vec<Reply>, String> {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            return Ok(mine);
                        }
                        let sent = Instant::now();
                        send(&mut s, &frames[k])?;
                        let v = recv(&mut s)?;
                        let latency = sent.elapsed().as_secs_f64() * 1e3;
                        mine.push(Reply::parse(first + k, latency, &v)?);
                    }
                })
            })
            .collect();
        for c in clients {
            replies.extend(
                c.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok(())
    })?;
    replies.sort_by_key(|r| r.id);
    Ok(Phase {
        replies,
        lag_ms: Vec::new(),
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Daemon counter `key` of `after` minus that of `before`.
fn delta(before: &Value, after: &Value, key: &str) -> f64 {
    num(after, &[key]) - num(before, &[key])
}

/// Checks every `ok` digest against a local reference execution.
fn verify(reqs: &[Req], replies: &[&Reply]) -> Result<u64, String> {
    let mut checked = 0;
    for r in replies.iter().filter(|r| r.status == "ok") {
        let spec = &reqs[r.id].spec;
        let program = build_program(spec).map_err(|e| format!("request {}: {e}", r.id))?;
        let side = spec.size + spec.param_delta;
        let (ctx, _) = tilefuse_codegen::reference_execute(&program, &[("H", side), ("W", side)])
            .map_err(|e| format!("request {}: reference: {e}", r.id))?;
        let expected = format!("{:016x}", output_digest(&program, &ctx));
        if r.digest.as_deref() != Some(expected.as_str()) {
            return Err(format!(
                "request {}: daemon digest {:?} differs from the reference {expected}",
                r.id, r.digest
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Serves the traffic whose structures come from `catalog_seed`.
pub fn run(args: &Args, catalog_seed: u64) -> Result<Outcome, String> {
    let bin = args
        .daemon
        .as_deref()
        .ok_or("serve needs --daemon PATH to the tilefused binary")?;
    let dir = args.scratch.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = serve(args, catalog_seed, bin, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve(args: &Args, catalog_seed: u64, bin: &Path, dir: &Path) -> Result<Outcome, String> {
    let mut setup = Samples::default();
    let mut daemon = None;
    for k in 0..SETUP_REPS {
        let (t, d) = Daemon::spawn(bin, dir)?;
        setup.push(t);
        if k + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_REPS >= 1");
    eprintln!("{}", setup.describe("setup_s", "s"));

    let n_light = (LIGHT_RPS * LIGHT_SHARE * args.seconds).round().max(1.0) as usize;
    let n_heavy = (HEAVY_RPS * HEAVY_SHARE * args.seconds).round().max(1.0) as usize;
    // The closed loop feeds per-layer metrics only.
    let n_cap = if args.trace { n_heavy } else { 0 };
    let reqs = traffic(args.seed, catalog_seed, &[n_light, n_heavy, n_cap]);
    let s0 = daemon.stats()?;
    let light = phase(&daemon.socket, &reqs, 0, n_light, LIGHT_RPS)?;
    let heavy = phase(&daemon.socket, &reqs, n_light, n_heavy, HEAVY_RPS)?;
    let capacity = if args.trace {
        Some(closed_loop(
            &daemon.socket,
            &reqs,
            n_light + n_heavy,
            n_cap,
        )?)
    } else {
        None
    };
    let s2 = daemon.stats()?;
    let rss = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;

    let all: Vec<&Reply> = light
        .replies
        .iter()
        .chain(&heavy.replies)
        .chain(capacity.iter().flat_map(|p| &p.replies))
        .collect();
    let checked = verify(&reqs, &all)?;
    let failed = all.iter().filter(|r| r.status != "ok").count() as u64;
    let max_lag = light
        .lag_ms
        .iter()
        .chain(&heavy.lag_ms)
        .copied()
        .fold(0.0, f64::max);
    if max_lag > MAX_GENERATOR_LAG_MS {
        return Err(format!(
            "invalid run: the generator sent a request {max_lag:.1} ms late \
             (limit {MAX_GENERATOR_LAG_MS:.1} ms)"
        ));
    }

    // Traffic properties this run actually had.
    let repeat_share = reqs.iter().filter(|r| r.repeat).count() as f64 / reqs.len() as f64;
    let mut stages: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &reqs {
        *stages.entry(r.spec.stages.len()).or_default() += 1;
    }
    let mean = |f: fn(&ProgramSpec) -> f64| {
        reqs.iter().map(|r| f(&r.spec)).sum::<f64>() / reqs.len() as f64
    };
    let stages_mean = mean(|s| s.stages.len() as f64);
    let side_mean = mean(|s| (s.size + s.param_delta) as f64);
    eprintln!(
        "traffic: seed {}, catalog {catalog_seed:#x}, {n_light} light at {LIGHT_RPS}/s + {n_heavy} heavy at {HEAVY_RPS}/s \
         + {n_cap} closed-loop over {CONNS} connections; repeat share {repeat_share:.3}; stages per spec {stages:?} \
         (mean {stages_mean:.2}); mean image side {side_mean:.2}; {checked} ok digests verified; \
         max generator lag {max_lag:.3} ms",
        args.seed
    );

    let mut slow: Vec<&&Reply> = all.iter().collect();
    slow.sort_by(|a, b| b.service_ms.total_cmp(&a.service_ms));
    for r in slow.iter().take(3) {
        eprintln!(
            "slowest: request {} {} service {:.1} ms optimize {:.1} ms stages {} side {} tile {}",
            r.id,
            r.cache,
            r.service_ms,
            r.optimize_ms,
            reqs[r.id].spec.stages.len(),
            reqs[r.id].spec.size + reqs[r.id].spec.param_delta,
            reqs[r.id].spec.tile
        );
    }
    let latency = |p: &Phase| Samples(p.replies.iter().map(|r| r.latency_ms).collect());
    let mut m = Metrics::default();
    // Latency under queueing amplifies this host's noise: on identical
    // traffic (one seed, four runs) the p50s and tails spread by 0.33–0.64
    // of their median, so they are per-layer numbers, not end-to-end
    // metrics with a bound.
    let phases = [
        ("light", Some(&light)),
        ("heavy", Some(&heavy)),
        ("closed", capacity.as_ref()),
    ];
    for (name, p) in phases.into_iter().filter_map(|(n, p)| Some((n, p?))) {
        let l = latency(p);
        eprintln!("{}", l.describe(&format!("latency.{name}"), "ms"));
        for cache in ["hit", "miss"] {
            let part = Samples(
                p.replies
                    .iter()
                    .filter(|r| r.cache == cache)
                    .map(|r| r.latency_ms)
                    .collect(),
            );
            if part.len() > 0 {
                eprintln!(
                    "{}",
                    part.describe(&format!("latency.{name}.cache-{cache}"), "ms")
                );
            }
        }
        if args.trace {
            let (_, tail) = l
                .tail()
                .ok_or_else(|| format!("{name}: fewer than 20 requests; raise --seconds"))?;
            m.put(&format!("serve.p50_ms.{name}"), l.median(), "ms");
            m.put(&format!("serve.tail_ms.{name}"), tail, "ms");
        }
    }
    if args.trace {
        let service = Samples(all.iter().map(|r| r.service_ms).collect());
        let optimize = Samples(all.iter().map(|r| r.optimize_ms).collect());
        let wait = Samples(
            heavy
                .replies
                .iter()
                .map(|r| r.latency_ms - r.service_ms)
                .collect(),
        );
        let hits = delta(&s0, &s2, "cache_hits");
        let misses = delta(&s0, &s2, "cache_misses");
        m.put("server.service_ms", service.median(), "ms");
        m.put("server.optimize_ms", optimize.median(), "ms");
        m.put("server.wait_ms", wait.median(), "ms");
        m.put("server.cache_hits", hits, "count");
        m.put(
            "server.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        m.put("server.retries", delta(&s0, &s2, "retries"), "count");
        m.put("server.shed", delta(&s0, &s2, "shed"), "count");
        m.put(
            "server.rung_max",
            all.iter().map(|r| r.rung).fold(0.0, f64::max),
            "rung",
        );
        let capacity = capacity.as_ref().expect("a traced run has a closed loop");
        let served = capacity.replies.iter().filter(|r| r.status == "ok").count();
        m.put(
            "serve.capacity_rps",
            served as f64 / capacity.seconds,
            "1/s",
        );
        m.put("serve.repeat_share", repeat_share, "ratio");
        m.put("serve.spec_stages_mean", stages_mean, "count");
        m.put("serve.spec_side_mean", side_mean, "px");
        m.put("bench.generator_lag_ms", max_lag, "ms");
    } else {
        let good = heavy
            .replies
            .iter()
            .filter(|r| r.status == "ok" && r.latency_ms <= LATENCY_LIMIT_MS)
            .count();
        m.put(
            "serve_goodput_rps.heavy",
            good as f64 / heavy.seconds,
            "1/s",
        );
        m.put("setup_s", setup.median(), "s");
        m.put("peak_rss_mb", rss, "MB");
    }
    Ok(Outcome {
        attempted: all.len() as u64,
        failed,
        metrics: m,
    })
}
