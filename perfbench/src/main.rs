//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//! `sim-uniform`, `sim-skew-recovery` (virtual-time engine) and
//! `live-flood`, `live-rate-kill` (threaded live runtime). Each run
//! sets up three times (median reported as `setup_s`), warms up
//! untimed, then repeats whole passes over the workload for about
//! `--seconds`, checking every output. With `--trace 0` it prints the
//! end-to-end metrics; `--trace 1` spends half the time untraced and
//! half with every layer wrapped, and prints the per-layer metrics, the
//! tracing overhead and the wrapper self-test. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any output check failed.

mod live;
mod probe;
mod sim;

use checkmate_core::ProtocolKind;
use checkmate_engine::RunReport;
use checkmate_runtime::LiveReport;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The protocols every workload runs, in metric order.
pub const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Coordinated,
    ProtocolKind::Uncoordinated,
    ProtocolKind::CommunicationInduced,
];
const PROTOCOL_KEYS: [&str; 3] = ["coor", "unc", "cic"];

const WORKLOADS: [&str; 4] = [
    "sim-uniform",
    "sim-skew-recovery",
    "live-flood",
    "live-rate-kill",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One measured unit: an engine run or a live run.
#[derive(Debug, Clone)]
pub struct Run {
    pub protocol: usize,
    pub wall_ns: u64,
    /// Useful work: engine events, or digest-verified input records.
    pub work: u64,
    /// Output check passed.
    pub ok: bool,
    /// What the wrapper self-test compares: a hash of the whole
    /// `RunReport` (engine) or the sink digest (live).
    pub same: u64,
}

/// Counters the program already exports, summed over runs.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub engine_ns: u64,
    pub engine_events: u64,
    pub mst_probes: u64,
    pub probe_ms: Vec<f64>,
    pub checkpoints: u64,
    pub forced: u64,
    pub invalid: u64,
    pub protocol_bytes: u64,
    pub sim_bytes_put: u64,
    pub sim_gets: u64,
    pub determinants: u64,
    pub staged: u64,
    pub flushes: u64,
    pub replayed: u64,
    pub live_ns: u64,
    pub max_inbox: u64,
    pub max_out_pending: u64,
    pub recoveries: u64,
    pub idle_wakeups: u64,
}

impl Counters {
    pub fn add_engine(&mut self, r: &RunReport, wall_ns: u64) {
        self.engine_ns += wall_ns;
        self.engine_events += r.events;
        self.checkpoints += r.checkpoints_total;
        self.forced += r.checkpoints_forced;
        self.invalid += r.checkpoints_invalid;
        self.protocol_bytes += r.protocol_bytes;
        self.sim_bytes_put += r.store.bytes_put;
        self.sim_gets += r.store.gets;
        self.replayed += r.replayed_records;
    }

    pub fn add_live(&mut self, r: &LiveReport, wall: Duration) {
        self.live_ns += wall.as_nanos() as u64;
        self.checkpoints += r.checkpoints;
        self.determinants += r.determinants;
        self.staged += r.staged_appends;
        self.flushes += r.log_flushes;
        self.replayed += r.replayed;
        self.max_inbox = self.max_inbox.max(r.max_inbox_depth as u64);
        self.max_out_pending = self.max_out_pending.max(r.max_out_pending as u64);
        self.recoveries += r.recoveries;
        self.idle_wakeups += r.uploader_idle_wakeups;
    }

    pub fn add(&mut self, o: &Counters) {
        self.engine_ns += o.engine_ns;
        self.engine_events += o.engine_events;
        self.mst_probes += o.mst_probes;
        self.probe_ms.extend_from_slice(&o.probe_ms);
        self.checkpoints += o.checkpoints;
        self.forced += o.forced;
        self.invalid += o.invalid;
        self.protocol_bytes += o.protocol_bytes;
        self.sim_bytes_put += o.sim_bytes_put;
        self.sim_gets += o.sim_gets;
        self.determinants += o.determinants;
        self.staged += o.staged;
        self.flushes += o.flushes;
        self.replayed += o.replayed;
        self.live_ns += o.live_ns;
        self.max_inbox = self.max_inbox.max(o.max_inbox);
        self.max_out_pending = self.max_out_pending.max(o.max_out_pending);
        self.recoveries += o.recoveries;
        self.idle_wakeups += o.idle_wakeups;
    }
}

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub runs: Vec<Run>,
    pub wall: Duration,
    /// Sink latency samples per protocol (live plane).
    pub latency: [Vec<u64>; 3],
    pub counters: Counters,
    pub tally: probe::Tally,
}

/// FNV-1a, for output fingerprints.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

enum Bench {
    Sim(sim::Sim),
    Live(Box<live::Live>),
}

impl Bench {
    fn build(workload: &str, seed: u64) -> Bench {
        let pinned = pinned(workload, seed);
        match workload {
            "sim-uniform" => Bench::Sim(sim::Sim::uniform(seed, pinned)),
            "sim-skew-recovery" => Bench::Sim(sim::Sim::skew_recovery(seed, pinned)),
            "live-flood" => Bench::Live(Box::new(live::Live::flood(seed))),
            "live-rate-kill" => Bench::Live(Box::new(live::Live::rate_kill(seed))),
            _ => unreachable!("workload names are checked when parsed"),
        }
    }

    fn warm_up(&mut self) {
        match self {
            Bench::Sim(s) => s.warm_up(),
            Bench::Live(l) => l.warm_up(),
        }
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = match self {
            Bench::Sim(s) => s.pass(traced),
            Bench::Live(l) => l.pass(traced),
        };
        probe::flush();
        pass.tally.merge_from(probe::take());
        pass
    }

    fn is_sim(&self) -> bool {
        matches!(self, Bench::Sim(_))
    }
}

/// Pinned whole-pass fingerprints of the virtual-time workloads, one
/// `workload seed fingerprint` line each (`--print-reference` writes
/// them).
fn pinned(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../reference.txt").lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())?
    })
}

/// Repeat passes until about `budget` has elapsed (the last pass may
/// overrun by half its length).
fn measure(bench: &mut Bench, traced: bool, budget: Duration) -> Vec<Pass> {
    let t = Instant::now();
    let mut passes = Vec::new();
    loop {
        let p0 = Instant::now();
        passes.push(bench.pass(traced));
        let last = p0.elapsed();
        if t.elapsed() + last / 2 >= budget {
            return passes;
        }
    }
}

/// Nearest-rank percentile.
fn pct(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

fn median(xs: Vec<f64>) -> f64 {
    pct(xs, 0.5)
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note: String::new(),
    }
}

/// Every distinct engine run of a virtual-time pass, with its wall time
/// taken as the median over passes. Each pass repeats the same runs in
/// the same order (the output checks hold it to that), so the median
/// drops a run's slow repetitions when the host stalls for part of the
/// measurement.
struct SimRun {
    protocol: usize,
    work: u64,
    wall_ns: f64,
}

fn sim_runs(passes: &[Pass]) -> Vec<SimRun> {
    (0..passes[0].runs.len())
        .map(|j| {
            let r = &passes[0].runs[j];
            let walls = passes.iter().filter_map(|p| p.runs.get(j));
            SimRun {
                protocol: r.protocol,
                work: r.work,
                wall_ns: median(walls.map(|r| r.wall_ns as f64).collect()),
            }
        })
        .collect()
}

/// Engine events per second of engine-run wall time.
fn sim_rate<'a>(runs: impl Iterator<Item = &'a SimRun>) -> f64 {
    let (w, ns) = runs.fold((0u64, 0.0), |(w, ns), r| (w + r.work, ns + r.wall_ns));
    w as f64 * 1e9 / ns
}

/// The end-to-end metrics of untraced passes. On the virtual-time plane
/// every metric comes from the per-run medians of [`sim_runs`]: work
/// rates are events per second of engine-run wall time, and latency is
/// the wall time of each engine run (tail = p90). On the live plane work
/// rates are medians over passes (and over each protocol's runs), and
/// latency is the median over runs of each run's sink-latency percentile
/// (tail = p99, with at least ten samples beyond it in every run).
fn end_to_end(sim: bool, passes: &[Pass], setup: &[f64]) -> Vec<Metric> {
    let runs: Vec<&Run> = passes.iter().flat_map(|p| &p.runs).collect();
    let attempted = runs.len() as f64;
    let verified = runs.iter().filter(|r| r.ok).count() as f64;
    let distinct = if sim { sim_runs(passes) } else { Vec::new() };
    let total = if sim {
        sim_rate(distinct.iter())
    } else {
        let pass_rates = passes.iter().map(|p| work_rate(std::slice::from_ref(p)));
        median(pass_rates.collect())
    };
    let mut out = vec![metric("work_per_s", "1/s", total)];
    for (i, key) in PROTOCOL_KEYS.iter().enumerate() {
        let rate = if sim {
            sim_rate(distinct.iter().filter(|r| r.protocol == i))
        } else {
            median(
                runs.iter()
                    .filter(|r| r.protocol == i)
                    .map(|r| r.work as f64 * 1e9 / r.wall_ns as f64)
                    .collect(),
            )
        };
        out.push(metric(format!("{key}_work_per_s"), "1/s", rate));
    }
    let mut lat = |name: String, q: f64, runs_of: &dyn Fn(usize) -> bool| {
        let (value, note) = if sim {
            let xs: Vec<f64> = distinct
                .iter()
                .filter(|r| runs_of(r.protocol))
                .map(|r| r.wall_ns / 1e6)
                .collect();
            let n = xs.len();
            (
                pct(xs, q),
                format!(
                    "p{:.0} of {n} engine runs, each the median wall time over {} passes",
                    q * 100.0,
                    passes.len()
                ),
            )
        } else {
            let per_run: Vec<(f64, usize)> = passes
                .iter()
                .flat_map(|p| p.latency.iter().enumerate())
                .filter(|(i, l)| runs_of(*i) && !l.is_empty())
                .map(|(_, l)| {
                    let ms: Vec<f64> = l.iter().map(|&ns| ns as f64 / 1e6).collect();
                    (pct(ms, q), l.len())
                })
                .collect();
            let fewest = per_run.iter().map(|r| r.1).min().unwrap_or(0);
            let n = per_run.len();
            let v = median(per_run.into_iter().map(|r| r.0).collect());
            (
                v,
                format!(
                    "median over {n} runs of p{:.0} sink latency (>= {fewest} samples each)",
                    q * 100.0
                ),
            )
        };
        let mut m = metric(name, "ms", value);
        m.note = note;
        out.push(m);
    };
    let tail_q = if sim { 0.90 } else { 0.99 };
    lat("p50_ms".into(), 0.5, &|_| true);
    lat("tail_ms".into(), tail_q, &|_| true);
    for (i, key) in PROTOCOL_KEYS.iter().enumerate() {
        lat(format!("{key}_tail_ms"), tail_q, &|p| p == i);
    }
    out.push(metric("verified_pct", "%", 100.0 * verified / attempted));
    let mut m = metric("setup_s", "s", median(setup.to_vec()));
    m.note = format!("median of {} set-ups: build + warm-up", setup.len());
    out.push(m);
    out.push(metric("peak_rss_mb", "MiB", probe::peak_rss_mb()));
    out
}

/// Per-layer metrics of traced passes, per pass.
fn per_layer(
    sim: bool,
    passes: &[Pass],
    allocs: u64,
    cpu_s: f64,
    overhead_pct: f64,
) -> Vec<Metric> {
    let n = passes.len() as f64;
    let mut c = Counters::default();
    let mut t = probe::Tally::default();
    for p in passes {
        c.add(&p.counters);
        t.merge_from(p.tally.clone());
    }
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let per = |v: u64| v as f64 / n;
    let layer_ns = t.op_ns + t.snapshot_ns + t.restore_ns + t.read_ns;
    let (engine_residual, runtime_residual) = if sim {
        (c.engine_ns.saturating_sub(layer_ns), 0)
    } else {
        (0, (live::P as u64 * c.live_ns).saturating_sub(layer_ns))
    };
    let lag: Vec<f64> = t.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    vec![
        metric("engine.run_ms", "ms", ms(c.engine_ns)),
        metric("engine.events", "count", per(c.engine_events)),
        metric(
            "engine.ns_per_event",
            "ns",
            c.engine_ns as f64 / c.engine_events as f64,
        ),
        metric("engine.residual_ms", "ms", ms(engine_residual)),
        metric("metrics.mst_probes", "count", per(c.mst_probes)),
        metric("metrics.probe_ms_p50", "ms", pct(c.probe_ms.clone(), 0.5)),
        metric("dataflow.op_busy_ms", "ms", ms(t.op_ns)),
        metric("dataflow.records_in", "count", per(t.records_in)),
        metric("dataflow.snapshot_calls", "count", per(t.snapshot_calls)),
        metric("dataflow.snapshot_ms", "ms", ms(t.snapshot_ns)),
        metric("dataflow.snapshot_bytes", "B", per(t.snapshot_bytes)),
        metric("dataflow.restore_calls", "count", per(t.restore_calls)),
        metric("dataflow.restore_ms", "ms", ms(t.restore_ns)),
        metric("nexmark.reads", "count", per(t.reads)),
        metric("nexmark.read_ms", "ms", ms(t.read_ns)),
        metric(
            "nexmark.reread_pct",
            "%",
            100.0 * t.reads.saturating_sub(t.inputs) as f64 / t.inputs as f64,
        ),
        metric("nexmark.source_lag_ms_p99", "ms", pct(lag, 0.99)),
        metric("storage.puts", "count", per(t.puts)),
        metric("storage.put_bytes", "B", per(t.put_bytes)),
        metric("storage.put_ms", "ms", ms(t.put_ns)),
        metric("storage.gets", "count", per(t.gets)),
        metric("storage.get_ms", "ms", ms(t.get_ns)),
        metric("storage.sim_bytes_put", "B", per(c.sim_bytes_put)),
        metric("storage.sim_gets", "count", per(c.sim_gets)),
        metric("core.checkpoints", "count", per(c.checkpoints)),
        metric("core.forced_checkpoints", "count", per(c.forced)),
        metric("core.invalid_checkpoints", "count", per(c.invalid)),
        metric("core.protocol_bytes", "B", per(c.protocol_bytes)),
        metric("wal.determinants", "count", per(c.determinants)),
        metric("wal.staged_appends", "count", per(c.staged)),
        metric("wal.log_flushes", "count", per(c.flushes)),
        metric(
            "wal.appends_per_flush",
            "count",
            c.staged as f64 / c.flushes as f64,
        ),
        metric("wal.replayed", "count", per(c.replayed)),
        metric("runtime.max_inbox_depth", "count", c.max_inbox as f64),
        metric("runtime.max_out_pending", "count", c.max_out_pending as f64),
        metric("runtime.residual_ms", "ms", ms(runtime_residual)),
        metric("runtime.recoveries", "count", per(c.recoveries)),
        metric(
            "runtime.uploader_idle_wakeups",
            "count",
            per(c.idle_wakeups),
        ),
        metric("bench.allocs", "count", allocs as f64 / n),
        metric("bench.cpu_s", "s", cpu_s / n),
        metric("bench.trace_overhead_pct", "%", overhead_pct),
    ]
}

fn work_rate(passes: &[Pass]) -> f64 {
    let work: u64 = passes.iter().flat_map(|p| &p.runs).map(|r| r.work).sum();
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    work as f64 / wall
}

/// The checkout's commit, read from `.git` without running git; the
/// benchmark may run from a plain source tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map_or_else(|| "unknown".into(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim-uniform|sim-skew-recovery|live-flood|live-rate-kill> \
--seed <n> --seconds <1-60> --trace <0|1>\n       perfbench --print-reference <workload> <first-seed> <count>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => a.workload = v.clone(),
            "--workload" => return Err(format!("unknown workload {v}")),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, 60),
            "--trace" => a.trace = num()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn print_reference(args: &[String]) -> Result<(), String> {
    let [w, first, count] = args else {
        return Err(USAGE.into());
    };
    let first: u64 = first.parse().map_err(|e| format!("{e}"))?;
    let count: u64 = count.parse().map_err(|e| format!("{e}"))?;
    for seed in first..first + count {
        let fp = match Bench::build(w, seed) {
            Bench::Sim(mut s) => s.reference(),
            Bench::Live(_) => return Err("live workloads check against the engine".into()),
        };
        println!("{w} {seed} {fp:016x}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-reference") {
        return match print_reference(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    let mut setup = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut b = Bench::build(&args.workload, args.seed);
        b.warm_up();
        setup.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let sim = bench.is_sim();
    let budget = Duration::from_secs(args.seconds);
    let (metrics, runs, failed) = if args.trace {
        let plain = measure(&mut bench, false, budget / 2);
        let a0 = probe::count_allocs(true);
        let cpu0 = probe::cpu_s();
        let traced = measure(&mut bench, true, budget / 2);
        let cpu = probe::cpu_s() - cpu0;
        let allocs = probe::count_allocs(false) - a0;
        // Self-test: the wrappers must leave every output unchanged.
        let same = plain[0].runs.iter().zip(&traced[0].runs);
        let diverged = same.filter(|(a, b)| a.same != b.same).count() as u64
            + plain[0].runs.len().abs_diff(traced[0].runs.len()) as u64;
        if diverged > 0 {
            eprintln!("wrapper self-test: {diverged} runs changed under tracing");
        }
        let overhead = 100.0 * (1.0 - work_rate(&traced) / work_rate(&plain));
        let all: Vec<&Run> = plain.iter().chain(&traced).flat_map(|p| &p.runs).collect();
        let failed = all.iter().filter(|r| !r.ok).count() as u64 + diverged;
        println!(
            "# traced passes={} (untraced {}), self-test compared {} runs: {} diverged",
            traced.len(),
            plain.len(),
            plain[0].runs.len(),
            diverged
        );
        (
            per_layer(sim, &traced, allocs, cpu, overhead),
            all.len() as u64,
            failed,
        )
    } else {
        let passes = measure(&mut bench, false, budget);
        let runs = passes.iter().map(|p| p.runs.len()).sum::<usize>() as u64;
        let failed = passes
            .iter()
            .flat_map(|p| &p.runs)
            .filter(|r| !r.ok)
            .count() as u64;
        println!("# passes={} runs={runs}", passes.len());
        (end_to_end(sim, &passes, &setup), runs, failed)
    };
    for m in &metrics {
        println!("# {:32} {:>18.6} {:6} {}", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {runs}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
