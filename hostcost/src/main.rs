//! Host-cost benchmark of the VIBe simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostcost/Cargo.toml -- \
//!     --workload <paper-figures|fabric-faults|suite-parallel|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! layer probes and traced passes and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `hostcost/README.md`.

mod host;
mod probes;
mod spans;
mod stats;
mod workload;

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, Stdio};
use std::time::Instant;

use vibe::suite::{Category, Experiment};
use vibe::Job;

use stats::{block_median, median, quantile};
use workload::{Oracle, Pass, Workload};

/// Fresh processes timed for `setup_s` before each pass; the median over
/// the run is reported.
const SETUP_SPAWNS_PER_PASS: usize = 15;

/// Shortest stretch of host time one sample of the pass metrics covers.
/// A shared host's speed can switch between two states every few
/// seconds; the median of single short passes then jumps from one state
/// to the other between runs, while the mean over a block of passes this
/// long moves only with the share of time spent in each.
const BLOCK_S: f64 = 5.0;

/// Leading argument of the processes `setup_s` times.
const SETUP_CHILD: &str = "--setup-child";

/// The simulator's runtime knobs. The benchmark measures the shipped
/// defaults, so it clears them before anything reads them.
const KNOBS: [&str; 4] = ["VIBE_JOBS", "VIBE_SHARDS", "VIBE_FUSE", "VIBE_TRACE"];

const USAGE: &str =
    "usage: vibe-hostcost --workload <paper-figures|fabric-faults|suite-parallel|all> \
--seed <n> --seconds <s> --trace <0|1>\n       vibe-hostcost --capture-reference";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let num = |flag: &str| {
        get(flag)?
            .parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    for k in KNOBS {
        std::env::remove_var(k);
    }
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--capture-reference") {
        return workload::capture_reference();
    }
    // `--setup-child <workers> <run arguments>`: the worker count comes
    // from the parent, because the child inherits the parent's one-CPU
    // placement and would resolve `default_workers()` to 1.
    let setup_workers = if argv.first().is_some_and(|a| a == SETUP_CHILD) {
        let workers = argv.get(1).and_then(|n| n.parse::<usize>().ok());
        argv.drain(..2.min(argv.len()));
        Some(workers.unwrap_or_else(|| {
            eprintln!("{SETUP_CHILD} needs a worker count\n{USAGE}");
            std::process::exit(2);
        }))
    } else {
        None
    };
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.workload == "all" {
        return run_every_workload(&argv);
    }
    let w = Workload::named(&args.workload).unwrap_or_else(|| {
        eprintln!("unknown workload '{}'\n{USAGE}", args.workload);
        std::process::exit(2);
    });
    if let Some(workers) = setup_workers {
        return setup_child(&w, args.seed, workers);
    }
    println!("host: {}", host::fingerprint_json());
    let order = w.order(args.seed);
    println!(
        "workload: {} seed={} workers={} order={}",
        w.name,
        args.seed,
        w.workers,
        order.join(",")
    );
    let oracle = Oracle::load();
    let report = if args.trace {
        traced_run(&w, &order, &oracle, &args)
    } else {
        untraced_run(&w, &order, &oracle, &args, &argv)
    };
    report.print();
}

/// What one invocation prints: metrics plus the oracle's tallies.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn judge(&mut self, pass: &mut Pass) {
        self.attempted += pass.attempted;
        self.failures.append(&mut pass.failures);
    }

    fn print(&self) {
        for f in &self.failures {
            println!("FAILED {f}");
        }
        println!(
            "failed_ratio = {} ({} of {} experiment runs)",
            self.failures.len() as f64 / self.attempted.max(1) as f64,
            self.failures.len(),
            self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

/// Run passes until the next one would overrun `seconds`, at least one.
fn passes_within(seconds: f64, mut pass: impl FnMut() -> f64) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass());
        let next = median(&mut walls.clone());
        if t0.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }
}

/// End-to-end metrics, with tracing off.
fn untraced_run(
    w: &Workload,
    order: &[&'static str],
    oracle: &Oracle,
    args: &Args,
    argv: &[String],
) -> Report {
    let mut report = Report::new();
    let (mut walls, mut cpus, mut setups, mut events) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut peak_rss = None;
    passes_within(args.seconds, || {
        // Set-up is timed between passes, so its median spans the same
        // stretch of host time as theirs. On one CPU, like a serial pass:
        // the child's write then wakes this process without a cross-CPU
        // wake-up.
        host::pin_thread(0);
        setups.extend((0..SETUP_SPAWNS_PER_PASS).map(|_| setup_once(w.workers, argv)));
        host::unpin_thread();
        let mut pass = workload::suite_pass(w, order, oracle);
        // One pass is what a user's run does; the simulator keeps part of
        // what each pass allocates, so the peak is taken after the first.
        peak_rss.get_or_insert_with(host::peak_rss_mib);
        println!(
            "pass {}: wall {:.3} s, cpu {:.3} s, {} events",
            walls.len(),
            pass.wall_s,
            pass.cpu_s,
            pass.events
        );
        report.judge(&mut pass);
        walls.push(pass.wall_s);
        cpus.push(pass.cpu_s);
        events = pass.events;
        pass.wall_s
    });
    // Passes per block: as many as fill `BLOCK_S`, judged by the first.
    let k = (BLOCK_S / walls[0]).round().max(1.0) as usize;
    println!("blocks of {k} pass(es)");
    let wall = block_median(&walls, k);
    report.add("wall_s", wall, "s");
    report.add("cpu_s", block_median(&cpus, k), "s");
    report.add("events_per_s", events as f64 / wall, "1/s");
    report.add("setup_s", median(&mut setups), "s");
    report.add("peak_rss_mib", peak_rss.expect("one pass ran"), "MiB");
    report
}

/// Per-layer metrics: probes, then pairs of `plan()`-job passes, one
/// with spans off and one with spans on.
fn traced_run(w: &Workload, order: &[&'static str], oracle: &Oracle, args: &Args) -> Report {
    let t0 = Instant::now();
    let mut report = Report::new();
    let probe_metrics = probes::run_all(&probes::Inputs::from_seed(args.seed));
    let budget = args.seconds - t0.elapsed().as_secs_f64();
    let (mut overheads, mut traced): (Vec<f64>, Vec<Pass>) = (Vec::new(), Vec::new());
    passes_within(budget, || {
        let label = format!("{} pass {}", w.name, traced.len());
        let pass = |spans_on: bool| {
            spans::set_enabled(spans_on);
            let p = workload::plan_pass(w, order, oracle, &label);
            spans::set_enabled(false);
            p
        };
        // Alternate which pass goes first, so warm-up and drift fall on
        // both sides alike.
        let (mut p, mut t) = if traced.len() % 2 == 0 {
            let p = pass(false);
            (p, pass(true))
        } else {
            let t = pass(true);
            (pass(false), t)
        };
        report.judge(&mut p);
        report.judge(&mut t);
        println!(
            "pair {}: untraced {:.3} s, traced {:.3} s",
            traced.len(),
            p.wall_s,
            t.wall_s
        );
        // Job by job: the same job ran in both passes, so the ratio of its
        // two walls is what the spans cost it, with far less of the host's
        // drift than the ratio of two pass walls.
        overheads.extend(
            p.jobs
                .iter()
                .zip(&t.jobs)
                .map(|(u, v)| (v.wall_s / u.wall_s - 1.0) * 100.0),
        );
        let pair = p.wall_s + t.wall_s;
        traced.push(t);
        pair
    });
    // Per-job numbers come from the traced pass with the median wall.
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let t = &traced[(traced.len() - 1) / 2];

    let mut job_ms: Vec<f64> = t.jobs.iter().map(|j| j.wall_s * 1e3).collect();
    let serial_equiv: f64 = t.jobs.iter().map(|j| j.wall_s).sum();
    report.add("core.jobs", t.jobs.len() as f64, "count");
    report.add("core.job_wall_p50_ms", quantile(&mut job_ms, 0.5), "ms");
    report.add("core.job_wall_p90_ms", quantile(&mut job_ms, 0.9), "ms");
    report.add("core.serial_equiv_s", serial_equiv, "s");
    report.add("core.speedup", serial_equiv / t.pool_wall_s, "x");
    report.add(
        "core.worker_idle_s",
        w.workers as f64 * t.pool_wall_s - serial_equiv,
        "s",
    );
    // Host time per experiment of this workload, to locate a gain. Not a
    // metric: the metric set is the same on every workload, and these
    // would read 0 for every experiment outside it.
    for id in &w.ids {
        let host_s: f64 = t
            .jobs
            .iter()
            .filter(|j| j.experiment == *id)
            .map(|j| j.wall_s)
            .sum();
        println!("exp.{id}.host_s = {host_s} s");
    }
    for (name, value, unit) in probe_metrics {
        report.add(name, value, unit);
    }
    let (c, f) = (&t.census, &t.fabric);
    report.add("simkit.events", c.events as f64, "count");
    report.add("simkit.events_pooled", c.pool.pooled() as f64, "count");
    report.add("simkit.same_time_batches", c.pool.batches as f64, "count");
    report.add(
        "simkit.slot_reuse_pct",
        c.pool.slot_reuse_rate() * 100.0,
        "%",
    );
    // Simulated outputs, checked by the oracle; not metrics, because they
    // read 0 on `paper-figures` and no speed change may move them.
    println!(
        "census fabric: fault_dropped={} storm_trips={} node_crashes={} sessions_recovered={}",
        f.fault_dropped, f.storm_trips, f.node_crashes, f.sessions_recovered
    );
    report.add("via.fuse_attempts", c.fuse_attempts as f64, "count");
    report.add("via.fuse_hits", c.fuse_hits as f64, "count");
    let hit_pct = if c.fuse_attempts == 0 {
        0.0
    } else {
        c.fuse_hits as f64 * 100.0 / c.fuse_attempts as f64
    };
    report.add("via.fuse_hit_pct", hit_pct, "%");
    report.add("bench.trace_overhead_pct", median(&mut overheads), "%");
    write_spans(w, args.seed);
    report
}

/// Write the span file and print self time per layer.
fn write_spans(w: &Workload, seed: u64) {
    let all = spans::drain();
    let selfs = spans::self_times(&all);
    let mut by_layer: Vec<(&str, usize, u64)> = Vec::new();
    for s in &all {
        let own = selfs[&s.id];
        match by_layer.iter_mut().find(|(l, _, _)| *l == s.layer) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
            }
            None => by_layer.push((s.layer, 1, own)),
        }
    }
    for (layer, n, own) in by_layer {
        println!(
            "self time {layer}: {:.3} ms over {n} spans",
            own as f64 / 1e6
        );
    }
    let run_id = format!("{}-seed{seed}-pid{}", w.name, std::process::id());
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("hostcost-traces")))
        .expect("locate the build directory");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let path = dir.join(format!("{}-seed{seed}.trace.json", w.name));
    std::fs::write(&path, spans::chrome_json(&all, &selfs, &run_id)).expect("write the span file");
    println!("spans: {} written to {}", all.len(), path.display());
}

/// Time one fresh process, given this run's arguments and worker count,
/// from spawn to its first job starting.
fn setup_once(workers: usize, argv: &[String]) -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg(SETUP_CHILD)
        .arg(workers.to_string())
        .args(argv)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a set-up probe");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("read the set-up probe");
    let secs = t0.elapsed().as_secs_f64();
    let status = child.wait().expect("wait for the set-up probe");
    // The runner's serial fallback runs `produce`; its pool runs `plan()`
    // jobs. The marker says which one started, so a child that took the
    // wrong path cannot pass for the workload's set-up.
    let path = if workers > 1 { "pool" } else { "serial" };
    assert!(
        status.success() && line.trim() == format!("started {path}"),
        "set-up probe failed: {status}, said {line:?}, expected the {path} path"
    );
    secs
}

fn first_job_started(path: &str) -> ! {
    println!("started {path}");
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

/// Child side of `setup_s`: do everything a run on `workers` workers does
/// up to its first job — registry lookup, plan construction, worker
/// spawn — then report and exit. A marker experiment placed first is
/// that first job on both the serial path and the worker pool.
fn setup_child(w: &Workload, seed: u64, workers: usize) {
    let mut exps = vec![Experiment {
        id: "SETUP-MARK",
        title: "first job",
        category: Category::NonDataTransfer,
        produce: || first_job_started("serial"),
        plan: || vec![Job::new("SETUP-MARK", 0, || first_job_started("pool"))],
    }];
    exps.extend(w.order(seed).iter().filter_map(|id| vibe::suite::find(id)));
    vibe::run_suite(exps, workers);
    unreachable!("the marker job exits the process");
}

/// `--workload all`: run each workload in its own process, one after
/// another, and relay its output with the workload's name in front.
/// Exits non-zero unless every workload ran and was correct.
fn run_every_workload(argv: &[String]) {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let i = argv
        .iter()
        .position(|a| a == "--workload")
        .expect("parse() saw --workload");
    let mut ok = true;
    for name in workload::NAMES {
        let mut args = argv.to_vec();
        args[i + 1] = name.to_string();
        let out = Command::new(&exe)
            .args(&args)
            .stderr(Stdio::inherit())
            .output()
            .expect("run a workload");
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            println!("[{name}] {line}");
        }
        let correct = text
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true"));
        ok &= out.status.success() && correct;
    }
    if !ok {
        std::process::exit(1);
    }
}
