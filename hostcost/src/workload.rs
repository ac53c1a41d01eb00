//! The three workloads, the passes that run them, and the correctness
//! oracle every pass is checked against.
//!
//! A *pass* hands one workload's experiments, in the seed's order, to the
//! simulator once. A suite pass (`--trace 0`) goes through
//! `runner::run_suite` exactly as `run_suite --json` does; a plan pass
//! (`--trace 1`) executes each experiment's `plan()` jobs itself, with
//! the same worker count, so it can put a span around every job.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use simkit::{thread_events, thread_fuse_stats, thread_pool_stats, PoolStats};
use vibe::runner::{take_fabric_health, take_shard_runs, FabricHealth};
use vibe::suite::{all_experiments, find, render_json, Category, Experiment};
use vibe::{merge_artifacts, run_suite, Artifact, Job, JobReport};

use crate::host::{self, process_cpu_s};
use crate::spans;
use crate::stats::{fnv1a64, Seq};

/// One benchmark workload: which experiments, on how many workers.
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Experiment ids, in registry order.
    pub ids: Vec<&'static str>,
    /// Runner workers (1 = the serial path CI pins).
    pub workers: usize,
}

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper-figures", "fabric-faults", "suite-parallel"];

impl Workload {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        let (name, ids, workers): (&'static str, Vec<&'static str>, usize) = match name {
            "paper-figures" => (
                "paper-figures",
                vec!["T1", "F1-F2", "F3", "F4", "F5", "CQ", "F6", "F7"],
                1,
            ),
            "fabric-faults" => (
                "fabric-faults",
                vec![
                    "X-TOPO",
                    "X-FAILOVER",
                    "X-CRASH",
                    "X-CHAOS",
                    "X-REL",
                    "X-FAULT",
                ],
                1,
            ),
            // `--all` on the simulator's default worker count, which with
            // VIBE_JOBS unset is the machine's available parallelism.
            "suite-parallel" => (
                "suite-parallel",
                all_experiments().iter().map(|e| e.id).collect(),
                vibe::default_workers(),
            ),
            _ => return None,
        };
        Some(Workload { name, ids, workers })
    }

    /// The experiment ids in the order the seed deals them out. The order
    /// changes nothing in the artifacts; it only varies what runs next to
    /// what.
    pub fn order(&self, seed: u64) -> Vec<&'static str> {
        let mut ids = self.ids.clone();
        Seq::new(seed, "experiment-order").shuffle(&mut ids);
        ids
    }
}

fn experiments(order: &[&'static str]) -> Vec<Experiment> {
    order
        .iter()
        .map(|id| find(id).unwrap_or_else(|| panic!("experiment {id} left the registry")))
        .collect()
}

/// The deterministic counters one experiment leaves in the engine's
/// thread-locals. Identical on every run of the same code.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Census {
    /// Logical simulated events.
    pub events: u64,
    /// Event-arena ledger.
    pub pool: PoolStats,
    /// Sends that evaluated the fused-path guard.
    pub fuse_attempts: u64,
    /// Sends that took the fused path.
    pub fuse_hits: u64,
}

impl Census {
    /// The census the runner reports for one job.
    fn of_job(j: &JobReport) -> Census {
        Census {
            events: j.events,
            pool: j.pool,
            fuse_attempts: j.fuse.attempts,
            fuse_hits: j.fuse.hits,
        }
    }

    /// Accumulate another census.
    pub fn add(&mut self, o: &Census) {
        self.events += o.events;
        self.pool.merge(&o.pool);
        self.fuse_attempts += o.fuse_attempts;
        self.fuse_hits += o.fuse_hits;
    }

    fn fields(&self) -> [(&'static str, u64); 10] {
        let p = &self.pool;
        [
            ("events", self.events),
            ("inline_small", p.inline_small),
            ("inline_large", p.inline_large),
            ("boxed", p.boxed),
            ("wakes", p.wakes),
            ("slot_reused", p.slot_reused),
            ("slot_grown", p.slot_grown),
            ("batches", p.batches),
            ("fuse_attempts", self.fuse_attempts),
            ("fuse_hits", self.fuse_hits),
        ]
    }

    fn from_fields(kv: &HashMap<&str, u64>) -> Option<Census> {
        let g = |k: &str| kv.get(k).copied();
        Some(Census {
            events: g("events")?,
            pool: PoolStats {
                inline_small: g("inline_small")?,
                inline_large: g("inline_large")?,
                boxed: g("boxed")?,
                wakes: g("wakes")?,
                slot_reused: g("slot_reused")?,
                slot_grown: g("slot_grown")?,
                batches: g("batches")?,
            },
            fuse_attempts: g("fuse_attempts")?,
            fuse_hits: g("fuse_hits")?,
        })
    }
}

fn fabric_fields(h: &FabricHealth) -> [(&'static str, u64); 4] {
    [
        ("storm_trips", h.storm_trips),
        ("fault_dropped", h.fault_dropped),
        ("node_crashes", h.node_crashes),
        ("sessions_recovered", h.sessions_recovered),
    ]
}

/// Expected outputs: committed goldens where they exist, otherwise the
/// JSON digest captured at the commit that defined the benchmark, plus
/// every experiment's census and fabric roll-up. The census is the same
/// whether the runner executes `produce` or the `plan()` jobs.
pub struct Oracle {
    digests: HashMap<String, (usize, u64)>,
    census: HashMap<String, Census>,
    fabric: HashMap<String, FabricHealth>,
}

/// Reference values, embedded at build time.
const REFERENCE: &str = include_str!("../reference.txt");

fn golden_path(id: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../tests/goldens")
        .join(format!("{}.json", id.to_lowercase()))
}

impl Oracle {
    /// Parse the embedded reference file.
    pub fn load() -> Oracle {
        let mut o = Oracle {
            digests: HashMap::new(),
            census: HashMap::new(),
            fabric: HashMap::new(),
        };
        for line in REFERENCE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let mut words = line.split_whitespace();
            let (Some(id), Some(kind)) = (words.next(), words.next()) else {
                panic!("malformed reference line: {line}");
            };
            let kv: HashMap<&str, u64> = words
                .map(|w| {
                    let (k, v) = w.split_once('=').expect("key=value");
                    let v = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    };
                    (k, v.unwrap_or_else(|_| panic!("bad number in: {line}")))
                })
                .collect();
            let id = id.to_string();
            let bad = || panic!("incomplete reference line: {line}");
            match kind {
                "json" => {
                    let (Some(&len), Some(&fnv)) = (kv.get("len"), kv.get("fnv")) else {
                        bad()
                    };
                    o.digests.insert(id, (len as usize, fnv));
                }
                "census" => {
                    let c = Census::from_fields(&kv).unwrap_or_else(|| bad());
                    o.census.insert(id, c);
                }
                "fabric" => {
                    let g = |k: &str| kv.get(k).copied().unwrap_or_else(|| bad());
                    o.fabric.insert(
                        id,
                        FabricHealth {
                            storm_trips: g("storm_trips"),
                            fault_dropped: g("fault_dropped"),
                            node_crashes: g("node_crashes"),
                            sessions_recovered: g("sessions_recovered"),
                        },
                    );
                }
                _ => panic!("unknown reference kind in: {line}"),
            }
        }
        o
    }

    /// Check one experiment's rendered JSON and census. `Err` names what
    /// differs.
    pub fn check(&self, id: &str, json: &str, census: &Census) -> Result<(), String> {
        match std::fs::read_to_string(golden_path(id)) {
            Ok(golden) if golden != json => {
                return Err(format!("{id}: JSON differs from its golden"))
            }
            Ok(_) => {}
            Err(_) => match self.digests.get(id) {
                Some(&(len, fnv)) if len == json.len() && fnv == fnv1a64(json.as_bytes()) => {}
                Some(_) => return Err(format!("{id}: JSON differs from its reference digest")),
                None => return Err(format!("{id}: no golden and no reference digest")),
            },
        }
        match self.census.get(id) {
            Some(want) if want == census => Ok(()),
            Some(want) => Err(format!("{id}: census {census:?} != reference {want:?}")),
            None => Err(format!("{id}: no census reference")),
        }
    }

    /// The fabric roll-up a pass over `ids` must produce.
    pub fn fabric(&self, ids: &[&str]) -> Option<FabricHealth> {
        let mut sum = FabricHealth::default();
        for id in ids {
            let h = self.fabric.get(*id)?;
            sum.storm_trips += h.storm_trips;
            sum.fault_dropped += h.fault_dropped;
            sum.node_crashes += h.node_crashes;
            sum.sessions_recovered += h.sessions_recovered;
        }
        Some(sum)
    }
}

/// Outcome of one pass: host cost plus what the oracle found.
#[derive(Default)]
pub struct Pass {
    /// Host wall time of the pass, JSON rendering included.
    pub wall_s: f64,
    /// Process user+sys CPU over the pass.
    pub cpu_s: f64,
    /// Untraced passes only: logical simulated events executed.
    pub events: u64,
    /// Experiments run.
    pub attempted: u64,
    /// Experiments that panicked, or whose output or census mismatched.
    pub failures: Vec<String>,
    /// Census summed over the pass.
    pub census: Census,
    /// Fabric roll-up of the pass.
    pub fabric: FabricHealth,
    /// Traced passes only: per-job host samples.
    pub jobs: Vec<JobSample>,
    /// Traced passes only: wall of the job pool alone.
    pub pool_wall_s: f64,
}

/// One job's host cost in a traced pass.
pub struct JobSample {
    /// Experiment id.
    pub experiment: &'static str,
    /// Host wall time of the job.
    pub wall_s: f64,
}

impl Pass {
    /// Check each experiment and the pass's fabric roll-up; fill in the
    /// attempted/failure tallies.
    fn judge(&mut self, oracle: &Oracle, order: &[&'static str], outputs: Outputs) {
        self.attempted = order.len() as u64;
        for (id, out) in order.iter().zip(outputs) {
            let verdict = out.and_then(|(json, census)| {
                self.census.add(&census);
                oracle.check(id, &json, &census)
            });
            if let Err(why) = verdict {
                self.failures.push(why);
            }
        }
        if self.failures.is_empty() && oracle.fabric(order) != Some(self.fabric) {
            // The roll-up is one sum over the pass, so a mismatch cannot be
            // pinned on one experiment: fail them all.
            let why = format!("fabric roll-up {:?} != reference", self.fabric);
            self.failures = order.iter().map(|id| format!("{id}: {why}")).collect();
        }
    }
}

/// Workers the next pin experiment pins, one CPU each.
static PIN_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// A leading pseudo-experiment for pool runs: one job per worker that
/// pins its worker thread to its own CPU and waits until every worker has
/// taken one, so no worker can take two. Baton threads a worker spawns
/// afterwards inherit its CPU.
fn pin_experiment() -> Experiment {
    fn pin_plan() -> Vec<Job> {
        let n = PIN_WORKERS.load(Ordering::SeqCst);
        let all_pinned = Arc::new(Barrier::new(n));
        let next_cpu = Arc::new(AtomicUsize::new(0));
        (0..n)
            .map(|_| {
                let (all_pinned, next_cpu) = (Arc::clone(&all_pinned), Arc::clone(&next_cpu));
                Job::new("PIN/worker", 0, move || {
                    host::pin_thread(next_cpu.fetch_add(1, Ordering::SeqCst));
                    all_pinned.wait();
                    Vec::new()
                })
            })
            .collect()
    }
    Experiment {
        id: "PIN",
        title: "pin each worker to its own CPU",
        category: Category::NonDataTransfer,
        produce: Vec::new,
        plan: pin_plan,
    }
}

/// One pass through `runner::run_suite`, as `run_suite --json` makes it,
/// with each worker and the baton threads it spawns on a CPU of its own
/// (see README, "CPU placement").
pub fn suite_pass(w: &Workload, order: &[&'static str], oracle: &Oracle) -> Pass {
    let mut exps = experiments(order);
    if w.workers > 1 {
        PIN_WORKERS.store(w.workers, Ordering::SeqCst);
        exps.insert(0, pin_experiment());
    } else {
        host::pin_thread(0);
    }
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut run = run_suite(exps, w.workers);
        if w.workers > 1 {
            run.experiments.remove(0);
        }
        let jsons: Vec<String> = run.experiments.iter().map(|e| e.run_json()).collect();
        (run, jsons)
    }));
    let mut pass = Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        ..Pass::default()
    };
    host::unpin_thread();
    let outputs = match out {
        Ok((run, jsons)) => {
            pass.events = run.total_events();
            pass.fabric = run.fabric_health;
            run.experiments
                .iter()
                .zip(jsons)
                .map(|(e, json)| {
                    let mut c = Census::default();
                    for j in run.jobs.iter().filter(|j| j.experiment == e.id) {
                        c.add(&Census::of_job(j));
                    }
                    Ok((json, c))
                })
                .collect()
        }
        Err(_) => order
            .iter()
            .map(|id| Err(format!("{id}: the pass panicked")))
            .collect(),
    };
    pass.judge(oracle, order, outputs);
    pass
}

struct JobOut {
    artifacts: Vec<Artifact>,
    census: Census,
    wall_s: f64,
    start_ns: u64,
    end_ns: u64,
}

fn execute(job: Job, parent: u64) -> Result<JobOut, String> {
    let label = job.label().to_string();
    let ev0 = thread_events();
    let pool0 = thread_pool_stats();
    let fuse0 = thread_fuse_stats();
    let start_ns = spans::now_ns();
    let t0 = Instant::now();
    let artifacts = spans::scope("vibe::runner", label.clone(), parent, |_| {
        catch_unwind(AssertUnwindSafe(|| job.run()))
    })
    .map_err(|_| format!("job {label} panicked"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let fuse = thread_fuse_stats().delta_since(&fuse0);
    Ok(JobOut {
        artifacts,
        census: Census {
            events: thread_events() - ev0,
            pool: thread_pool_stats().delta_since(&pool0),
            fuse_attempts: fuse.attempts,
            fuse_hits: fuse.hits,
        },
        wall_s,
        start_ns,
        end_ns: spans::now_ns(),
    })
}

/// One pass that runs every experiment's `plan()` jobs on the workload's
/// worker count inside spans (workload → experiment → job), which record
/// only while spans are on.
pub fn plan_pass(w: &Workload, order: &[&'static str], oracle: &Oracle, label: &str) -> Pass {
    let (mut pass, outputs) = run_plans(w, order, label);
    pass.judge(oracle, order, outputs);
    pass
}

/// Each experiment's rendered JSON and census, or why it has none.
type Outputs = Vec<Result<(String, Census), String>>;

fn run_plans(w: &Workload, order: &[&'static str], label: &str) -> (Pass, Outputs) {
    drop(take_shard_runs());
    let _ = take_fabric_health();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let (mut pass, outputs) = spans::scope("bench", label, 0, |pass_id| {
        let exps = experiments(order);
        let exp_ids: Vec<u64> = exps.iter().map(|_| spans::reserve()).collect();
        let mut owner: Vec<usize> = Vec::new();
        let mut slots: Vec<Mutex<Option<Job>>> = Vec::new();
        for (ei, e) in exps.iter().enumerate() {
            for job in (e.plan)() {
                owner.push(ei);
                slots.push(Mutex::new(Some(job)));
            }
        }
        let results: Vec<Mutex<Option<Result<JobOut, String>>>> =
            slots.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let pool_t0 = Instant::now();
        std::thread::scope(|scope| {
            for k in 0..w.workers.min(slots.len()).max(1) {
                let (slots, results, cursor, owner, exp_ids) =
                    (&slots, &results, &cursor, &owner, &exp_ids);
                scope.spawn(move || {
                    host::pin_thread(k);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let job = slot
                            .lock()
                            .expect("slot lock")
                            .take()
                            .expect("job claimed twice");
                        let out = execute(job, exp_ids[owner[i]]);
                        *results[i].lock().expect("result lock") = Some(out);
                    }
                });
            }
        });
        let pool_wall_s = pool_t0.elapsed().as_secs_f64();

        // Reassemble in canonical job order, as the runner does.
        let mut parts: Vec<Vec<Vec<Artifact>>> = exps.iter().map(|_| Vec::new()).collect();
        let mut census = vec![Census::default(); exps.len()];
        let mut bounds = vec![(u64::MAX, 0u64); exps.len()];
        let mut broken: Vec<Option<String>> = vec![None; exps.len()];
        let mut jobs = Vec::new();
        for (r, &ei) in results.into_iter().zip(&owner) {
            match r
                .into_inner()
                .expect("result lock")
                .expect("pool left a job unexecuted")
            {
                Ok(out) => {
                    census[ei].add(&out.census);
                    bounds[ei] = (bounds[ei].0.min(out.start_ns), bounds[ei].1.max(out.end_ns));
                    jobs.push(JobSample {
                        experiment: exps[ei].id,
                        wall_s: out.wall_s,
                    });
                    parts[ei].push(out.artifacts);
                }
                Err(why) => broken[ei] = Some(format!("{}: {why}", exps[ei].id)),
            }
        }
        let mut outputs = Vec::new();
        for (ei, e) in exps.iter().enumerate() {
            let (start, end) = bounds[ei];
            if start <= end {
                spans::record(
                    exp_ids[ei],
                    pass_id,
                    "vibe::runner",
                    e.id.to_string(),
                    start,
                    end,
                );
            }
            outputs.push(match broken[ei].take() {
                Some(why) => Err(why),
                None => {
                    let artifacts = merge_artifacts(std::mem::take(&mut parts[ei]));
                    Ok((render_json(e.id, e.title, &artifacts), census[ei]))
                }
            });
        }
        let pass = Pass {
            jobs,
            pool_wall_s,
            ..Pass::default()
        };
        (pass, outputs)
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.fabric = take_fabric_health();
    drop(take_shard_runs());
    (pass, outputs)
}

/// Print the reference file for the current code: JSON digests of every
/// experiment without a committed golden, and every experiment's census
/// and fabric roll-up. Used once, when the benchmark was defined, and
/// again only when an output changes on purpose.
pub fn capture_reference() {
    println!("# Reference outputs for the host-cost benchmark; regenerate with");
    println!(
        "# `cargo run --release --offline --manifest-path hostcost/Cargo.toml -- --capture-reference`"
    );
    for e in all_experiments() {
        let id = e.id;
        let run = run_suite(vec![e], 1);
        let json = run.experiments[0].run_json();
        if !golden_path(id).exists() {
            println!(
                "{id} json len={} fnv=0x{:016x}",
                json.len(),
                fnv1a64(json.as_bytes())
            );
        }
        let serial = Census::of_job(&run.jobs[0]);
        let w = Workload {
            name: "capture",
            ids: vec![id],
            workers: 1,
        };
        let (_, mut outputs) = run_plans(&w, &[id], "capture");
        let (plan_json, plan) = outputs.remove(0).unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(
            plan_json, json,
            "{id}: plan() jobs do not reproduce produce()"
        );
        assert_eq!(plan, serial, "{id}: plan() jobs leave another census");
        let kv: Vec<String> = serial
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("{id} census {}", kv.join(" "));
        let kv: Vec<String> = fabric_fields(&run.fabric_health)
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("{id} fabric {}", kv.join(" "));
    }
}
