//! `shard_journal`: a resilient campaign run by `supervise_shards` in
//! two self-exec'd worker processes, each journaling its points; the
//! supervisor merges the shard journals into one result.
//!
//! Layers exercised: shard supervision (spawn, poll, merge), the journal
//! (frame encode, append, load) and the resilient runner's retry logic
//! under a 5% injected transient-failure rate. Sample generation is
//! trivial; no simulator replay, sketch or stopping rule runs here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scibench::experiment::campaign::CampaignConfig;
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::journal::{
    point_key, result_digest, Journal, JournalMeta, JournalSpec, PointRecord,
};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::experiment::resilience::{
    run_campaign_resilient, run_campaign_resilient_journaled_subset, MeasureFailure, RetryPolicy,
};
use scibench::parallel::shard::{
    parse_point_list, quarantine_path, shard_journal_path, supervise_shards, ShardDurability,
    ShardPolicy, ShardedCampaign, WorkerSpec, SHARD_JOURNAL_FLAG, SHARD_POINTS_FLAG,
};
use scibench_sim::rng::SimRng;
use scibench_trace::Tracer;

use crate::harness::PassCounts;
use crate::layers::{layer, span, MAIN_LANE, PASS_SPAN};
use crate::{Checks, Workload};

/// First argument that puts the benchmark binary into worker mode.
pub const WORKER_ARG: &str = "--shard-worker";
const CODE_VERSION: &str = concat!("perfbench-", env!("CARGO_PKG_VERSION"));
const FINGERPRINT: &str = "shard-journal/transient-5pct";
/// Probability that one measurement call fails transiently.
const FAILURE_RATE: f64 = 0.05;
const SHARDS: usize = 2;

/// Design points (half per system).
const POINTS: usize = 96;
/// Samples per point: the paper's regime. Shorten a pass with fewer
/// points, never with fewer samples.
const SAMPLES: usize = 1000;

/// The workload: [`POINTS`] design points of [`SAMPLES`] samples each.
#[derive(Debug, Clone)]
pub struct ShardJournal {
    /// Directory the shard journals live in (inside the checkout).
    pub work_dir: PathBuf,
}

/// Inputs made in set-up: the design, and a fresh journal directory whose
/// shard and quarantine journals already hold their headers.
#[derive(Debug, Clone)]
pub struct ShardInput {
    seed: u64,
    design: Design,
    dir: PathBuf,
}

/// What one worker process reports about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Calls of the measure closure.
    pub calls: u64,
    /// Wall time of its `run_campaign_resilient_journaled_subset` call.
    pub worker_ns: u64,
    /// Time inside the measure closure (0 unless timed).
    pub measure_ns: u64,
    /// Its peak resident set in kB.
    pub vm_hwm_kb: u64,
}

/// One pass's result.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    sharded: ShardedCampaign,
    workers: Vec<WorkerStats>,
}

fn design() -> Design {
    let sizes: Vec<f64> = (1..=POINTS / 2).map(|k| (64 * k) as f64).collect();
    Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("bytes", &sizes),
    ])
}

fn plan() -> MeasurementPlan {
    MeasurementPlan::new("transfer").stopping(StoppingRule::FixedCount(SAMPLES))
}

/// A transfer time with a 5% chance of a transient failure.
fn measure(point: &RunPoint, rng: &mut SimRng) -> Result<f64, MeasureFailure> {
    if rng.uniform() < FAILURE_RATE {
        return Err(MeasureFailure::Failed("transient link error".to_owned()));
    }
    let bytes: f64 = point.level(1).parse().unwrap_or(64.0);
    let latency = if point.level(0) == "a" { 1.0 } else { 1.5 };
    Ok((latency + bytes * 1e-3) * (1.0 + 0.1 * rng.uniform()))
}

fn meta(design: &Design, seed: u64) -> JournalMeta {
    JournalMeta::new(design, seed, CODE_VERSION, FINGERPRINT)
}

fn stats_path(journal: &Path) -> PathBuf {
    journal.with_extension("stats")
}

impl ShardJournal {
    fn supervise(&self, input: &ShardInput, time_measure: bool) -> Result<ShardOutput, String> {
        let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let worker = WorkerSpec {
            program,
            args: vec![
                WORKER_ARG.to_owned(),
                input.seed.to_string(),
                u8::from(time_measure).to_string(),
            ],
        };
        let sharded = supervise_shards(
            &input.design,
            &CampaignConfig {
                seed: input.seed,
                threads: 1,
            },
            &ShardPolicy {
                shards: SHARDS,
                ..ShardPolicy::default()
            },
            &ShardDurability {
                dir: &input.dir,
                code_version: CODE_VERSION,
                config_fingerprint: FINGERPRINT,
            },
            &worker,
        )
        .map_err(|e| e.to_string())?;
        let workers = (0..SHARDS)
            .map(|s| read_stats(&stats_path(&shard_journal_path(&input.dir, s))))
            .collect::<Result<_, _>>()?;
        Ok(ShardOutput { sharded, workers })
    }
}

impl Workload for ShardJournal {
    type Input = ShardInput;
    type Output = ShardOutput;

    fn name(&self) -> &'static str {
        "shard_journal"
    }

    fn setup(&self, seed: u64) -> Result<ShardInput, String> {
        let design = design();
        let dir = self.work_dir.join(format!("seed-{seed}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let meta = meta(&design, seed);
        for path in (0..SHARDS)
            .map(|s| shard_journal_path(&dir, s))
            .chain([quarantine_path(&dir)])
        {
            Journal::open_resume(&path, &meta).map_err(|e| e.to_string())?;
        }
        Ok(ShardInput { seed, design, dir })
    }

    fn pass(&self, input: &ShardInput) -> Result<ShardOutput, String> {
        self.supervise(input, false)
    }

    fn counts(&self, out: &ShardOutput) -> PassCounts {
        let runs = &out.sharded.result.runs;
        PassCounts {
            samples: recorded_samples(out),
            operations: runs.len() as u64,
            failed: runs.iter().filter(|r| !r.fate.completed()).count() as u64,
        }
    }

    fn digest(&self, out: &ShardOutput) -> u64 {
        result_digest(&out.sharded.result)
    }

    fn check(&self, input: &ShardInput, out: &ShardOutput) -> Checks {
        let mut checks = Checks::default();
        let report = &out.sharded.report;
        if report.workers_respawned != 0 || !report.points_poisoned.is_empty() {
            checks.fail(format!(
                "shard: {} respawns, poisoned {:?}",
                report.workers_respawned, report.points_poisoned
            ));
        }
        let config = CampaignConfig {
            seed: input.seed,
            threads: crate::harness::lanes(),
        };
        match run_campaign_resilient(
            &input.design,
            &plan(),
            &config,
            &RetryPolicy::default(),
            measure,
        ) {
            Ok(reference) => {
                if result_digest(&reference) != result_digest(&out.sharded.result) {
                    checks.fail("shard: merged digest differs from the in-process run".to_owned());
                }
            }
            Err(e) => checks.fail(format!("shard: in-process reference failed: {e}")),
        }
        checks
    }

    fn teardown(&self, input: &ShardInput) {
        let _ = std::fs::remove_dir_all(&input.dir);
    }

    fn peak_rss_kb(&self, out: &ShardOutput) -> u64 {
        out.workers
            .iter()
            .map(|w| w.vm_hwm_kb)
            .chain([crate::harness::vm_hwm_kb()])
            .max()
            .unwrap_or(0)
    }

    fn traced(
        &self,
        input: &ShardInput,
        out: &ShardOutput,
        tracer: &Tracer,
    ) -> Result<f64, String> {
        let meta = meta(&input.design, input.seed);
        let mut main = tracer.lane(MAIN_LANE);
        let pass = main.begin();
        // The supervise call reproduces the untraced pass; the load and
        // re-encode after it are probes of the journal layer, so only the
        // former counts as the traced pass's wall time.
        let (mine, wall) = crate::harness::timed(|| {
            span(&mut main, layer::SHARD, "supervise", || {
                self.supervise(input, true)
            })
        });
        let mine = mine?;
        let mut snapshots = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let path = shard_journal_path(&input.dir, s);
            let snapshot = span(&mut main, layer::JOURNAL, "load", || Journal::load(&path))
                .map_err(|e| e.to_string())?;
            main.counter(layer::JOURNAL, "loaded_bytes", file_len(&path) as f64);
            snapshots.push(snapshot);
        }
        let merged_path = input.dir.join("merged.journal");
        let (mut journal, _) = span(&mut main, layer::JOURNAL, "append", || {
            Journal::open_resume(&merged_path, &meta)
        })
        .map_err(|e| e.to_string())?;
        let points = input.design.full_factorial();
        let mut loaded = Vec::with_capacity(points.len());
        for (idx, (point, run)) in points.iter().zip(&mine.sharded.result.runs).enumerate() {
            let key = point_key(&meta, point);
            let record = PointRecord::from_run(idx, key, run);
            let json = span(&mut main, layer::JOURNAL, "encode", || record.to_json());
            span(&mut main, layer::JOURNAL, "append", || {
                journal.append_begin(idx, key)?;
                journal.append_point(&record)
            })
            .map_err(|e| e.to_string())?;
            loaded.push((key, json));
        }
        span(&mut main, layer::JOURNAL, "sync", || journal.sync()).map_err(|e| e.to_string())?;
        main.end(pass, PASS_SPAN.0, PASS_SPAN.1, &[]);

        // Bit-identity: the traced supervision merged the same result as
        // the untraced pass, and every record the shards journaled decodes
        // to exactly the merged record.
        if result_digest(&mine.sharded.result) != result_digest(&out.sharded.result) {
            return Err("shard: traced supervision merged a different result".to_owned());
        }
        for (idx, (key, json)) in loaded.iter().enumerate() {
            let found = snapshots.iter().find_map(|snap| snap.record_for(*key));
            if found.map(PointRecord::to_json).as_ref() != Some(json) {
                return Err(format!("shard: journaled record of point {idx} differs"));
            }
        }

        let health = &mine.sharded.result.health;
        let report = &mine.sharded.report;
        let slowest = mine.workers.iter().map(|w| w.worker_ns).max().unwrap_or(0);
        let sum = |f: fn(&WorkerStats) -> u64| mine.workers.iter().map(f).sum::<u64>() as f64;
        main.counter(layer::JOURNAL, "bytes", file_len(&merged_path) as f64);
        main.counter(layer::JOURNAL, "samples", recorded_samples(&mine) as f64);
        main.counter(layer::GEN, "measure_ns", sum(|w| w.measure_ns));
        main.counter("resilience", "calls", sum(|w| w.calls));
        main.counter("resilience", "recorded", recorded_samples(&mine) as f64);
        main.counter("resilience", "attempts", health.attempts_total as f64);
        main.counter(
            "resilience",
            "retries",
            health.attempts_total.saturating_sub(health.points_total) as f64,
        );
        main.counter(
            layer::SHARD,
            "workers_spawned",
            report.workers_spawned as f64,
        );
        main.counter(layer::SHARD, "respawns", report.workers_respawned as f64);
        main.counter(layer::SHARD, "worker_ns", slowest as f64);
        Ok(wall)
    }
}

fn recorded_samples(out: &ShardOutput) -> u64 {
    out.sharded
        .result
        .runs
        .iter()
        .filter_map(|r| r.outcome.as_ref())
        .map(|o| o.samples.iter().filter(|x| x.is_finite()).count() as u64)
        .sum()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn read_stats(path: &Path) -> Result<WorkerStats, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Vec<u64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    match v[..] {
        [calls, worker_ns, measure_ns, vm_hwm_kb] => Ok(WorkerStats {
            calls,
            worker_ns,
            measure_ns,
            vm_hwm_kb,
        }),
        _ => Err(format!("{}: expected 4 numbers", path.display())),
    }
}

/// Worker mode: `<WORKER_ARG> <seed> <time-measure 0|1>
/// --shard-journal <path> --shard-points <csv>`. Runs the assigned points
/// into the journal, then writes its own counts and peak memory beside it.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let num = |i: usize| -> Result<u64, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("worker: argument {i} must be a number"))
    };
    let (seed, time_measure) = (num(1)?, num(2)? == 1);
    let flag = |name: &str| -> Result<&String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("worker: {name} is required"))
    };
    let journal = PathBuf::from(flag(SHARD_JOURNAL_FLAG)?);
    let indices = parse_point_list(flag(SHARD_POINTS_FLAG)?)?;
    let design = design();
    let calls = AtomicU64::new(0);
    let measure_ns = AtomicU64::new(0);
    let start = Instant::now();
    run_campaign_resilient_journaled_subset(
        &design,
        &plan(),
        &CampaignConfig { seed, threads: 1 },
        &RetryPolicy::default(),
        &JournalSpec {
            path: &journal,
            code_version: CODE_VERSION,
            config_fingerprint: FINGERPRINT,
        },
        &indices,
        |point, rng| {
            calls.fetch_add(1, Ordering::Relaxed);
            if !time_measure {
                return measure(point, rng);
            }
            let t = Instant::now();
            let out = measure(point, rng);
            measure_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        },
    )
    .map_err(|e| e.to_string())?;
    let worker_ns = start.elapsed().as_nanos() as u64;
    let stats = format!(
        "{} {worker_ns} {} {}\n",
        calls.into_inner(),
        measure_ns.into_inner(),
        crate::harness::vm_hwm_kb()
    );
    crate::harness::write_file(&stats_path(&journal), &stats)
}
