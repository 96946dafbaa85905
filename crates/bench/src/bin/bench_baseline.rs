//! Old-versus-new wall-clock baselines for the performance-engineering
//! work, emitted as a committed `BENCH_stats.json`.
//!
//! Each benchmark pairs the *pre-optimization* algorithm (reimplemented
//! here, verbatim in structure) with the current implementation, times
//! both with `std::time::Instant` on identical inputs and seeds, and
//! records the speedup. The two headline pairs carry acceptance targets:
//!
//! * `campaign_adaptive_4threads` — the legacy campaign engine
//!   (static-chunk scheduling behind a mutex, full-vector `O(n²/batch)`
//!   CI replanning) versus the work-stealing pool with `O(1)` Welford
//!   replanning; target ≥ 3×.
//! * `bootstrap_median_ci_10k` — the legacy resample-and-sort median
//!   bootstrap (`O(reps · n log n)`) versus the order-statistic rank
//!   device (`O(reps)` after one sort); target ≥ 5×.
//!
//! Modes:
//!
//! * no arguments — full measurement, writes `BENCH_stats.json` into the
//!   current directory and fails if a target speedup is missed;
//! * `--quick` — tiny workloads, no file written, no thresholds (CI
//!   smoke: proves the harness runs);
//! * `--verify <path>` — parses an existing baseline file and checks the
//!   schema marker, that every expected benchmark id is present, and that
//!   the speedups and memory ratios recomputed from its raw numbers agree
//!   with the recorded ones and meet the targets in the tables below.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scibench::experiment::campaign::{run_campaign, CampaignConfig};
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::experiment::stream::run_campaign_stream;
use scibench_bench::figures::fig5_reduce;
use scibench_bench::DEFAULT_SEED;
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::network::NetworkModel;
use scibench_sim::noise::NoiseProfile;
use scibench_sim::rng::SimRng;
use scibench_stats::bootstrap::{bootstrap_ci, bootstrap_median_ci, mix_seed};
use scibench_stats::ci;
use scibench_stats::dist::normal::std_normal_inv_cdf;
use scibench_stats::quantile::{quantile, FiveNumberSummary, QuantileMethod};
use scibench_stats::sketch::{MergeableSummary, StreamConfig, StreamingSummary};
use scibench_stats::sorted::SortedSamples;
use scibench_trace::{parse_json, JsonValue};

const SCHEMA: &str = "scibench-bench-baseline/v1";
const SCHEMA_SIM: &str = "scibench-bench-baseline-sim/v1";
const SCHEMA_STREAM: &str = "scibench-bench-baseline-stream/v1";

/// Benchmark ids every baseline file must contain, with their targets
/// `(id, minimum speedup, minimum memory ratio)` (`None` = informational,
/// no threshold).
type Expected = (&'static str, Option<f64>, Option<f64>);

const EXPECTED: &[Expected] = &[
    ("campaign_adaptive_4threads", Some(3.0), None),
    ("bootstrap_median_ci_10k", Some(5.0), None),
    ("bootstrap_mean_ci_10k", None, None),
    ("sorted_quantile_queries_100k", None, None),
];

/// Benchmark ids of the simulator baseline (`BENCH_sim.json`).
const EXPECTED_SIM: &[Expected] = &[
    ("fig5_reduce_pipeline", Some(3.0), None),
    ("sim_reduce_replay_128", Some(5.0), None),
    ("sim_barrier_replay_64", None, None),
];

/// Benchmark ids of the streaming baseline (`BENCH_stream.json`). The
/// gate on these pairs is the *memory* ratio (vector-mode resident bytes
/// over sketch-mode resident bytes), not wall clock — streaming trades a
/// constant per-sample cost for O(sketch) memory.
const EXPECTED_STREAM: &[Expected] = &[
    ("stream_campaign_1m_samples", None, Some(50.0)),
    ("tdigest_quantiles_1m", None, Some(50.0)),
];

/// The target table of a baseline schema.
fn expected_for(schema: &str) -> Option<&'static [Expected]> {
    match schema {
        SCHEMA => Some(EXPECTED),
        SCHEMA_SIM => Some(EXPECTED_SIM),
        SCHEMA_STREAM => Some(EXPECTED_STREAM),
        _ => None,
    }
}

/// `(speedup target, memory-ratio target)` of one benchmark id.
fn targets(schema: &str, id: &str) -> (Option<f64>, Option<f64>) {
    expected_for(schema)
        .and_then(|table| table.iter().find(|e| e.0 == id))
        .map_or((None, None), |&(_, speedup, mem)| (speedup, mem))
}

#[derive(Default)]
struct BenchResult {
    id: &'static str,
    old_ns: u128,
    new_ns: u128,
    /// Resident bytes of the pre-change (vector) side, for memory pairs.
    old_bytes: Option<usize>,
    /// Resident bytes of the streaming side, for memory pairs.
    new_bytes: Option<usize>,
}

impl BenchResult {
    fn speedup(&self) -> f64 {
        self.old_ns as f64 / self.new_ns.max(1) as f64
    }

    fn mem_ratio(&self) -> Option<f64> {
        match (self.old_bytes, self.new_bytes) {
            (Some(old), Some(new)) => Some(old as f64 / new.max(1) as f64),
            _ => None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--verify") => {
            let path = match args.get(1) {
                Some(p) => p.clone(),
                None => {
                    eprintln!("bench_baseline: --verify requires a path");
                    return ExitCode::FAILURE;
                }
            };
            match verify(&path) {
                Ok(report) => {
                    println!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bench_baseline: verification of {path} failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            let quick = args.iter().any(|a| a == "--quick");
            let sim = args.iter().any(|a| a == "--sim");
            let stream = args.iter().any(|a| a == "--stream");
            if let Some(other) = args
                .iter()
                .find(|a| *a != "--quick" && *a != "--sim" && *a != "--stream")
            {
                eprintln!("bench_baseline: unknown argument {other}");
                return ExitCode::FAILURE;
            }
            if sim {
                run_sim_benches(quick)
            } else if stream {
                run_stream_benches(quick)
            } else {
                run_benches(quick)
            }
        }
    }
}

fn run_benches(quick: bool) -> ExitCode {
    // A statistical failure in any harness arm is a typed error and a
    // non-zero exit, never a panic (ROADMAP: crash-free bins).
    let outcomes: Result<Vec<BenchResult>, String> = [
        bench_campaign(quick),
        bench_bootstrap_median(quick),
        bench_bootstrap_mean(quick),
        bench_sorted_quantiles(quick),
    ]
    .into_iter()
    .collect();
    report_and_write(outcomes, quick, SCHEMA, "BENCH_stats.json")
}

/// Simulator hot-path pairs: the interpreted collective engine as it
/// existed before this PR (per-call allocations, base costs recomputed per
/// message, the erfc-refined normal quantile behind every noise draw)
/// versus the compiled-schedule replay engine. Writes `BENCH_sim.json`.
fn run_sim_benches(quick: bool) -> ExitCode {
    let outcomes: Result<Vec<BenchResult>, String> = [
        bench_fig5_pipeline(quick),
        bench_reduce_replay(quick),
        bench_barrier_replay(quick),
    ]
    .into_iter()
    .collect();
    report_and_write(outcomes, quick, SCHEMA_SIM, "BENCH_sim.json")
}

/// Streaming pairs: the vector-backed campaign/quantile path versus the
/// mergeable-sketch path on million-sample workloads. The headline
/// number is the memory ratio (each pair carries a ≥ 50× gate); wall
/// clock is informational. Each pair also asserts sketch accuracy
/// against the exact answer before any timing. Writes
/// `BENCH_stream.json`.
fn run_stream_benches(quick: bool) -> ExitCode {
    let outcomes: Result<Vec<BenchResult>, String> =
        [bench_stream_campaign(quick), bench_tdigest_quantiles(quick)]
            .into_iter()
            .collect();
    report_and_write(outcomes, quick, SCHEMA_STREAM, "BENCH_stream.json")
}

fn report_and_write(
    outcomes: Result<Vec<BenchResult>, String>,
    quick: bool,
    schema: &str,
    path: &str,
) -> ExitCode {
    let results = match outcomes {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_baseline: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<32} {:>12} {:>12} {:>9}",
        "benchmark", "old", "new", "speedup"
    );
    for r in &results {
        let (target, target_mem_ratio) = targets(schema, r.id);
        println!(
            "{:<32} {:>12} {:>12} {:>8.2}x{}{}",
            r.id,
            pretty_ns(r.old_ns),
            pretty_ns(r.new_ns),
            r.speedup(),
            match target {
                Some(t) => format!("  (target {t:.0}x)"),
                None => String::new(),
            },
            match (r.mem_ratio(), target_mem_ratio) {
                (Some(m), Some(t)) => format!("  mem {m:.0}x (target {t:.0}x)"),
                (Some(m), None) => format!("  mem {m:.0}x"),
                _ => String::new(),
            }
        );
    }

    if quick {
        println!("\nquick mode: no thresholds enforced, no baseline written");
        return ExitCode::SUCCESS;
    }

    // The file is written only if it passes the gate that `--verify`
    // applies to it later.
    let json = render_json(&results, schema);
    if let Err(e) = verify_text(&json) {
        eprintln!("bench_baseline: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("bench_baseline: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {path}");
    ExitCode::SUCCESS
}

fn pretty_ns(ns: u128) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Best of two runs (one in quick mode): coarse but stable enough for
/// order-of-magnitude regression tracking.
fn time_best<F: FnMut()>(quick: bool, mut f: F) -> u128 {
    let runs = if quick { 1 } else { 2 };
    let mut best = u128::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

// ---------------------------------------------------------------------
// Pair 1: campaign execution.
// ---------------------------------------------------------------------

/// The legacy adaptive-mean loop: replans by re-scanning the entire
/// sample vector after every batch (`O(n²/batch)` total).
fn legacy_adaptive_mean(
    confidence: f64,
    rel_error: f64,
    batch: usize,
    max_samples: usize,
    mut operation: impl FnMut() -> f64,
) -> Vec<f64> {
    let mut samples = Vec::new();
    for _ in 0..batch.max(5).min(max_samples) {
        samples.push(operation());
    }
    while samples.len() < max_samples {
        let required = ci::required_samples_normal(&samples, confidence, rel_error).unwrap();
        if required <= samples.len() {
            break;
        }
        let next = required.min(max_samples).min(samples.len() + batch.max(1));
        while samples.len() < next {
            samples.push(operation());
        }
    }
    samples
}

/// The legacy campaign engine: shuffled order split into static chunks,
/// one thread per chunk, results pushed through a mutex.
fn legacy_run_campaign<F>(
    design: &Design,
    config: &CampaignConfig,
    stopping: (f64, f64, usize, usize),
    measure: F,
) -> Vec<(RunPoint, Vec<f64>)>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    let threads = config.threads.clamp(1, points.len());
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut order_rng = SimRng::new(config.seed).fork("campaign-order");
    order_rng.shuffle(&mut order);

    let root = SimRng::new(config.seed);
    let (confidence, rel_error, batch, max_samples) = stopping;
    let run_one = |design_idx: usize| -> (RunPoint, Vec<f64>) {
        let point = &points[design_idx];
        let mut rng = root.fork_indexed("campaign-point", design_idx as u64);
        let samples = legacy_adaptive_mean(confidence, rel_error, batch, max_samples, || {
            measure(point, &mut rng)
        });
        (point.clone(), samples)
    };

    type IndexedRun = (usize, (RunPoint, Vec<f64>));
    let results: Mutex<Vec<IndexedRun>> = Mutex::new(Vec::with_capacity(points.len()));
    std::thread::scope(|scope| {
        for chunk in order.chunks(order.len().div_ceil(threads)) {
            let results = &results;
            let run_one = &run_one;
            scope.spawn(move || {
                for &idx in chunk {
                    let run = run_one(idx);
                    results.lock().expect("poisoned").push((idx, run));
                }
            });
        }
    });
    let mut slots: Vec<Option<(RunPoint, Vec<f64>)>> = (0..points.len()).map(|_| None).collect();
    for (idx, run) in results.into_inner().expect("poisoned") {
        slots[idx] = Some(run);
    }
    slots.into_iter().map(|s| s.unwrap()).collect()
}

fn bench_campaign(quick: bool) -> Result<BenchResult, String> {
    // Heavy-tailed noise (CoV ≈ 0.9) forces ~100k samples per point at
    // 0.5% relative error, which is where the legacy full-vector
    // replanning goes quadratic.
    let design = Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0]),
    ]);
    let measure = |point: &RunPoint, rng: &mut SimRng| {
        let base = if point.level(0) == "a" { 0.1 } else { 0.2 };
        let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
        base + (-u.ln())
    };
    let (rel_error, batch, max_samples) = if quick {
        (0.05, 20, 5_000)
    } else {
        (0.005, 100, 150_000)
    };
    let config = CampaignConfig {
        seed: 21,
        threads: 4,
    };
    let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMeanCi {
        confidence: 0.95,
        rel_error,
        batch,
        max_samples,
    });

    let old_ns = time_best(quick, || {
        let runs = legacy_run_campaign(
            &design,
            &config,
            (0.95, rel_error, batch, max_samples),
            measure,
        );
        assert_eq!(runs.len(), 4);
    });
    let mut harness_err: Option<String> = None;
    let new_ns = time_best(quick, || {
        match run_campaign(&design, &plan, &config, measure) {
            Ok(result) => assert_eq!(result.runs.len(), 4),
            Err(e) => harness_err = Some(e.to_string()),
        }
    });
    if let Some(e) = harness_err {
        return Err(format!("campaign_adaptive_4threads: {e}"));
    }
    Ok(BenchResult {
        id: "campaign_adaptive_4threads",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

// ---------------------------------------------------------------------
// Pair 2 and 3: bootstrap confidence intervals.
// ---------------------------------------------------------------------

fn skewed_sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
            1.0 + 0.25 * (-u.ln())
        })
        .collect()
}

/// The legacy median bootstrap: every replicate materializes and sorts a
/// full resample.
fn legacy_median_bootstrap(xs: &[f64], confidence: f64, reps: usize, seed: u64) -> (f64, f64) {
    let n = xs.len();
    let mut stats = Vec::with_capacity(reps);
    let mut resample = vec![0.0f64; n];
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, rep as u64));
        for slot in resample.iter_mut() {
            *slot = xs[rng.gen_range(0..n)];
        }
        resample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = n / 2;
        stats.push(if n.is_multiple_of(2) {
            0.5 * (resample[mid - 1] + resample[mid])
        } else {
            resample[mid]
        });
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = 1.0 - confidence;
    let lo = ((alpha / 2.0) * reps as f64) as usize;
    let hi = (((1.0 - alpha / 2.0) * reps as f64) as usize).min(reps - 1);
    (stats[lo], stats[hi])
}

fn bench_bootstrap_median(quick: bool) -> Result<BenchResult, String> {
    let (n, reps) = if quick { (200, 500) } else { (1_000, 10_000) };
    let xs = skewed_sample(n, 11);
    let sorted =
        SortedSamples::new(&xs).map_err(|e| format!("bootstrap_median_ci_10k: sort: {e}"))?;
    let old_ns = time_best(quick, || {
        std::hint::black_box(legacy_median_bootstrap(&xs, 0.95, reps, 42));
    });
    let mut harness_err: Option<String> = None;
    let new_ns = time_best(quick, || {
        match bootstrap_median_ci(&sorted, 0.95, reps, 42) {
            Ok(ci) => {
                std::hint::black_box(ci);
            }
            Err(e) => harness_err = Some(e.to_string()),
        }
    });
    if let Some(e) = harness_err {
        return Err(format!("bootstrap_median_ci_10k: {e}"));
    }
    Ok(BenchResult {
        id: "bootstrap_median_ci_10k",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

/// The legacy mean bootstrap: one sequential RNG stream, a fresh resample
/// vector allocated per replicate.
fn legacy_mean_bootstrap(xs: &[f64], confidence: f64, reps: usize, seed: u64) -> (f64, f64) {
    let n = xs.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(reps);
    for _ in 0..reps {
        let resample: Vec<f64> = (0..n).map(|_| xs[rng.gen_range(0..n)]).collect();
        stats.push(resample.iter().sum::<f64>() / n as f64);
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = 1.0 - confidence;
    let lo = ((alpha / 2.0) * reps as f64) as usize;
    let hi = (((1.0 - alpha / 2.0) * reps as f64) as usize).min(reps - 1);
    (stats[lo], stats[hi])
}

fn bench_bootstrap_mean(quick: bool) -> Result<BenchResult, String> {
    let (n, reps) = if quick { (200, 500) } else { (1_000, 10_000) };
    let xs = skewed_sample(n, 12);
    let old_ns = time_best(quick, || {
        std::hint::black_box(legacy_mean_bootstrap(&xs, 0.95, reps, 42));
    });
    let mut harness_err: Option<String> = None;
    let new_ns = time_best(quick, || {
        match bootstrap_ci(&xs, 0.95, reps, 42, |r| {
            r.iter().sum::<f64>() / r.len() as f64
        }) {
            Ok(ci) => {
                std::hint::black_box(ci);
            }
            Err(e) => harness_err = Some(e.to_string()),
        }
    });
    if let Some(e) = harness_err {
        return Err(format!("bootstrap_mean_ci_10k: {e}"));
    }
    Ok(BenchResult {
        id: "bootstrap_mean_ci_10k",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

// ---------------------------------------------------------------------
// Pair 4: order-statistic queries through the sorted cache.
// ---------------------------------------------------------------------

fn bench_sorted_quantiles(quick: bool) -> Result<BenchResult, String> {
    let n = if quick { 10_000 } else { 100_000 };
    let xs = skewed_sample(n, 13);
    let ps = [0.25, 0.5, 0.75, 0.9];
    let mut harness_err: Option<String> = None;
    let old_ns = time_best(quick, || {
        let mut acc = 0.0;
        for p in ps {
            match quantile(&xs, p, QuantileMethod::Interpolated) {
                Ok(q) => acc += q,
                Err(e) => harness_err = Some(e.to_string()),
            }
        }
        std::hint::black_box(acc);
    });
    let new_ns = time_best(quick, || {
        let sorted = match SortedSamples::new(&xs) {
            Ok(s) => s,
            Err(e) => {
                harness_err = Some(e.to_string());
                return;
            }
        };
        let mut acc = 0.0;
        for p in ps {
            match sorted.quantile(p, QuantileMethod::Interpolated) {
                Ok(q) => acc += q,
                Err(e) => harness_err = Some(e.to_string()),
            }
        }
        std::hint::black_box(acc);
    });
    if let Some(e) = harness_err {
        return Err(format!("sorted_quantile_queries_100k: {e}"));
    }
    Ok(BenchResult {
        id: "sorted_quantile_queries_100k",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

// ---------------------------------------------------------------------
// Pairs 5-7: the simulator hot path (collective interpretation versus
// compiled-schedule replay).
//
// The legacy side reimplements, verbatim in structure, the engine this PR
// replaced: every noise draw paid the erfc-refined normal quantile (one
// Acklam approximation plus a Halley step whose `std_normal_cdf` is an
// iterative incomplete-gamma expansion), every message recomputed its
// deterministic base cost from the topology, and every collective call
// allocated fresh per-rank working vectors.
// ---------------------------------------------------------------------

/// The pre-optimization standard normal draw: inverse-CDF sampling through
/// the *refined* quantile, exactly what `SimRng::std_normal` did before
/// it switched to the Acklam-only fast path.
fn legacy_std_normal(rng: &mut SimRng) -> f64 {
    let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
    std_normal_inv_cdf(u)
}

/// `NoiseProfile::perturb` with the legacy normal draw — same mechanism
/// composition and draw order, old per-draw cost.
fn legacy_perturb(noise: &NoiseProfile, base_ns: f64, rng: &mut SimRng) -> f64 {
    let mut t = base_ns;
    if noise.jitter_sigma > 0.0 {
        t *= (noise.jitter_sigma * legacy_std_normal(rng).abs()).exp();
    }
    if noise.slow_path_prob > 0.0 && rng.bernoulli(noise.slow_path_prob) {
        t += noise.slow_path_extra_ns;
    }
    if noise.daemon_period_ns > 0.0 && noise.daemon_cost_ns > 0.0 {
        let mean = t / noise.daemon_period_ns;
        let hits = if mean <= 0.0 {
            0
        } else if mean < 30.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.uniform();
                if p <= l || k > 1000 {
                    break k;
                }
                k += 1;
            }
        } else {
            (mean + mean.sqrt() * legacy_std_normal(rng))
                .round()
                .max(0.0) as u64
        };
        t += hits as f64 * noise.daemon_cost_ns;
    }
    if noise.congestion_prob > 0.0 && rng.bernoulli(noise.congestion_prob) {
        t += rng.pareto(noise.congestion_scale_ns, noise.congestion_shape);
    }
    t.max(base_ns)
}

/// The legacy interpreted reduce: fold phase plus binomial tree, fresh
/// `ready`/`done` vectors per call, base transfer cost recomputed from the
/// topology for every message, legacy noise draws.
fn legacy_reduce(
    machine: &MachineSpec,
    net: &NetworkModel<'_>,
    alloc: &Allocation,
    bytes: usize,
    rng: &mut SimRng,
) -> Vec<f64> {
    let reduction_op_ns = 40.0 + bytes as f64 * 0.05;
    let send_exit_ns = machine.network.injection_ns * 0.5;
    let p = alloc.ranks();
    let pof2 = {
        let mut x = 1usize;
        while x * 2 <= p {
            x *= 2;
        }
        x
    };
    let transfer = |src: usize, dst: usize, rng: &mut SimRng| {
        let base = net.base_transfer_ns(alloc.node_of[src], alloc.node_of[dst], bytes);
        legacy_perturb(&machine.noise, base, rng)
    };
    let mut ready = vec![0.0f64; p];
    let mut done = vec![f64::NAN; p];
    if pof2 < p {
        let mut fold_end = 0.0f64;
        for r in pof2..p {
            let dst = r - pof2;
            let t = transfer(r, dst, rng);
            done[r] = ready[r] + send_exit_ns;
            ready[dst] = ready[dst].max(ready[r] + t) + reduction_op_ns;
            fold_end = fold_end.max(ready[dst]);
        }
        for r in ready.iter_mut().take(pof2) {
            *r = r.max(fold_end);
        }
    }
    let mut mask = 1usize;
    while mask < pof2 {
        for r in 0..pof2 {
            if r & mask != 0 && done[r].is_nan() {
                let dst = r - mask;
                let t = transfer(r, dst, rng);
                done[r] = ready[r] + send_exit_ns;
                ready[dst] = ready[dst].max(ready[r] + t) + reduction_op_ns;
            }
        }
        mask <<= 1;
    }
    done[0] = ready[0];
    for r in 0..p {
        if done[r].is_nan() {
            done[r] = ready[r];
        }
    }
    done
}

/// The legacy dissemination barrier: per-round `next` vector allocated
/// inside the round loop, base costs recomputed per message.
fn legacy_barrier(
    machine: &MachineSpec,
    net: &NetworkModel<'_>,
    alloc: &Allocation,
    rng: &mut SimRng,
) -> Vec<f64> {
    let p = alloc.ranks();
    let mut ready = vec![0.0f64; p];
    let mut step = 1usize;
    while step < p {
        // The allocation this PR hoisted: one fresh vector per round.
        let mut next = vec![0.0f64; p];
        for (r, slot) in next.iter_mut().enumerate() {
            let from = (r + p - step % p) % p;
            let base = net.base_transfer_ns(alloc.node_of[from], alloc.node_of[r], 1);
            let t = legacy_perturb(&machine.noise, base, rng);
            *slot = ready[r].max(ready[from] + t);
        }
        ready = next;
        step <<= 1;
    }
    ready
}

fn bench_fig5_pipeline(quick: bool) -> Result<BenchResult, String> {
    // The whole Figure 5 campaign: 63 process counts, `runs` reductions
    // each. Old: sequential interpreted loop. New: per-p compiled
    // schedules replayed through per-worker arenas on the pool.
    let runs = if quick { 40 } else { 400 };
    let machine = MachineSpec::piz_daint();

    let old_ns = time_best(quick, || {
        let net = NetworkModel::new(&machine);
        let root = SimRng::new(DEFAULT_SEED);
        let mut medians = Vec::new();
        for p in 2..=64usize {
            let mut rng = root.fork_indexed("fig5", p as u64);
            let alloc =
                Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Random, &mut rng);
            let mut completion_us = Vec::with_capacity(runs);
            for _ in 0..runs {
                let done = legacy_reduce(&machine, &net, &alloc, 8, &mut rng);
                let max_ns = done.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                completion_us.push(max_ns * 1e-3);
            }
            medians.push(
                FiveNumberSummary::from_samples(&completion_us)
                    .map(|s| s.median)
                    .unwrap_or(f64::NAN),
            );
        }
        std::hint::black_box(medians);
    });

    let mut harness_err: Option<String> = None;
    let new_ns = time_best(quick, || match fig5_reduce::compute(runs, DEFAULT_SEED) {
        Ok(fig) => {
            std::hint::black_box(fig.points.len());
        }
        Err(e) => harness_err = Some(e.to_string()),
    });
    if let Some(e) = harness_err {
        return Err(format!("fig5_reduce_pipeline: {e}"));
    }
    Ok(BenchResult {
        id: "fig5_reduce_pipeline",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

fn bench_reduce_replay(quick: bool) -> Result<BenchResult, String> {
    // A single compiled reduce at p = 128, replayed back to back — the
    // simulator's innermost hot loop, no campaign machinery around it.
    let reps = if quick { 500 } else { 20_000 };
    let machine = MachineSpec::piz_daint();
    let root = SimRng::new(5);
    let mut alloc_rng = root.fork("alloc");
    let alloc =
        Allocation::one_rank_per_node(&machine, 128, AllocationPolicy::Random, &mut alloc_rng);
    let net = NetworkModel::new(&machine);

    let old_ns = time_best(quick, || {
        let mut rng = root.fork("samples");
        let mut acc = 0.0;
        for _ in 0..reps {
            let done = legacy_reduce(&machine, &net, &alloc, 8, &mut rng);
            acc += done[0];
        }
        std::hint::black_box(acc);
    });

    let schedule = CompiledSchedule::compile_reduce(&machine, &alloc, 8);
    let new_ns = time_best(quick, || {
        let mut rng = root.fork("samples");
        let mut ctx = ReplayCtx::with_capacity(128);
        let mut acc = 0.0;
        for _ in 0..reps {
            let done = schedule.replay_into(&mut ctx, &mut rng);
            acc += done[0];
        }
        std::hint::black_box(acc);
    });
    Ok(BenchResult {
        id: "sim_reduce_replay_128",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

fn bench_barrier_replay(quick: bool) -> Result<BenchResult, String> {
    // Barrier at p = 64: p messages per round make the per-round `next`
    // allocation the legacy engine paid clearly visible.
    let reps = if quick { 200 } else { 5_000 };
    let machine = MachineSpec::piz_daint();
    let root = SimRng::new(6);
    let mut alloc_rng = root.fork("alloc");
    let alloc =
        Allocation::one_rank_per_node(&machine, 64, AllocationPolicy::Random, &mut alloc_rng);
    let net = NetworkModel::new(&machine);

    let old_ns = time_best(quick, || {
        let mut rng = root.fork("samples");
        let mut acc = 0.0;
        for _ in 0..reps {
            let done = legacy_barrier(&machine, &net, &alloc, &mut rng);
            acc += done[0];
        }
        std::hint::black_box(acc);
    });

    let schedule = CompiledSchedule::compile_barrier(&machine, &alloc);
    let new_ns = time_best(quick, || {
        let mut rng = root.fork("samples");
        let mut ctx = ReplayCtx::with_capacity(64);
        let mut acc = 0.0;
        for _ in 0..reps {
            let done = schedule.replay_into(&mut ctx, &mut rng);
            acc += done[0];
        }
        std::hint::black_box(acc);
    });
    Ok(BenchResult {
        id: "sim_barrier_replay_64",
        old_ns,
        new_ns,
        ..BenchResult::default()
    })
}

// ---------------------------------------------------------------------
// Pairs 8-9: streaming statistics (vector mode versus mergeable
// sketches) on million-sample workloads.
// ---------------------------------------------------------------------

/// Heavy-tailed measurement used by both streaming pairs: a shifted
/// exponential with CoV ≈ 0.9, the regime where mean-based summaries
/// mislead and quantile sketches have to earn their keep.
fn stream_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "a" { 0.1 } else { 0.2 };
    let u = rng.uniform().clamp(1e-12, 1.0 - 1e-12);
    base + (-u.ln())
}

fn bench_stream_campaign(quick: bool) -> Result<BenchResult, String> {
    // A full campaign at 10⁶ samples per point (the ISSUE acceptance
    // scale): vector mode keeps 4 × 8 MB of samples resident, streaming
    // mode keeps 4 sketches.
    let n = if quick { 20_000 } else { 1_000_000 };
    let design = Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0]),
    ]);
    let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n));
    let stream_cfg = StreamConfig::default();
    let config = CampaignConfig {
        seed: 31,
        threads: 4,
    };

    // Untimed correctness + accounting pass: the sketch campaign's
    // quantiles must sit within 1% relative of the exact answer on the
    // identical sample streams before any timing is trusted.
    let vector = run_campaign(&design, &plan, &config, stream_measure)
        .map_err(|e| format!("stream_campaign_1m_samples: vector pass: {e}"))?;
    let stream = run_campaign_stream(&design, &plan, &stream_cfg, &config, stream_measure)
        .map_err(|e| format!("stream_campaign_1m_samples: stream pass: {e}"))?;
    let mut old_bytes = 0usize;
    let mut new_bytes = 0usize;
    for (vr, sr) in vector.runs.iter().zip(&stream.runs) {
        old_bytes += vr.outcome.samples.len() * std::mem::size_of::<f64>();
        new_bytes += sr.outcome.summary.resident_bytes();
        let sorted = SortedSamples::new(&vr.outcome.samples)
            .map_err(|e| format!("stream_campaign_1m_samples: sort: {e}"))?;
        for p in [0.5, 0.9, 0.99] {
            let exact = sorted
                .quantile(p, QuantileMethod::Interpolated)
                .map_err(|e| format!("stream_campaign_1m_samples: exact q{p}: {e}"))?;
            let approx = sr
                .outcome
                .summary
                .quantile(p)
                .map_err(|e| format!("stream_campaign_1m_samples: sketch q{p}: {e}"))?;
            let rel = (approx - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
            if rel > 0.01 {
                return Err(format!(
                    "stream_campaign_1m_samples: q{p} off by {:.2}% \
                     (exact {exact}, sketch {approx})",
                    rel * 100.0
                ));
            }
        }
    }

    let mut harness_err: Option<String> = None;
    let old_ns = time_best(quick, || {
        match run_campaign(&design, &plan, &config, stream_measure) {
            Ok(result) => assert_eq!(result.runs.len(), 4),
            Err(e) => harness_err = Some(e.to_string()),
        }
    });
    let new_ns = time_best(quick, || {
        match run_campaign_stream(&design, &plan, &stream_cfg, &config, stream_measure) {
            Ok(result) => assert_eq!(result.runs.len(), 4),
            Err(e) => harness_err = Some(e.to_string()),
        }
    });
    if let Some(e) = harness_err {
        return Err(format!("stream_campaign_1m_samples: {e}"));
    }
    Ok(BenchResult {
        id: "stream_campaign_1m_samples",
        old_ns,
        new_ns,
        old_bytes: Some(old_bytes),
        new_bytes: Some(new_bytes),
    })
}

fn bench_tdigest_quantiles(quick: bool) -> Result<BenchResult, String> {
    // Raw quantile extraction at n = 10⁶: sort-and-query versus
    // push-into-sketch-and-query. Accuracy is gated by *rank*: the
    // sketch's value must land between the exact quantiles at p ± 0.01.
    let n = if quick { 50_000 } else { 1_000_000 };
    let design = Design::new(vec![Factor::new("system", &["a"])]);
    let point = &design.full_factorial()[0];
    let fill =
        |rng: &mut SimRng| -> Vec<f64> { (0..n).map(|_| stream_measure(point, rng)).collect() };
    let xs = fill(&mut SimRng::new(19).fork("tdigest"));

    let mut summary = StreamingSummary::new(StreamConfig::default())
        .map_err(|e| format!("tdigest_quantiles_1m: config: {e}"))?;
    for &x in &xs {
        summary.push(x);
    }
    let sorted = SortedSamples::new(&xs).map_err(|e| format!("tdigest_quantiles_1m: sort: {e}"))?;
    for p in [0.5, 0.9, 0.99] {
        let lo = sorted
            .quantile((p - 0.01f64).max(0.0), QuantileMethod::Interpolated)
            .map_err(|e| format!("tdigest_quantiles_1m: rank lo: {e}"))?;
        let hi = sorted
            .quantile((p + 0.01f64).min(1.0), QuantileMethod::Interpolated)
            .map_err(|e| format!("tdigest_quantiles_1m: rank hi: {e}"))?;
        let approx = summary
            .quantile(p)
            .map_err(|e| format!("tdigest_quantiles_1m: sketch: {e}"))?;
        if !(lo <= approx && approx <= hi) {
            return Err(format!(
                "tdigest_quantiles_1m: q{p} = {approx} outside rank window \
                 [{lo}, {hi}]"
            ));
        }
    }

    let ps = [0.25, 0.5, 0.75, 0.9, 0.99];
    let mut harness_err: Option<String> = None;
    let old_ns = time_best(quick, || {
        let sorted = match SortedSamples::new(&xs) {
            Ok(s) => s,
            Err(e) => {
                harness_err = Some(e.to_string());
                return;
            }
        };
        let mut acc = 0.0;
        for p in ps {
            match sorted.quantile(p, QuantileMethod::Interpolated) {
                Ok(q) => acc += q,
                Err(e) => harness_err = Some(e.to_string()),
            }
        }
        std::hint::black_box(acc);
    });
    let new_ns = time_best(quick, || {
        let mut s = match StreamingSummary::new(StreamConfig::default()) {
            Ok(s) => s,
            Err(e) => {
                harness_err = Some(e.to_string());
                return;
            }
        };
        for &x in &xs {
            s.push(x);
        }
        let mut acc = 0.0;
        for p in ps {
            match s.quantile(p) {
                Ok(q) => acc += q,
                Err(e) => harness_err = Some(e.to_string()),
            }
        }
        std::hint::black_box(acc);
    });
    if let Some(e) = harness_err {
        return Err(format!("tdigest_quantiles_1m: {e}"));
    }
    Ok(BenchResult {
        id: "tdigest_quantiles_1m",
        old_ns,
        new_ns,
        old_bytes: Some(xs.len() * std::mem::size_of::<f64>()),
        new_bytes: Some(summary.resident_bytes()),
    })
}

// ---------------------------------------------------------------------
// JSON emission and verification (parsed with the trace crate's codec).
// ---------------------------------------------------------------------

fn render_json(results: &[BenchResult], schema: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{schema}\",");
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (target, target_mem_ratio) = targets(schema, r.id);
        out.push_str("    {\n");
        let mut fields = vec![
            format!("      \"id\": \"{}\"", r.id),
            format!("      \"old_ns\": {}", r.old_ns),
            format!("      \"new_ns\": {}", r.new_ns),
            format!("      \"speedup\": {:.2}", r.speedup()),
        ];
        if let Some(t) = target {
            fields.push(format!("      \"target_speedup\": {t:.1}"));
        }
        if let (Some(old), Some(new)) = (r.old_bytes, r.new_bytes) {
            fields.push(format!("      \"old_bytes\": {old}"));
            fields.push(format!("      \"new_bytes\": {new}"));
            if let Some(ratio) = r.mem_ratio() {
                fields.push(format!("      \"mem_ratio\": {ratio:.2}"));
            }
        }
        if let Some(t) = target_mem_ratio {
            fields.push(format!("      \"target_mem_ratio\": {t:.1}"));
        }
        out.push_str(&fields.join(",\n"));
        out.push('\n');
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn verify(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading: {e}"))?;
    verify_text(&text)
}

/// Checks a baseline file against the target table its schema selects.
/// Every ratio is recomputed from the raw timings and byte counts, the
/// recorded ratios must agree with them, and the targets come from the
/// tables above — never from the file being checked.
fn verify_text(text: &str) -> Result<String, String> {
    let doc = parse_json(text).map_err(|e| format!("parsing: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("schema marker missing")?;
    let expected = match schema {
        SCHEMA => EXPECTED,
        SCHEMA_SIM => EXPECTED_SIM,
        SCHEMA_STREAM => EXPECTED_STREAM,
        other => {
            return Err(format!(
            "unknown schema {other:?} (expected {SCHEMA:?}, {SCHEMA_SIM:?} or {SCHEMA_STREAM:?})"
        ))
        }
    };
    let benches = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .ok_or("benches array missing")?;
    let mut report = String::from("baseline OK:\n");
    for &(id, target_speedup, target_mem_ratio) in expected {
        let entry = benches
            .iter()
            .find(|b| b.get("id").and_then(JsonValue::as_str) == Some(id))
            .ok_or_else(|| format!("bench id {id:?} missing"))?;
        let field = |key: &str| entry.get(key).and_then(JsonValue::as_f64);
        let number = |key: &str| field(key).ok_or_else(|| format!("{id}: {key} missing"));
        let speedup = checked_ratio(
            id,
            "speedup",
            number("old_ns")?,
            number("new_ns")?,
            Some(number("speedup")?),
        )?;
        if let Some(t) = target_speedup {
            if speedup < t {
                return Err(format!("{id}: speedup {speedup:.2}x below target {t:.0}x"));
            }
        }
        match target_mem_ratio {
            Some(t) => {
                let ratio = checked_ratio(
                    id,
                    "mem_ratio",
                    number("old_bytes")?,
                    number("new_bytes")?,
                    field("mem_ratio"),
                )?;
                if ratio < t {
                    return Err(format!(
                        "{id}: memory ratio {ratio:.1}x below target {t:.0}x"
                    ));
                }
                let _ = writeln!(report, "  {id}: {speedup:.2}x, mem {ratio:.0}x");
            }
            None => {
                let _ = writeln!(report, "  {id}: {speedup:.2}x");
            }
        }
    }
    Ok(report.trim_end().to_string())
}

/// `old / new`, rejecting non-positive inputs and a recorded value that
/// disagrees with the recomputed one beyond its two-decimal rounding.
fn checked_ratio(
    id: &str,
    name: &str,
    old: f64,
    new: f64,
    recorded: Option<f64>,
) -> Result<f64, String> {
    if !(old > 0.0 && new > 0.0) {
        return Err(format!("{id}: non-positive inputs to {name}"));
    }
    let ratio = old / new;
    if let Some(r) = recorded {
        if (r - ratio).abs() > 0.005 + 1e-9 * ratio {
            return Err(format!(
                "{id}: recorded {name} {r} disagrees with {ratio:.4} recomputed from the raw numbers"
            ));
        }
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = include_str!("../../../../BENCH_stats.json");
    const SIM: &str = include_str!("../../../../BENCH_sim.json");
    const STREAM: &str = include_str!("../../../../BENCH_stream.json");

    #[test]
    fn committed_baselines_pass() {
        for text in [STATS, SIM, STREAM] {
            verify_text(text).unwrap();
        }
    }

    #[test]
    fn memory_gate_does_not_depend_on_the_recorded_target() {
        // Deleting the file's own target leaves the gate on...
        let untargeted = STREAM.replace(",\n      \"target_mem_ratio\": 50.0", "");
        assert!(!untargeted.contains("target_mem_ratio"));
        verify_text(&untargeted).unwrap();
        // ...so a ratio below the 50x target still fails.
        let bloated = untargeted
            .replace("\"new_bytes\": 92384", "\"new_bytes\": 920000")
            .replace(",\n      \"mem_ratio\": 346.38", "");
        assert!(verify_text(&bloated).unwrap_err().contains("below target"));
        let no_bytes = untargeted.replace("\"new_bytes\": 92384,", "");
        assert!(verify_text(&no_bytes)
            .unwrap_err()
            .contains("new_bytes missing"));
    }

    #[test]
    fn inconsistent_recorded_ratios_are_rejected() {
        let inflated = STATS.replace("\"speedup\": 6.26", "\"speedup\": 9.99");
        assert!(verify_text(&inflated).unwrap_err().contains("disagrees"));
        let inflated = STREAM.replace("\"mem_ratio\": 346.38", "\"mem_ratio\": 999.0");
        assert!(verify_text(&inflated).unwrap_err().contains("disagrees"));
        // A slower recorded new side fails the recomputed speedup gate.
        let slow = STATS
            .replace("\"new_ns\": 235568830", "\"new_ns\": 735568830")
            .replace("\"speedup\": 6.26", "\"speedup\": 2.00");
        assert!(verify_text(&slow).unwrap_err().contains("below target"));
    }

    #[test]
    fn truncated_files_are_rejected() {
        for text in [STATS, SIM, STREAM] {
            let body = text.trim_end();
            for cut in 0..body.len() {
                assert!(verify_text(&body[..cut]).is_err(), "cut at {cut}");
            }
        }
    }
}
