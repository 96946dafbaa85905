//! End-to-end and per-layer benchmark of the scibench pipelines.
//!
//! Three workloads each put most of their time in different layers:
//! [`fig5::Fig5Replay`] (simulator replay, pool, exact summaries),
//! [`stream::StreamAdaptive`] (sample generation, sketch ingest,
//! stopping checks) and [`shard::ShardJournal`] (shard supervision,
//! journal, resilience). [`run`] measures one workload for a wall-clock
//! budget: untraced passes for the end-to-end metrics, or alternating
//! untraced and traced passes for the per-layer metrics. See README.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig5;
pub mod harness;
pub mod layers;
pub mod shard;
pub mod stream;

use std::path::PathBuf;
use std::time::Instant;

use scibench_trace::{write_chrome_json, Tracer};

use harness::{json_number, json_numbers, json_string, median, Metrics, PassCounts};
use layers::LayerReport;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["fig5_replay", "stream_adaptive", "shard_journal"];

/// Fewest timed passes of one kind in a run, whatever the budget.
const MIN_PASSES: usize = 3;
/// Fewest set-ups timed in a run.
const MIN_SETUPS: usize = 9;

/// Outcome of the untimed output checks of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Every failed check, described.
    pub failures: Vec<String>,
    /// Worst relative quantile error seen (0 where outputs are exact).
    pub max_quantile_rel_err: f64,
}

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records one quantile's relative error.
    pub fn quantile_error(&mut self, rel: f64) {
        if rel.is_nan() || rel > self.max_quantile_rel_err {
            self.max_quantile_rel_err = rel;
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up prepares.
    type Input;
    /// What one timed pass produces.
    type Output;

    /// Name as listed in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Untimed preparation before a timed pass; inputs derive from `seed`.
    fn setup(&self, seed: u64) -> Result<Self::Input, String>;
    /// One timed pass through the pipeline's public entry points.
    fn pass(&self, input: &Self::Input) -> Result<Self::Output, String>;
    /// Samples, operations and failed operations of a pass.
    fn counts(&self, out: &Self::Output) -> PassCounts;
    /// Digest of a pass's output; every pass of a run must agree.
    fn digest(&self, out: &Self::Output) -> u64;
    /// Untimed output checks.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Checks;
    /// Reproduces the pass through the layers' own public calls with
    /// spans and counters on `tracer`, verifies it bit for bit against
    /// `out`, and returns the reproduction's wall seconds.
    fn traced(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        tracer: &Tracer,
    ) -> Result<f64, String>;
    /// Releases what set-up made (files, directories); untimed.
    fn teardown(&self, _input: &Self::Input) {}
    /// Peak resident set in kB of the processes that ran the pass.
    fn peak_rss_kb(&self, _out: &Self::Output) -> u64 {
        harness::vm_hwm_kb()
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock budget of the measuring loop.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for run records, traces and layer tables.
    pub out_dir: PathBuf,
}

/// What a run prints and records.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed plus failed checks.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Failed checks, described.
    pub failures: Vec<String>,
    /// Raw per-pass values, as JSON fields, for the run record.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

/// FNV-1a over bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Whether `a` and `b` hold the same values bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over the bit patterns of `xs`.
pub fn digest_f64s(xs: &[f64]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    digest_bytes(&bytes)
}

struct Timed<W: Workload> {
    input: W::Input,
    output: W::Output,
    setup_s: f64,
    wall_s: f64,
}

fn timed_pass<W: Workload>(w: &W, seed: u64) -> Result<Timed<W>, String> {
    let (input, setup_s) = harness::timed(|| w.setup(seed));
    let input = input?;
    let (output, wall_s) = harness::timed(|| w.pass(&input));
    Ok(Timed {
        output: output?,
        input,
        setup_s,
        wall_s,
    })
}

/// Measures workload `w` as `args` asks.
pub fn run<W: Workload>(w: &W, args: &RunArgs) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut traced_walls = Vec::new();
    let mut reports: Vec<LayerReport> = Vec::new();
    let mut counts = PassCounts::default();
    let mut digests = Vec::new();
    let mut last: Option<Timed<W>> = None;
    let mut peak_kb = 0u64;
    while harness::keep_going(start, args.seconds, walls.len(), MIN_PASSES) {
        // One pass's output alive at a time.
        if let Some(done) = last.take() {
            w.teardown(&done.input);
        }
        let t = timed_pass(w, args.seed)?;
        let c = w.counts(&t.output);
        counts.samples += c.samples;
        counts.operations += c.operations;
        counts.failed += c.failed;
        setups.push(t.setup_s);
        walls.push(t.wall_s);
        rates.push(c.samples as f64 / t.wall_s);
        digests.push(w.digest(&t.output));
        peak_kb = peak_kb.max(w.peak_rss_kb(&t.output));
        if args.trace {
            let fresh = w.setup(args.seed)?;
            let tracer = Tracer::new();
            let wall = w.traced(&fresh, &t.output, &tracer);
            w.teardown(&fresh);
            traced_walls.push(wall?);
            let trace = tracer.drain();
            if reports.is_empty() {
                // Keep the first trace on disk; later ones only feed medians.
                let path = artifact(args, w.name(), "trace.json");
                std::fs::create_dir_all(&args.out_dir)
                    .and_then(|()| write_chrome_json(&trace, &path))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            reports.push(LayerReport::from_trace(&trace));
        }
        last = Some(t);
    }
    while setups.len() < MIN_SETUPS {
        let (input, s) = harness::timed(|| w.setup(args.seed));
        w.teardown(&input?);
        setups.push(s);
    }
    let last = last.expect("at least one pass ran");
    let mut checks = w.check(&last.input, &last.output);
    w.teardown(&last.input);
    if digests.iter().any(|&d| d != digests[0]) {
        checks.fail(format!("{}: passes of one seed disagree", w.name()));
    }
    let failed = counts.failed + checks.failures.len() as u64;
    let attempted = counts.operations.max(1);
    let error_rate = failed as f64 / attempted as f64;

    let mut metrics = Metrics::default();
    let mut raw = vec![("setup_s", setups.clone()), ("wall_s", walls.clone())];
    if args.trace {
        let overhead = median(&traced_walls) / median(&walls) - 1.0;
        let layer_runs: Vec<Metrics> = reports
            .iter()
            .map(|r| per_layer(r, overhead, error_rate, checks.max_quantile_rel_err))
            .collect();
        for (i, m) in layer_runs[0].0.iter().enumerate() {
            let values: Vec<f64> = layer_runs.iter().map(|r| r.0[i].value).collect();
            metrics.push(m.name, m.unit, median(&values));
            raw.push((m.name, values));
        }
        let table = reports[0].render(overhead);
        harness::write_file(&artifact(args, w.name(), "layers.txt"), &table)?;
        raw.push(("traced_wall_s", traced_walls));
    } else {
        metrics.push("wall_s", "s", median(&walls));
        metrics.push("samples_per_s", "1/s", median(&rates));
        metrics.push("setup_s", "s", median(&setups));
        metrics.push("peak_rss_mb", "MB", peak_kb as f64 / 1024.0);
        raw.push(("samples_per_s", rates));
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        failures: checks.failures,
        raw,
    })
}

fn artifact(args: &RunArgs, workload: &str, suffix: &str) -> PathBuf {
    args.out_dir
        .join(format!("{workload}-seed{}.{suffix}", args.seed))
}

/// Every per-layer metric, in `BENCHMARK.json` order, from one traced pass.
pub fn per_layer(r: &LayerReport, overhead: f64, error_rate: f64, max_q_err: f64) -> Metrics {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let capacity = r.pool_capacity_ns() as f64;
    let mut m = Metrics::default();
    m.push("sim.replay_ns", "ns", r.total_ns("sim.replay"));
    m.push("sim.replay_calls", "count", r.counter("sim.replay_calls"));
    m.push(
        "sim.ns_per_message",
        "ns",
        ratio(r.total_ns("sim.replay"), r.counter("sim.messages")),
    );
    m.push("sim.compile_ns", "ns", r.total_ns("sim.compile"));
    m.push(
        "gen.measure_ns",
        "ns",
        r.total_ns("gen.measure") + r.total_ns("gen.fork") + r.counter("gen.measure_ns"),
    );
    m.push("pool.tasks", "count", r.pool_tasks as f64);
    m.push("pool.steals", "count", r.pool_steals as f64);
    m.push(
        "pool.idle_ns",
        "ns",
        (capacity - r.pool_task_ns as f64).max(0.0),
    );
    m.push(
        "pool.busy_frac",
        "ratio",
        ratio(r.pool_task_ns as f64, capacity),
    );
    m.push("stats.summary_ns", "ns", r.total_ns("stats.summary"));
    m.push(
        "sketch.push_ns_per_sample",
        "ns",
        ratio(r.total_ns("sketch.push"), r.counter("sketch.pushed")),
    );
    m.push("sketch.quantile_ns", "ns", r.total_ns("sketch.quantile"));
    m.push("sketch.merge_ns", "ns", r.total_ns("sketch.merge"));
    m.push("sketch.promotions", "count", r.counter("sketch.promotions"));
    m.push(
        "sketch.resident_bytes",
        "bytes",
        r.counter("sketch.resident_bytes"),
    );
    m.push("stop.checks", "count", r.spans("stop.check"));
    m.push("stop.check_ns", "ns", r.total_ns("stop.check"));
    m.push(
        "stop.samples_to_stop",
        "count",
        r.counter("stop.samples_to_stop"),
    );
    m.push("journal.encode_ns", "ns", r.total_ns("journal.encode"));
    m.push("journal.append_ns", "ns", r.total_ns("journal.append"));
    m.push("journal.sync_ns", "ns", r.total_ns("journal.sync"));
    m.push("journal.bytes", "bytes", r.counter("journal.bytes"));
    m.push(
        "journal.bytes_per_sample",
        "bytes",
        ratio(r.counter("journal.bytes"), r.counter("journal.samples")),
    );
    m.push("journal.load_ns", "ns", r.total_ns("journal.load"));
    m.push(
        "journal.load_mb_per_s",
        "MB/s",
        ratio(
            r.counter("journal.loaded_bytes") / 1e6,
            r.total_ns("journal.load") / 1e9,
        ),
    );
    m.push(
        "resilience.attempts",
        "count",
        r.counter("resilience.attempts"),
    );
    m.push(
        "resilience.retries",
        "count",
        r.counter("resilience.retries"),
    );
    m.push(
        "resilience.useful_ratio",
        "ratio",
        ratio(
            r.counter("resilience.recorded"),
            r.counter("resilience.calls"),
        ),
    );
    m.push(
        "shard.workers_spawned",
        "count",
        r.counter("shard.workers_spawned"),
    );
    m.push("shard.respawns", "count", r.counter("shard.respawns"));
    m.push("shard.worker_ns", "ns", r.counter("shard.worker_ns"));
    let supervise = r.total_ns("shard.supervise");
    m.push(
        "shard.supervisor_overhead_ns",
        "ns",
        if supervise > 0.0 {
            supervise - r.counter("shard.worker_ns") - r.total_ns("journal.load")
        } else {
            0.0
        },
    );
    m.push("trace.overhead_frac", "ratio", overhead);
    m.push("harness.unattributed_frac", "ratio", r.unattributed_frac());
    m.push("error_rate", "ratio", error_rate);
    m.push("max_quantile_rel_err", "ratio", max_q_err);
    m
}

/// The Rule-9 run record: command, context, settings, raw values and the
/// reported metrics of one run.
pub fn run_record(workload: &str, args: &RunArgs, lanes: usize, result: &RunResult) -> String {
    let command: Vec<String> = std::env::args().collect();
    let command_json: Vec<String> = command.iter().map(|a| json_string(a)).collect();
    let raw: Vec<String> = result
        .raw
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_numbers(v)))
        .collect();
    let failures: Vec<String> = result.failures.iter().map(|f| json_string(f)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"lanes\": {lanes},\n  \"worker_processes\": {},\n  \"context\": {},\n  \
         \"raw\": {{{}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failures\": [{}],\n  \"metrics\": {}\n}}\n",
        command_json.join(", "),
        json_string(workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        if workload == "shard_journal" { 2 } else { 0 },
        harness::context_json(),
        raw.join(", "),
        result.correct,
        result.attempted,
        result.failed,
        failures.join(", "),
        result.metrics.to_json(),
    )
}
