//! `fig5_replay`: the paper's Figure 5 pipeline — `MPI_Reduce` completion
//! times at p = 2..=64 — through `fig5_reduce::compute` and
//! `Fig5::series`, on the pool's lanes.
//!
//! Layers exercised: `scibench-sim` compile and replay, `parallel::pool`
//! scheduling of 63 process counts of uneven cost, and the exact
//! summaries (`FiveNumberSummary`, `median_ci`). No sketch, stopping rule
//! or journal runs here.

use scibench::parallel::pool;
use scibench::parallel::{collapse_repetition, CrossProcessSummary};
use scibench_bench::figures::fig5_reduce::{self, Fig5};
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::collectives::reduce;
use scibench_sim::compile::{CompiledSchedule, ReplayCtx};
use scibench_sim::machine::MachineSpec;
use scibench_sim::rng::SimRng;
use scibench_stats::ci::{median_ci, ConfidenceInterval};
use scibench_stats::quantile::FiveNumberSummary;
use scibench_trace::{lane_of, Tracer};

use crate::harness::PassCounts;
use crate::layers::{layer, span, LaneIds, MAIN_LANE, PASS_SPAN, POOL_SPAN};
use crate::{digest_f64s, same_bits, Checks, Workload};

/// Process counts of Figure 5.
pub const PROCESS_COUNTS: std::ops::RangeInclusive<usize> = 2..=64;
/// Confidence of the per-p median CIs (as in `Fig5::series`).
const CONFIDENCE: f64 = 0.95;
/// Reduce payload in bytes (as in `fig5_reduce::compute`).
const BYTES: usize = 8;
/// Process counts whose runs are re-checked against the interpreter.
const INTERPRETED_CHECKS: usize = 3;

/// The workload: `runs` reductions per process count.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Replay {
    /// Reductions per process count.
    pub runs: usize,
}

impl Default for Fig5Replay {
    fn default() -> Self {
        Fig5Replay { runs: 16_000 }
    }
}

/// Inputs made in set-up: the machine model and the size of every
/// compiled reduce.
#[derive(Debug, Clone)]
pub struct Fig5Input {
    seed: u64,
    machine: MachineSpec,
    /// Messages per replay of each process count's compiled reduce.
    messages: Vec<usize>,
}

/// One pass's result: the figure and its per-p median CIs.
#[derive(Debug, Clone)]
pub struct Fig5Output {
    fig: Fig5,
    cis: Vec<ConfidenceInterval>,
}

/// Per-p result of a reproduction through the layers' own calls.
struct Point {
    completion_us: Vec<f64>,
    summary: FiveNumberSummary,
}

fn point_rng(seed: u64, p: usize) -> SimRng {
    SimRng::new(seed).fork_indexed("fig5", p as u64)
}

fn compile(machine: &MachineSpec, seed: u64, p: usize) -> (CompiledSchedule, SimRng) {
    let mut rng = point_rng(seed, p);
    let alloc = Allocation::one_rank_per_node(machine, p, AllocationPolicy::Random, &mut rng);
    (
        CompiledSchedule::compile_reduce(machine, &alloc, BYTES),
        rng,
    )
}

fn ci_bits(ci: &ConfidenceInterval) -> [u64; 4] {
    [ci.estimate, ci.lower, ci.upper, ci.confidence].map(f64::to_bits)
}

fn summary_bits(s: &FiveNumberSummary) -> [u64; 5] {
    [s.min, s.q1, s.median, s.q3, s.max].map(f64::to_bits)
}

impl Fig5Replay {
    /// Replays the pipeline through `CompiledSchedule`, the pool and the
    /// summaries, with a span around each layer call when `tracer` is on.
    fn reproduce(
        &self,
        input: &Fig5Input,
        threads: usize,
        tracer: Option<&Tracer>,
    ) -> Result<(Vec<Point>, Vec<ConfidenceInterval>), String> {
        let ps: Vec<usize> = PROCESS_COUNTS.collect();
        let lanes = LaneIds::new();
        let mut main = lane_of(tracer, MAIN_LANE);
        let pass = main.begin();
        let pool_start = main.begin();
        let slots = pool::run_indexed_scoped_traced(
            ps.len(),
            threads,
            tracer,
            || (ReplayCtx::new(), lane_of(tracer, lanes.next())),
            |(ctx, lane), i| -> Result<Point, String> {
                let p = ps[i];
                let (schedule, mut rng) = span(lane, layer::SIM, "compile", || {
                    compile(&input.machine, input.seed, p)
                });
                if schedule.messages() != input.messages[i] {
                    return Err(format!("p={p}: compiled program differs from set-up"));
                }
                let completion_us = span(lane, layer::SIM, "replay", || {
                    let mut out = Vec::with_capacity(self.runs);
                    for _ in 0..self.runs {
                        let done = schedule.replay_into(ctx, &mut rng);
                        let max_ns = collapse_repetition(done, CrossProcessSummary::Max)
                            .map_err(|e| format!("p={p}: {e}"))?;
                        out.push(max_ns * 1e-3);
                    }
                    Ok::<_, String>(out)
                })?;
                lane.counter(layer::SIM, "replay_calls", self.runs as f64);
                lane.counter(
                    layer::SIM,
                    "messages",
                    (self.runs * schedule.messages()) as f64,
                );
                let summary = span(lane, layer::STATS, "summary", || {
                    FiveNumberSummary::from_samples(&completion_us)
                })
                .map_err(|e| format!("p={p}: {e}"))?;
                Ok(Point {
                    completion_us,
                    summary,
                })
            },
        );
        main.end(pool_start, POOL_SPAN.0, POOL_SPAN.1, &[]);
        let mut points = Vec::with_capacity(ps.len());
        for slot in slots {
            match slot {
                Ok(point) => points.push(point?),
                Err(_) => return Err("fig5 task panicked".to_owned()),
            }
        }
        let cis = span(&mut main, layer::STATS, "summary", || {
            points
                .iter()
                .map(|pt| median_ci(&pt.completion_us, CONFIDENCE))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
        main.end(pass, PASS_SPAN.0, PASS_SPAN.1, &[]);
        Ok((points, cis))
    }

    /// Bit-compares a reproduction with a pass's output.
    fn compare(
        &self,
        out: &Fig5Output,
        points: &[Point],
        cis: &[ConfidenceInterval],
    ) -> Result<(), String> {
        if points.len() != out.fig.points.len() || cis.len() != out.cis.len() {
            return Err("reproduction has a different number of process counts".to_owned());
        }
        for ((mine, theirs), (ci, their_ci)) in points
            .iter()
            .zip(&out.fig.points)
            .zip(cis.iter().zip(&out.cis))
        {
            let same = same_bits(&mine.completion_us, &theirs.completion_us)
                && summary_bits(&mine.summary) == summary_bits(&theirs.summary)
                && ci_bits(ci) == ci_bits(their_ci);
            if !same {
                return Err(format!("reproduction differs at p={}", theirs.p));
            }
        }
        Ok(())
    }
}

impl Workload for Fig5Replay {
    type Input = Fig5Input;
    type Output = Fig5Output;

    fn name(&self) -> &'static str {
        "fig5_replay"
    }

    fn setup(&self, seed: u64) -> Result<Fig5Input, String> {
        let machine = MachineSpec::piz_daint();
        let messages = PROCESS_COUNTS
            .map(|p| compile(&machine, seed, p).0.messages())
            .collect();
        Ok(Fig5Input {
            seed,
            machine,
            messages,
        })
    }

    fn pass(&self, input: &Fig5Input) -> Result<Fig5Output, String> {
        let fig = fig5_reduce::compute(self.runs, input.seed).map_err(|e| e.to_string())?;
        let (pof2, others) = fig.series().map_err(|e| e.to_string())?;
        let mut by_p: Vec<(f64, ConfidenceInterval)> = pof2
            .points
            .iter()
            .chain(&others.points)
            .filter_map(|pt| pt.ci.map(|ci| (pt.x, ci)))
            .collect();
        by_p.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cis = by_p.into_iter().map(|(_, ci)| ci).collect();
        Ok(Fig5Output { fig, cis })
    }

    fn counts(&self, out: &Fig5Output) -> PassCounts {
        PassCounts {
            samples: out
                .fig
                .points
                .iter()
                .map(|p| p.completion_us.len() as u64)
                .sum(),
            operations: PROCESS_COUNTS.count() as u64,
            failed: PROCESS_COUNTS.count().saturating_sub(out.fig.points.len()) as u64,
        }
    }

    fn digest(&self, out: &Fig5Output) -> u64 {
        let mut all: Vec<f64> = Vec::new();
        for (pt, ci) in out.fig.points.iter().zip(&out.cis) {
            all.extend_from_slice(&pt.completion_us);
            all.extend([ci.estimate, ci.lower, ci.upper]);
        }
        digest_f64s(&all)
    }

    fn check(&self, input: &Fig5Input, out: &Fig5Output) -> Checks {
        let mut checks = Checks::default();
        // Compiled replay must equal the interpreted reduce, bit for bit,
        // on a seed-chosen subset of process counts (p = 64 always).
        let mut picker = SimRng::new(input.seed).fork("fig5-check");
        let mut subset: Vec<usize> = vec![*PROCESS_COUNTS.end()];
        while subset.len() < INTERPRETED_CHECKS {
            let p = PROCESS_COUNTS.start() + picker.index(PROCESS_COUNTS.count());
            if !subset.contains(&p) {
                subset.push(p);
            }
        }
        for p in subset {
            let mut rng = point_rng(input.seed, p);
            let alloc = Allocation::one_rank_per_node(
                &input.machine,
                p,
                AllocationPolicy::Random,
                &mut rng,
            );
            let interpreted: Vec<f64> = (0..self.runs)
                .map(|_| {
                    let outcome = reduce(&input.machine, &alloc, BYTES, &mut rng);
                    outcome.max_ns().unwrap_or(f64::NAN) * 1e-3
                })
                .collect();
            let compiled = out.fig.points.iter().find(|pt| pt.p == p);
            if !compiled.is_some_and(|pt| same_bits(&pt.completion_us, &interpreted)) {
                checks.fail(format!(
                    "fig5: compiled replay differs from interpreter at p={p}"
                ));
            }
        }
        // One lane must give the same figure as the pool's lanes.
        match self.reproduce(input, 1, None) {
            Ok((points, cis)) => {
                if let Err(e) = self.compare(out, &points, &cis) {
                    checks.fail(format!(
                        "fig5: 1 lane vs {} lanes: {e}",
                        crate::harness::lanes()
                    ));
                }
            }
            Err(e) => checks.fail(format!("fig5: 1-lane reproduction failed: {e}")),
        }
        checks
    }

    fn traced(&self, input: &Fig5Input, out: &Fig5Output, tracer: &Tracer) -> Result<f64, String> {
        let (reproduced, wall) =
            crate::harness::timed(|| self.reproduce(input, crate::harness::lanes(), Some(tracer)));
        let (points, cis) = reproduced?;
        self.compare(out, &points, &cis)?;
        Ok(wall)
    }
}
