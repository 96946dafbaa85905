//! `stream_adaptive`: a bounded-memory streaming campaign through
//! `run_campaign_stream` with the adaptive median-CI stopping rule, over
//! points of heavy-tailed noise that converge between about 10⁵ and
//! 2·10⁶ samples — far above the exact-to-sketch promotion threshold.
//!
//! Layers exercised: sample generation (the measure closure), sketch
//! ingest (`StreamingSummary::push`), stopping checks (`median_ci` on the
//! summary), per-lane partials and their merge, and the pool scheduling
//! unequal points on the lanes. No simulator replay or journal runs here.

use std::hint::black_box;

use scibench::experiment::campaign::CampaignConfig;
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::experiment::stream::{run_campaign_stream, StreamCampaign};
use scibench::parallel::pool;
use scibench_sim::rng::SimRng;
use scibench_stats::error::StatsError;
use scibench_stats::quantile::QuantileMethod;
use scibench_stats::sketch::{KeyedPartials, MergeableSummary, StreamConfig, StreamingSummary};
use scibench_stats::sorted::SortedSamples;
use scibench_trace::Tracer;

use crate::harness::PassCounts;
use crate::layers::{layer, span, LaneIds, MAIN_LANE, PASS_SPAN, POOL_SPAN};
use crate::{same_bits, Checks, Workload};

/// Quantiles every point reports.
pub const REPORTED: [f64; 3] = [0.5, 0.9, 0.99];
/// Largest tolerated relative error of a reported quantile against the
/// exact answer on the same sample stream.
const QUANTILE_TOLERANCE: f64 = 0.01;
const CONFIDENCE: f64 = 0.95;
const WARMUP: usize = 64;
/// Samples between stopping checks.
const BATCH: usize = 8192;
/// Per-point sample cap; every point converges well below it.
const MAX_SAMPLES: usize = 4_000_000;
/// Samples a traced pass generates before pushing them (fits in L1).
const CHUNK: usize = 512;

/// The workload: a median-CI-driven streaming campaign.
#[derive(Debug, Clone, Copy)]
pub struct StreamAdaptive {
    /// Target relative half-width of each point's median CI.
    pub rel_error: f64,
    /// Times the measure closure generates each sample; only the last
    /// draw is kept. 1 in the benchmark; the attribution self-test sets
    /// 2 to slow sample generation down without changing any output.
    pub measure_repeat: u32,
}

impl Default for StreamAdaptive {
    fn default() -> Self {
        StreamAdaptive {
            rel_error: 5e-4,
            measure_repeat: 1,
        }
    }
}

/// Inputs made in set-up.
#[derive(Debug, Clone)]
pub struct StreamInput {
    design: Design,
    points: Vec<RunPoint>,
    plan: MeasurementPlan,
    stream: StreamConfig,
    config: CampaignConfig,
}

/// One pass's result: the campaign and the reported quantiles per point.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    campaign: StreamCampaign,
    quantiles: Vec<[f64; 3]>,
}

/// One heavy-tailed latency sample: the completion time of a 4-rank
/// exchange (the latest of the lognormal rank times, scaled by the
/// point's spread), exponential OS noise, and Pareto stragglers on the
/// `heavy` points.
fn draw(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let spread: f64 = point.level(0).parse().unwrap_or(1.0);
    let base = 10.0;
    let ranks = (0..4).fold(0.0f64, |m, _| m.max(rng.lognormal(0.0, 0.5)));
    let body = base * (1.0 + spread * ranks) + rng.exponential(0.02 * base);
    if point.level(1) == "heavy" && rng.uniform() < 0.02 {
        body + rng.pareto(base, 1.5)
    } else {
        body
    }
}

impl StreamAdaptive {
    /// The measure closure handed to the campaign.
    pub fn measure(&self, point: &RunPoint, rng: &mut SimRng) -> f64 {
        for _ in 1..self.measure_repeat {
            black_box(draw(point, &mut rng.clone()));
        }
        draw(point, rng)
    }

    fn stopping(&self) -> StoppingRule {
        StoppingRule::AdaptiveMedianCi {
            confidence: CONFIDENCE,
            rel_error: self.rel_error,
            batch: BATCH,
            max_samples: MAX_SAMPLES,
        }
    }

    /// Reruns the campaign through the layers' own calls — fork, measure,
    /// push and the median-CI check on the summary — with a span around
    /// each. Samples are generated in chunks of [`CHUNK`] before they are
    /// pushed; the stream is the same, so the summaries are too.
    fn reproduce(
        &self,
        input: &StreamInput,
        tracer: &Tracer,
    ) -> Result<(KeyedPartials<StreamingSummary>, Vec<[f64; 3]>), String> {
        let n = input.points.len();
        let mut order: Vec<usize> = (0..n).collect();
        SimRng::new(input.config.seed)
            .fork("campaign-order")
            .shuffle(&mut order);
        let root = SimRng::new(input.config.seed);
        let lanes = LaneIds::new();
        let mut main = tracer.lane(MAIN_LANE);
        let pass = main.begin();
        let pool_start = main.begin();
        let (slots, scratches) = pool::run_indexed_collect_scoped(
            n,
            input.config.threads,
            Some(tracer),
            || {
                (
                    KeyedPartials::<StreamingSummary>::new(),
                    tracer.lane(lanes.next()),
                    Vec::with_capacity(CHUNK),
                )
            },
            |(partials, lane, buf), pos| -> Result<(), String> {
                let idx = order[pos];
                let point = &input.points[idx];
                let mut rng = span(lane, layer::GEN, "fork", || {
                    root.fork_indexed("campaign-point", idx as u64)
                });
                let mut summary = StreamingSummary::new(input.stream).map_err(|e| e.to_string())?;
                span(lane, layer::GEN, "measure", || {
                    for _ in 0..WARMUP {
                        self.measure(point, &mut rng);
                    }
                });
                let mut seen = 0usize;
                let mut promotions = 0u32;
                while seen < MAX_SAMPLES {
                    let take = BATCH.min(MAX_SAMPLES - seen);
                    for chunk in (0..take).step_by(CHUNK) {
                        let len = CHUNK.min(take - chunk);
                        span(lane, layer::GEN, "measure", || {
                            buf.clear();
                            buf.extend((0..len).map(|_| self.measure(point, &mut rng)));
                        });
                        let was_exact = summary.is_exact();
                        span(lane, layer::SKETCH, "push", || {
                            for &x in buf.iter() {
                                summary.push(x);
                            }
                        });
                        promotions += u32::from(was_exact && !summary.is_exact());
                    }
                    seen += take;
                    let tight = span(lane, layer::STOP, "check", || {
                        match summary.median_ci(CONFIDENCE) {
                            Ok(ci) => Ok(ci
                                .relative_half_width()
                                .is_some_and(|r| r <= self.rel_error)),
                            Err(StatsError::TooFewSamples { .. } | StatsError::EmptySample) => {
                                Ok(false)
                            }
                            Err(e) => Err(e.to_string()),
                        }
                    })?;
                    if tight {
                        break;
                    }
                }
                lane.counter(layer::SKETCH, "pushed", seen as f64);
                lane.counter(layer::SKETCH, "promotions", f64::from(promotions));
                lane.counter(layer::STOP, "samples_to_stop", seen as f64);
                span(lane, layer::SKETCH, "merge", || {
                    partials.insert(idx as u64, summary)
                })
                .map_err(|e| e.to_string())
            },
        );
        main.end(pool_start, POOL_SPAN.0, POOL_SPAN.1, &[]);
        for slot in slots {
            slot.map_err(|_| "stream task panicked".to_owned())??;
        }
        let mut union = KeyedPartials::new();
        span(&mut main, layer::SKETCH, "merge", || {
            scratches
                .iter()
                .try_for_each(|(partials, _, _)| union.merge_from(partials))
        })
        .map_err(|e| e.to_string())?;
        let quantiles = span(&mut main, layer::SKETCH, "quantile", || {
            (0..n as u64)
                .map(|k| reported_quantiles(union.get(k).ok_or(StatsError::EmptySample)?))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
        let resident: usize = union.iter().map(|(_, s)| s.resident_bytes()).sum();
        main.counter(layer::SKETCH, "resident_bytes", resident as f64);
        main.end(pass, PASS_SPAN.0, PASS_SPAN.1, &[]);
        Ok((union, quantiles))
    }
}

fn reported_quantiles(summary: &StreamingSummary) -> Result<[f64; 3], StatsError> {
    Ok([
        summary.quantile(REPORTED[0])?,
        summary.quantile(REPORTED[1])?,
        summary.quantile(REPORTED[2])?,
    ])
}

impl Workload for StreamAdaptive {
    type Input = StreamInput;
    type Output = StreamOutput;

    fn name(&self) -> &'static str {
        "stream_adaptive"
    }

    fn setup(&self, seed: u64) -> Result<StreamInput, String> {
        let design = Design::new(vec![
            Factor::numeric("spread", &[0.25, 0.5, 0.75, 1.0]),
            Factor::new("tail", &["light", "heavy"]),
        ]);
        let points = design.full_factorial();
        let plan = MeasurementPlan::new("latency")
            .warmup(WARMUP)
            .stopping(self.stopping());
        let stream = StreamConfig::default();
        let config = CampaignConfig {
            seed,
            threads: crate::harness::lanes(),
        };
        // Warm-up campaign on the pool's lanes, a few times past the
        // promotion threshold, so the first timed pass does not pay
        // first-touch costs; long enough that thread start-up jitter does
        // not dominate `setup_s`.
        let warm = MeasurementPlan::new("warm-up")
            .stopping(StoppingRule::FixedCount(4 * stream.threshold));
        run_campaign_stream(&design, &warm, &stream, &config, |p, rng| {
            self.measure(p, rng)
        })
        .map_err(|e| e.to_string())?;
        Ok(StreamInput {
            design,
            points,
            plan,
            stream,
            config,
        })
    }

    fn pass(&self, input: &StreamInput) -> Result<StreamOutput, String> {
        let campaign = run_campaign_stream(
            &input.design,
            &input.plan,
            &input.stream,
            &input.config,
            |p, rng| self.measure(p, rng),
        )
        .map_err(|e| e.to_string())?;
        let quantiles = campaign
            .runs
            .iter()
            .map(|r| reported_quantiles(&r.outcome.summary))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(StreamOutput {
            campaign,
            quantiles,
        })
    }

    fn counts(&self, out: &StreamOutput) -> PassCounts {
        let runs = &out.campaign.runs;
        PassCounts {
            samples: runs
                .iter()
                .map(|r| r.outcome.summary.moments().count())
                .sum(),
            operations: runs.len() as u64,
            failed: out.campaign.unconverged().len() as u64,
        }
    }

    fn digest(&self, out: &StreamOutput) -> u64 {
        crate::digest_bytes(out.campaign.partials.to_record().as_bytes())
    }

    fn check(&self, input: &StreamInput, out: &StreamOutput) -> Checks {
        let mut checks = Checks::default();
        let root = SimRng::new(input.config.seed);
        for (idx, (run, approx)) in out.campaign.runs.iter().zip(&out.quantiles).enumerate() {
            // The same stream, kept whole: warm-up draws, then every
            // recorded sample.
            let mut rng = root.fork_indexed("campaign-point", idx as u64);
            for _ in 0..WARMUP {
                self.measure(&run.point, &mut rng);
            }
            let n = run.outcome.samples_seen() as usize;
            let samples: Vec<f64> = (0..n).map(|_| self.measure(&run.point, &mut rng)).collect();
            let sorted = match SortedSamples::new(&samples) {
                Ok(s) => s,
                Err(e) => {
                    checks.fail(format!("stream: point {idx}: {e}"));
                    continue;
                }
            };
            for (p, &got) in REPORTED.iter().zip(approx) {
                let exact = sorted
                    .quantile(*p, QuantileMethod::Interpolated)
                    .unwrap_or(f64::NAN);
                let rel = (got - exact).abs() / exact.abs();
                checks.quantile_error(rel);
                if rel.is_nan() || rel > QUANTILE_TOLERANCE {
                    checks.fail(format!(
                        "stream: point {idx} q{p}: sketch {got} vs exact {exact} ({:.3}%)",
                        rel * 100.0
                    ));
                }
            }
        }
        checks
    }

    fn traced(
        &self,
        input: &StreamInput,
        out: &StreamOutput,
        tracer: &Tracer,
    ) -> Result<f64, String> {
        let (reproduced, wall) = crate::harness::timed(|| self.reproduce(input, tracer));
        let (partials, quantiles) = reproduced?;
        if partials.to_record() != out.campaign.partials.to_record() {
            return Err("stream: reproduced summaries differ from the campaign's".to_owned());
        }
        if !same_bits(quantiles.as_flattened(), out.quantiles.as_flattened()) {
            return Err("stream: reproduced quantiles differ from the campaign's".to_owned());
        }
        Ok(wall)
    }
}
