//! Streaming campaign execution: bounded-memory measurement with
//! mergeable sketches instead of O(n) sample vectors.
//!
//! The classic campaign runner ([`super::campaign`]) keeps every sample
//! of every point in memory, which is the right default for the paper's
//! n ≈ 30–10⁴ regime but breaks down for million-sample-per-point
//! campaigns. This module replays the same §4 execution discipline —
//! randomized run order, per-point deterministic RNG streams, warmup
//! exclusion, fixed or CI-driven stopping — on the same campaign core,
//! while each point folds its samples into a [`StreamingSummary`] (exact
//! below an adaptive threshold, t-digest + moments above it; see
//! `scibench_stats::sketch`).
//!
//! Determinism contract: a point's summary is built **sequentially by
//! exactly one worker** from its own RNG stream (keyed by design index),
//! so the summary's canonical record is a pure function of `(seed,
//! design, plan, stream config)`. Cross-worker and cross-shard
//! combination happens through [`KeyedPartials`] — a disjoint-key map
//! union folded in ascending design order — so campaign totals are
//! bit-identical at any thread count and any shard count.
//!
//! The journaled variant writes each point's sketch record (not its
//! samples) into the crash-consistent journal of [`super::journal`],
//! keeping resume state O(sketch) per point.

use scibench_sim::rng::SimRng;
use scibench_stats::error::{StatsError, StatsResult};
use scibench_stats::sketch::{KeyedPartials, MergeableSummary, StreamConfig, StreamingSummary};

use super::campaign::{run_points, CampaignConfig};
use super::design::{Design, RunPoint};
use super::journal::{JournalSpec, PointRecord};
use super::measurement::{MeasurementPlan, SampleSink};
use super::resilience::{open_subset, CampaignError, PointFate};

/// The bounded-memory result of measuring one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Operation name (from the plan).
    pub name: String,
    /// Whether the adaptive stopping criterion was met (always true for
    /// fixed-count plans).
    pub converged: bool,
    /// Warmup iterations executed and discarded (values are not kept —
    /// that is the point of streaming).
    pub warmup_seen: u64,
    /// The streamed summary of every recorded sample.
    pub summary: StreamingSummary,
}

impl StreamOutcome {
    /// Recorded sample count (finite + quarantined non-finite).
    pub fn samples_seen(&self) -> u64 {
        self.summary.moments().count() + self.summary.moments().non_finite_count()
    }
}

/// The streaming sink: warmup values are discarded, the mean rule
/// replans from the summary's exact Welford moments, and the median rule
/// checks the summary's median CI — bit-identical to the vector path's
/// check while the summary is exact, rank-error-bounded after promotion.
impl SampleSink for StreamingSummary {
    fn warmup(&mut self, _x: f64) {}

    fn push(&mut self, x: f64) {
        MergeableSummary::push(self, x);
    }

    fn len(&self) -> usize {
        (self.moments().count() + self.moments().non_finite_count()) as usize
    }

    fn required_samples(&mut self, confidence: f64, rel_error: f64) -> StatsResult<usize> {
        scibench_stats::ci::required_samples_from_moments(self.moments(), confidence, rel_error)
    }

    fn median_tight(&mut self, confidence: f64, rel_error: f64) -> StatsResult<bool> {
        match self.median_ci(confidence) {
            Ok(ci) => Ok(ci
                .relative_half_width()
                .map(|r| r <= rel_error)
                .unwrap_or(false)),
            Err(StatsError::TooFewSamples { .. }) | Err(StatsError::EmptySample) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Runs a measurement plan in streaming mode: same warmup and stopping
/// semantics as [`MeasurementPlan::run`] (both are driven by one
/// stopping-rule engine), but samples fold into a [`StreamingSummary`]
/// instead of accumulating in a vector.
///
/// The two modes stop after the *same number of calls* to `operation`
/// for the same sample stream: the mean rule replans from identical
/// Welford moments, and the median rule's CI check is bit-identical
/// while the summary is exact (below `stream.threshold`) and
/// rank-error-bounded after promotion.
pub fn run_stream(
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    operation: impl FnMut() -> f64,
) -> StatsResult<StreamOutcome> {
    let mut summary = StreamingSummary::new(*stream)?;
    let converged = plan.drive(&mut summary, operation)?;
    Ok(StreamOutcome {
        name: plan.name.clone(),
        converged,
        warmup_seen: plan.warmup_iterations as u64,
        summary,
    })
}

/// One streamed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    /// The factor levels of this run.
    pub point: RunPoint,
    /// The bounded-memory outcome.
    pub outcome: StreamOutcome,
}

/// The executed streaming campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCampaign {
    /// Executed runs, in design (full-factorial) order.
    pub runs: Vec<StreamRun>,
    /// The same summaries keyed by design index — the mergeable form
    /// shards and supervisors exchange. `partials.finalize()` is the
    /// canonical whole-campaign pool.
    pub partials: KeyedPartials<StreamingSummary>,
}

impl StreamCampaign {
    /// The runs whose adaptive stopping did not converge.
    pub fn unconverged(&self) -> Vec<&RunPoint> {
        self.runs
            .iter()
            .filter(|r| !r.outcome.converged)
            .map(|r| &r.point)
            .collect()
    }
}

/// Executes `design` with `plan` at every point in streaming mode.
///
/// Execution order is randomized (§4.1.1) and points run on the
/// work-stealing pool, but every point's RNG stream is keyed by its
/// *design* index and its summary is built sequentially by one worker —
/// so `partials` (and therefore every statistic derived from them) is
/// bit-identical at any thread count.
pub fn run_campaign_stream<F>(
    design: &Design,
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    measure: F,
) -> StatsResult<StreamCampaign>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let points = design.full_factorial();
    if points.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let all: Vec<usize> = (0..points.len()).collect();
    let runs = stream_points(&points, &all, plan, stream, config, &measure)?;
    let mut partials = KeyedPartials::new();
    for (idx, run) in runs.iter().enumerate() {
        partials.insert(idx as u64, run.outcome.summary.clone())?;
    }
    Ok(StreamCampaign { runs, partials })
}

/// Unions shard partials into one keyed set. The union is
/// order-independent (disjoint design keys move bit-for-bit), so the
/// supervisor may merge shards in any order — including as they finish.
pub fn merge_stream_shards(
    shards: &[KeyedPartials<StreamingSummary>],
) -> StatsResult<KeyedPartials<StreamingSummary>> {
    let mut total = KeyedPartials::new();
    for shard in shards {
        total.merge_from(shard)?;
    }
    Ok(total)
}

/// Resume statistics of a journaled streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResume {
    /// Points the subset was asked to cover.
    pub points_total: usize,
    /// Points whose sketch was replayed from the journal (not re-run).
    pub points_resumed: usize,
    /// Points actually executed this run.
    pub points_executed: usize,
    /// The covered points' summaries, keyed by design index.
    pub partials: KeyedPartials<StreamingSummary>,
}

/// Executes only the design points in `indices` and returns their
/// summaries keyed by design index — the building block a shard worker
/// runs on its assigned partition. The union of all shards' partials is
/// bit-identical to [`run_campaign_stream`]'s `partials` on the full
/// design, regardless of how the points were partitioned.
///
/// Each completed point appends a [`PointRecord`] whose `sketch` field
/// carries the summary's canonical record (no sample vector — resume
/// state stays O(sketch) per point). On restart, journaled sketches are
/// decoded and replayed bit-exactly instead of re-measuring. The points
/// run first and are appended afterwards, in `indices` order.
///
/// An index outside the design fails with
/// [`CampaignError::BadPointIndex`], a repeated one with
/// [`CampaignError::DuplicatePointIndex`].
pub fn run_campaign_stream_journaled_subset<F>(
    design: &Design,
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    spec: &JournalSpec<'_>,
    indices: &[usize],
    measure: F,
) -> Result<StreamResume, CampaignError>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    // Only a record carrying a sketch counts as streaming-complete; a
    // sample-mode record for the same key is re-measured.
    let mut start = open_subset(design, config.seed, spec, indices, |record| {
        record.sketch.is_some()
    })?;
    let mut partials = KeyedPartials::new();
    for &idx in indices {
        let record = start.snapshot.record_for(start.keys[idx]);
        if let Some(sketch) = record.and_then(|r| r.sketch.as_deref()) {
            partials.insert(idx as u64, StreamingSummary::from_record(sketch)?)?;
        }
    }

    let missing = &start.missing;
    let runs = stream_points(&start.points, missing, plan, stream, config, &measure)?;
    for (&idx, run) in missing.iter().zip(&runs) {
        start.journal.append_begin(idx, start.keys[idx])?;
        start.journal.append_point(&PointRecord {
            index: idx,
            key: start.keys[idx],
            levels: run.point.levels.clone(),
            fate: PointFate::Completed {
                attempts: 1,
                samples_dropped: 0,
            },
            panics_contained: 0,
            outcome: None,
            notes: Vec::new(),
            sketch: Some(run.outcome.summary.to_record()),
        })?;
    }
    start.journal.sync()?;
    for (&idx, run) in missing.iter().zip(runs) {
        partials.insert(idx as u64, run.outcome.summary)?;
    }
    Ok(StreamResume {
        points_total: indices.len(),
        points_resumed: indices.len() - missing.len(),
        points_executed: missing.len(),
        partials,
    })
}

/// Measures `indices` (design indices) in streaming mode on the campaign
/// core and returns their runs in `indices` order; the first error in
/// that order wins.
fn stream_points<F>(
    points: &[RunPoint],
    indices: &[usize],
    plan: &MeasurementPlan,
    stream: &StreamConfig,
    config: &CampaignConfig,
    measure: &F,
) -> StatsResult<Vec<StreamRun>>
where
    F: Fn(&RunPoint, &mut SimRng) -> f64 + Sync,
{
    let (runs, _) = run_points(
        config,
        indices,
        None,
        || (),
        |(), idx, mut rng| {
            let point = &points[idx];
            let outcome = run_stream(plan, stream, || measure(point, &mut rng))?;
            Ok(StreamRun {
                point: point.clone(),
                outcome,
            })
        },
    )?;
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use crate::experiment::measurement::StoppingRule;
    use scibench_stats::sketch::DEFAULT_STREAM_THRESHOLD;
    use scibench_stats::summary::OnlineMoments;

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn demo_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
        let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
        base + rng.uniform() * 0.01
    }

    fn fixed_plan(n: usize) -> MeasurementPlan {
        MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(n))
    }

    #[test]
    fn stream_matches_vector_path_in_exact_regime() {
        // Below the threshold the streamed statistics must be
        // bit-identical to the vector path on the same sample stream.
        let plan = fixed_plan(200).warmup(3);
        let mut rng = SimRng::new(42).fork("x");
        let vector = plan.run(|| rng.uniform()).unwrap();
        let mut rng = SimRng::new(42).fork("x");
        let stream = run_stream(&plan, &StreamConfig::default(), || rng.uniform()).unwrap();
        assert!(stream.summary.is_exact());
        assert_eq!(stream.samples_seen(), 200);
        assert_eq!(stream.warmup_seen, 3);
        assert!(stream.converged);
        let sorted = scibench_stats::sorted::SortedSamples::new(&vector.samples).unwrap();
        assert_eq!(
            stream.summary.median().unwrap().to_bits(),
            sorted
                .quantile(0.5, scibench_stats::quantile::QuantileMethod::Interpolated)
                .unwrap()
                .to_bits()
        );
        assert_eq!(
            stream.summary.mean().unwrap().to_bits(),
            vector
                .samples
                .iter()
                .copied()
                .collect::<OnlineMoments>()
                .mean()
                .unwrap()
                .to_bits()
        );
    }

    #[test]
    fn adaptive_rules_converge_and_stop_like_the_vector_path() {
        for stopping in [
            StoppingRule::AdaptiveMeanCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
            StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.05,
                batch: 16,
                max_samples: 4096,
            },
        ] {
            let plan = MeasurementPlan::new("op").stopping(stopping);
            let mut rng = SimRng::new(7).fork("adapt");
            let vector = plan.run(|| 1.0 + rng.uniform() * 0.2).unwrap();
            let mut rng = SimRng::new(7).fork("adapt");
            let stream = run_stream(&plan, &StreamConfig::default(), || {
                1.0 + rng.uniform() * 0.2
            })
            .unwrap();
            assert!(vector.converged && stream.converged, "{stopping:?}");
            // Exact regime: the stopping decision is bit-identical, so
            // both modes consumed the same number of samples.
            assert!(stream.summary.is_exact());
            assert_eq!(
                stream.samples_seen() as usize,
                vector.samples.len(),
                "{stopping:?}"
            );
        }
    }

    #[test]
    fn million_scale_point_stays_bounded() {
        // One design point, 50k samples with a threshold of 1024: the
        // summary must promote and stay O(sketch), not O(n).
        let plan = fixed_plan(50_000);
        let stream_cfg = StreamConfig {
            threshold: 1024,
            ..StreamConfig::default()
        };
        let mut rng = SimRng::new(3).fork("big");
        let out = run_stream(&plan, &stream_cfg, || rng.uniform()).unwrap();
        assert!(!out.summary.is_exact());
        assert_eq!(out.samples_seen(), 50_000);
        assert!(
            out.summary.resident_bytes() < 50_000 * 8 / 10,
            "resident {} bytes",
            out.summary.resident_bytes()
        );
        let median = out.summary.median().unwrap();
        assert!((median - 0.5).abs() < 0.02, "median {median}");
    }

    #[test]
    fn campaign_partials_are_bit_identical_across_thread_counts() {
        let plan = fixed_plan(500);
        let stream_cfg = StreamConfig {
            threshold: 128,
            ..StreamConfig::default()
        };
        let baseline = run_campaign_stream(
            &demo_design(),
            &plan,
            &stream_cfg,
            &CampaignConfig {
                seed: 11,
                threads: 1,
            },
            demo_measure,
        )
        .unwrap();
        assert_eq!(baseline.runs.len(), 4);
        assert!(baseline.unconverged().is_empty());
        let record = baseline.partials.to_record();
        for threads in [2, 8] {
            let par = run_campaign_stream(
                &demo_design(),
                &plan,
                &stream_cfg,
                &CampaignConfig { seed: 11, threads },
                demo_measure,
            )
            .unwrap();
            assert_eq!(par.partials.to_record(), record, "threads={threads}");
            assert_eq!(par.runs, baseline.runs, "threads={threads}");
        }
    }

    #[test]
    fn sharded_union_matches_unsharded_campaign() {
        let plan = fixed_plan(300);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let config = CampaignConfig {
            seed: 23,
            threads: 2,
        };
        let whole =
            run_campaign_stream(&demo_design(), &plan, &stream_cfg, &config, demo_measure).unwrap();
        let dir =
            std::env::temp_dir().join(format!("scibench-stream-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for shards in [1usize, 2, 4] {
            let parts: Vec<_> = (0..shards)
                .map(|s| {
                    let mine: Vec<usize> = (0..4).filter(|i| i % shards == s).collect();
                    // A fresh journal per shard: every point is measured.
                    let path = dir.join(format!("{shards}-{s}.journal"));
                    let _ = std::fs::remove_file(&path);
                    let spec = JournalSpec {
                        path: &path,
                        code_version: "test",
                        config_fingerprint: "stream",
                    };
                    run_campaign_stream_journaled_subset(
                        &demo_design(),
                        &plan,
                        &stream_cfg,
                        &config,
                        &spec,
                        &mine,
                        demo_measure,
                    )
                    .unwrap()
                    .partials
                })
                .collect();
            let merged = merge_stream_shards(&parts).unwrap();
            assert_eq!(
                merged.to_record(),
                whole.partials.to_record(),
                "shards={shards}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_subset_resumes_sketches_bit_exactly() {
        let dir =
            std::env::temp_dir().join(format!("scibench-stream-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.journal");
        let _ = std::fs::remove_file(&path);
        let plan = fixed_plan(400);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let config = CampaignConfig {
            seed: 5,
            threads: 2,
        };
        let spec = JournalSpec {
            path: &path,
            code_version: "test",
            config_fingerprint: "stream",
        };
        let all = [0usize, 1, 2, 3];
        let first = run_campaign_stream_journaled_subset(
            &demo_design(),
            &plan,
            &stream_cfg,
            &config,
            &spec,
            &all,
            demo_measure,
        )
        .unwrap();
        assert_eq!(first.points_executed, 4);
        assert_eq!(first.points_resumed, 0);
        // Second run must replay all four sketches from the journal —
        // and a panicking measure proves nothing re-executed.
        let second = run_campaign_stream_journaled_subset(
            &demo_design(),
            &plan,
            &stream_cfg,
            &config,
            &spec,
            &all,
            |_, _| panic!("resume must not re-measure"),
        )
        .unwrap();
        assert_eq!(second.points_resumed, 4);
        assert_eq!(second.points_executed, 0);
        assert_eq!(
            second.partials.to_record(),
            first.partials.to_record(),
            "journal replay must be bit-exact"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn subset_runners_reject_duplicate_indices() {
        // `[2, 2]` used to panic inside the runner at threads 1 and 2.
        let plan = fixed_plan(50);
        let stream_cfg = StreamConfig::default();
        let dir =
            std::env::temp_dir().join(format!("scibench-stream-duplicate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.journal");
        let _ = std::fs::remove_file(&path);
        let spec = JournalSpec {
            path: &path,
            code_version: "test",
            config_fingerprint: "stream",
        };
        for threads in [1, 2] {
            let config = CampaignConfig { seed: 3, threads };
            let repeated = run_campaign_stream_journaled_subset(
                &demo_design(),
                &plan,
                &stream_cfg,
                &config,
                &spec,
                &[2, 2],
                demo_measure,
            );
            assert_eq!(
                repeated.unwrap_err(),
                CampaignError::DuplicatePointIndex { index: 2 }
            );
            let journaled = run_campaign_stream_journaled_subset(
                &demo_design(),
                &plan,
                &stream_cfg,
                &config,
                &spec,
                &[0, 2, 2],
                demo_measure,
            );
            assert_eq!(
                journaled.unwrap_err(),
                CampaignError::DuplicatePointIndex { index: 2 }
            );
        }
        assert!(!path.exists());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn lane_fold_reproduces_per_point_summaries() {
        // Each pool lane folds the summaries it measured into its own
        // keyed partials. Every design index is measured by exactly one
        // lane, so the union of the lanes must reproduce the per-point
        // summaries — and the campaign's partials — bit for bit at any
        // thread count.
        let plan = fixed_plan(300);
        let stream_cfg = StreamConfig {
            threshold: 64,
            ..StreamConfig::default()
        };
        let points = demo_design().full_factorial();
        let all: Vec<usize> = (0..points.len()).collect();
        for threads in [1, 2, 8] {
            let config = CampaignConfig { seed: 31, threads };
            let (outcomes, lanes) = run_points(
                &config,
                &all,
                None,
                KeyedPartials::<StreamingSummary>::new,
                |lane, idx, mut rng| {
                    let outcome =
                        run_stream(&plan, &stream_cfg, || demo_measure(&points[idx], &mut rng))?;
                    lane.insert(idx as u64, outcome.summary.clone())?;
                    Ok::<_, StatsError>(outcome)
                },
            )
            .unwrap();
            let mut union = KeyedPartials::new();
            for lane in &lanes {
                union.merge_from(lane).unwrap();
            }
            for (&idx, outcome) in all.iter().zip(&outcomes) {
                assert_eq!(
                    union.get(idx as u64).map(|s| s.to_record()),
                    Some(outcome.summary.to_record()),
                    "threads={threads} design index {idx}"
                );
            }
            let campaign =
                run_campaign_stream(&demo_design(), &plan, &stream_cfg, &config, demo_measure)
                    .unwrap();
            assert_eq!(
                campaign.partials.to_record(),
                union.to_record(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn default_threshold_is_documented_adaptive_boundary() {
        // The adaptive exact/sketch boundary the docs promise.
        assert_eq!(StreamConfig::default().threshold, DEFAULT_STREAM_THRESHOLD);
    }
}
