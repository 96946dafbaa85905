//! Golden pins: absolute-output oracles for the campaign runners.
//!
//! The bit-identity proptests compare runs against each other (threads,
//! shards, resume); these tests pin the exact output of fixed seeds, so a
//! refactor of the execution engine that changes any sample, stopping
//! decision, fate or sketch record fails here even if it changes every
//! run the same way. Each digest is an FNV-1a fold over exact bits.

use scibench::experiment::campaign::{run_campaign, CampaignConfig, CampaignResult};
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::journal::result_digest;
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::experiment::resilience::{run_campaign_resilient, MeasureFailure, RetryPolicy};
use scibench::experiment::stream::run_campaign_stream;
use scibench_sim::fault::{FaultContext, FaultPlan};
use scibench_sim::machine::MachineSpec;
use scibench_sim::network::NetworkModel;
use scibench_sim::rng::SimRng;
use scibench_stats::sketch::StreamConfig;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a vector campaign: levels, warmup and sample bits, and the
/// convergence flag of every run, in design order.
fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut h = FNV_OFFSET;
    for run in &result.runs {
        for level in &run.point.levels {
            h = fnv1a(h, level.as_bytes());
            h = fnv1a(h, &[0]);
        }
        h = fnv1a(h, &(run.outcome.warmup_samples.len() as u64).to_le_bytes());
        for x in &run.outcome.warmup_samples {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &(run.outcome.samples.len() as u64).to_le_bytes());
        for x in &run.outcome.samples {
            h = fnv1a(h, &x.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &[u8::from(run.outcome.converged)]);
    }
    h
}

fn design() -> Design {
    Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0, 512.0]),
    ])
}

fn measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "a" { 1.0 } else { 2.0 };
    let size: f64 = point.level(1).parse().expect("numeric level");
    base + size * 0.001 + rng.lognormal(0.0, 0.3) * 0.05
}

fn stopping_rules() -> [(StoppingRule, u64); 3] {
    [
        (StoppingRule::FixedCount(40), 0xbd90_abf3_63e5_36d7),
        (
            StoppingRule::AdaptiveMeanCi {
                confidence: 0.95,
                rel_error: 0.002,
                batch: 8,
                max_samples: 200,
            },
            0x1927_46d8_465f_b115,
        ),
        (
            StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.002,
                batch: 16,
                max_samples: 400,
            },
            0x390d_78c3_b6a0_f859,
        ),
    ]
}

#[test]
fn vector_campaign_is_pinned_under_every_stopping_rule() {
    for (stopping, pinned) in stopping_rules() {
        let plan = MeasurementPlan::new("op").warmup(2).stopping(stopping);
        for threads in [1, 2] {
            let result = run_campaign(
                &design(),
                &plan,
                &CampaignConfig { seed: 17, threads },
                measure,
            )
            .unwrap();
            assert_eq!(
                campaign_digest(&result),
                pinned,
                "{stopping:?} threads={threads}"
            );
        }
    }
}

#[test]
fn fault_injected_resilient_campaign_is_pinned() {
    let machine = MachineSpec::piz_dora();
    let net = NetworkModel::new(&machine);
    let faults = FaultPlan::with_failure_rate(0.6);
    let plan = MeasurementPlan::new("pingpong")
        .warmup(1)
        .stopping(StoppingRule::FixedCount(60));
    let bytes_design = Design::new(vec![Factor::numeric("bytes", &[64.0, 4096.0, 65536.0])]);
    for threads in [1, 2] {
        let result = run_campaign_resilient(
            &bytes_design,
            &plan,
            &CampaignConfig { seed: 42, threads },
            &RetryPolicy::default().attempts(3).contamination(0.02),
            |point, rng| {
                let bytes = point.level(0).parse::<f64>().expect("numeric level") as usize;
                let ctx_seed = (rng.uniform() * (1u64 << 53) as f64) as u64;
                let mut ctx = FaultContext::new(&faults, machine.nodes, &SimRng::new(ctx_seed));
                ctx.advance(rng.uniform() * 2.0 * faults.crash_window_ns);
                let ping = net.transfer_faulty_ns(0, 1, bytes, &mut ctx, rng)?;
                if bytes == 4096 && rng.uniform() < 0.02 {
                    return Err(MeasureFailure::Failed("flaky driver".into()));
                }
                let pong = net.transfer_faulty_ns(1, 0, bytes, &mut ctx, rng)?;
                Ok(ping + pong)
            },
        )
        .unwrap();
        assert!(
            !result.health.pristine(),
            "faults must fire: {:?}",
            result.health
        );
        assert_eq!(
            result_digest(&result),
            0x8988_b2bf_1963_0778,
            "threads={threads} {:?}",
            result.health
        );
    }
}

#[test]
fn stream_campaign_partials_are_pinned() {
    let stream_cfg = StreamConfig {
        threshold: 256,
        ..StreamConfig::default()
    };
    let cases: [(StoppingRule, u64); 2] = [
        (StoppingRule::FixedCount(3_000), 0xa442_a540_32f4_68e6),
        (
            StoppingRule::AdaptiveMedianCi {
                confidence: 0.95,
                rel_error: 0.001,
                batch: 64,
                max_samples: 20_000,
            },
            0x448c_caa3_7076_06fd,
        ),
    ];
    for (stopping, pinned) in cases {
        let plan = MeasurementPlan::new("op").warmup(3).stopping(stopping);
        for threads in [1, 2] {
            let campaign = run_campaign_stream(
                &design(),
                &plan,
                &stream_cfg,
                &CampaignConfig { seed: 29, threads },
                measure,
            )
            .unwrap();
            let mut h = fnv1a(FNV_OFFSET, campaign.partials.to_record().as_bytes());
            for run in &campaign.runs {
                h = fnv1a(h, &[u8::from(run.outcome.converged)]);
                h = fnv1a(h, &run.outcome.samples_seen().to_le_bytes());
            }
            assert_eq!(h, pinned, "{stopping:?} threads={threads}");
        }
    }
}
