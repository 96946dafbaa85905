//! Criterion benches of the measurement harness itself: how much the
//! bookkeeping (timer reads, adaptive CI checks, Welford accumulation)
//! costs relative to a bare loop — LibSciBench's "low-overhead data
//! collection" claim, quantified.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scibench::experiment::campaign::{run_campaign, run_campaign_scoped_traced, CampaignConfig};
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench_sim::rng::SimRng;
use scibench_stats::summary::OnlineMoments;
use scibench_timer::clock::{Clock, WallClock};
use scibench_timer::watch::{MultiEventTimer, Stopwatch};
use scibench_trace::{category, Tracer};

fn work() -> f64 {
    let mut acc = 0u64;
    for i in 0..64u64 {
        acc = acc.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15));
    }
    (acc & 0xFF) as f64
}

fn bench_bare_vs_harness(c: &mut Criterion) {
    let mut g = c.benchmark_group("harness_overhead");
    g.bench_function("bare_loop_100", |b| {
        b.iter(|| {
            let mut sink = 0.0;
            for _ in 0..100 {
                sink += work();
            }
            black_box(sink)
        })
    });
    g.bench_function("fixed_plan_100", |b| {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(100));
        b.iter(|| plan.run(|| black_box(work())).unwrap())
    });
    g.bench_function("adaptive_median_plan", |b| {
        let plan = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMedianCi {
            confidence: 0.95,
            rel_error: 0.05,
            batch: 25,
            max_samples: 2_000,
        });
        b.iter(|| plan.run(|| black_box(work())).unwrap())
    });
    g.finish();
}

fn bench_timer_reads(c: &mut Criterion) {
    let clock = WallClock::new();
    let mut g = c.benchmark_group("timer");
    g.bench_function("clock_read", |b| b.iter(|| black_box(clock.now_ns())));
    g.bench_function("stopwatch_cycle", |b| {
        b.iter(|| {
            let mut sw = Stopwatch::new();
            sw.start(&clock);
            black_box(work());
            sw.stop(&clock)
        })
    });
    g.bench_function("multi_event_k16_blocks4", |b| {
        let timer = MultiEventTimer::new(16);
        b.iter(|| {
            timer.measure(&clock, 4, || {
                black_box(work());
            })
        })
    });
    g.finish();
}

fn bench_accumulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("accumulation");
    g.bench_function("welford_push_1000", |b| {
        b.iter(|| {
            let mut m = OnlineMoments::new();
            for i in 0..1000 {
                m.push(black_box(i as f64));
            }
            m
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Tracing overhead: the Heisenberg gate plus the raw record cost.
// ---------------------------------------------------------------------

fn trace_design() -> Design {
    Design::new(vec![
        Factor::new("system", &["a", "b"]),
        Factor::numeric("size", &[8.0, 64.0]),
    ])
}

fn trace_measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "a" { 1.0 } else { 1.3 };
    base + rng.uniform() * 0.2
}

fn trace_plan() -> MeasurementPlan {
    MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(60))
}

fn median_of(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    if n.is_multiple_of(2) {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    } else {
        v[n / 2]
    }
}

/// Regression gate: per-point campaign medians under full tracing must
/// stay within 1% of the untraced medians. The determinism contract
/// (tracing never touches RNG streams or sample values) makes the
/// perturbation exactly zero, so the gate asserts bit-equality first —
/// any relaxation of the contract trips the 1% check before drifting.
fn assert_tracing_unperturbed() {
    let config = CampaignConfig {
        seed: 2015,
        threads: 4,
    };
    let plain = run_campaign(&trace_design(), &trace_plan(), &config, trace_measure)
        .expect("untraced campaign");
    let tracer = Tracer::new();
    let traced = run_campaign_scoped_traced(
        &trace_design(),
        &trace_plan(),
        &config,
        Some(&tracer),
        || (),
        |(), point, rng| trace_measure(point, rng),
    )
    .expect("traced campaign");
    assert_eq!(
        plain, traced,
        "tracing perturbed the campaign result (must be bit-identical)"
    );
    for (p, t) in plain.runs.iter().zip(&traced.runs) {
        let mp = median_of(&p.outcome.samples);
        let mt = median_of(&t.outcome.samples);
        let rel = ((mt - mp) / mp).abs();
        assert!(
            rel < 0.01,
            "traced median {mt} deviates {rel:.4} (>1%) from untraced {mp}"
        );
    }
    let trace = tracer.drain();
    assert!(
        trace.count(category::CAMPAIGN) > 0,
        "traced campaign recorded no campaign events"
    );
}

fn bench_tracing(c: &mut Criterion) {
    assert_tracing_unperturbed();
    let mut g = c.benchmark_group("tracing");
    g.bench_function("campaign_untraced", |b| {
        let config = CampaignConfig {
            seed: 2015,
            threads: 1,
        };
        b.iter(|| run_campaign(&trace_design(), &trace_plan(), &config, trace_measure).unwrap())
    });
    g.bench_function("campaign_traced", |b| {
        let config = CampaignConfig {
            seed: 2015,
            threads: 1,
        };
        b.iter(|| {
            let tracer = Tracer::new();
            let r = run_campaign_scoped_traced(
                &trace_design(),
                &trace_plan(),
                &config,
                Some(&tracer),
                || (),
                |(), point, rng| trace_measure(point, rng),
            )
            .unwrap();
            black_box((r, tracer.drain()))
        })
    });
    g.bench_function("record_instant", |b| {
        let tracer = Tracer::new();
        let mut lane = tracer.lane(0);
        b.iter(|| lane.instant(category::HARNESS, "probe", &[]))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_bare_vs_harness,
    bench_timer_reads,
    bench_accumulation,
    bench_tracing
);
criterion_main!(benches);
