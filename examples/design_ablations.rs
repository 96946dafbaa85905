//! Design ablations: three design choices DESIGN.md calls out, each
//! switched off against its alternative on fixed seeds.
//!
//! - start synchronization: barrier vs window start skew (§4.2.1);
//! - stopping: fixed-count vs adaptive median-CI sample counts (§4.2.2);
//! - simulator noise: which mechanism shapes which latency statistic.
//!
//! Every printed number is a deterministic function of the seeds below,
//! not a timing. The example exits 1 if a claim EXPERIMENTS.md draws
//! from these numbers fails.
//!
//! Run with: `cargo run --release --example design_ablations`

use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench::sync::{barrier_sync_start, window_sync_start};
use scibench_sim::alloc::{Allocation, AllocationPolicy};
use scibench_sim::drift::ClockEnsemble;
use scibench_sim::machine::MachineSpec;
use scibench_sim::pingpong::{pingpong_latencies_us, PingPongConfig};
use scibench_sim::rng::SimRng;
use scibench_stats::describe::describe;

/// A claim and whether the printed numbers support it.
type Claim = (String, bool);

/// Mean start skew of each scheme over 50 synchronized starts on Piz
/// Daint, at p = 8 and p = 64.
fn sync_schemes() -> Vec<Claim> {
    let machine = MachineSpec::piz_daint();
    let mut claims = Vec::new();
    for p in [8usize, 64] {
        let mut rng = SimRng::new(p as u64);
        let alloc = Allocation::one_rank_per_node(&machine, p, AllocationPolicy::Packed, &mut rng);
        let clocks = ClockEnsemble::sample(p, 10_000.0, 1e-6, &mut rng);
        let mut barrier_skew = 0.0;
        let mut window_skew = 0.0;
        let reps = 50;
        for _ in 0..reps {
            barrier_skew += barrier_sync_start(&machine, &alloc, &mut rng).max_skew_ns();
            window_skew +=
                window_sync_start(&machine, &alloc, &clocks, 1e6, &mut rng).max_skew_ns();
        }
        println!(
            "p={p}: mean start skew barrier {:.0} ns vs window {:.0} ns",
            barrier_skew / reps as f64,
            window_skew / reps as f64
        );
        claims.push((
            format!("p={p}: window skew is below barrier skew"),
            window_skew < barrier_skew,
        ));
    }
    claims
}

/// A 64 B ping-pong latency source: intra-node on a quiet test machine,
/// or across Piz Dora's network.
fn pingpong_source(noisy: bool) -> impl FnMut() -> f64 {
    let machine = if noisy {
        MachineSpec::piz_dora()
    } else {
        MachineSpec::test_machine(4)
    };
    let mut cfg = PingPongConfig::paper_64b(1);
    cfg.warmup_iterations = 0;
    if !noisy {
        cfg.node_b = 1;
    }
    let mut rng = SimRng::new(9);
    move || pingpong_latencies_us(&machine, &cfg, &mut rng)[0]
}

/// Samples a fixed 1000-sample plan and the adaptive 2 % median-CI rule
/// take on quiet and on noisy data.
fn stopping_rules() -> Vec<Claim> {
    let fixed = MeasurementPlan::new("op").stopping(StoppingRule::FixedCount(1_000));
    let adaptive = MeasurementPlan::new("op").stopping(StoppingRule::AdaptiveMedianCi {
        confidence: 0.95,
        rel_error: 0.02,
        batch: 50,
        max_samples: 20_000,
    });
    let mut claims = Vec::new();
    for (label, noisy) in [("quiet", false), ("noisy", true)] {
        let taken =
            |plan: &MeasurementPlan| plan.run(pingpong_source(noisy)).map(|o| o.samples.len());
        let n_fixed = taken(&fixed).expect("fixed plan runs");
        let n_adaptive = taken(&adaptive).expect("adaptive plan runs");
        println!("{label}: fixed takes {n_fixed} samples, adaptive takes {n_adaptive}");
        claims.push((
            format!("{label}: adaptive takes fewer samples than fixed"),
            n_adaptive < n_fixed,
        ));
    }
    claims
}

/// Latency statistics of 20 000 Pilatus ping-pongs with each noise
/// mechanism disabled in turn.
fn noise_sources() -> Vec<Claim> {
    let full = MachineSpec::pilatus();
    let mut no_jitter = full.clone();
    no_jitter.noise.jitter_sigma = 0.0;
    let mut no_slow_path = full.clone();
    no_slow_path.noise.slow_path_prob = 0.0;
    let mut no_congestion = full.clone();
    no_congestion.noise.congestion_prob = 0.0;
    let mut no_daemons = full.clone();
    no_daemons.noise.daemon_period_ns = 0.0;
    let variants = [
        ("full", full),
        ("no_jitter", no_jitter),
        ("no_slow_path", no_slow_path),
        ("no_congestion", no_congestion),
        ("no_daemons", no_daemons),
    ];

    // (median, max) per variant, in `variants` order.
    let mut stats = Vec::new();
    for (name, machine) in &variants {
        let mut cfg = PingPongConfig::paper_64b(20_000);
        cfg.warmup_iterations = 0;
        let mut rng = SimRng::new(77);
        let lat = pingpong_latencies_us(machine, &cfg, &mut rng);
        let d = describe(&lat).expect("20 000 finite latencies");
        println!(
            "{name:<14} median {:.3} us  mean {:.3}  max {:.2}  skew {:.2}",
            d.five_number.median,
            d.mean,
            d.five_number.max,
            d.skewness.unwrap_or(f64::NAN)
        );
        stats.push((d.five_number.median, d.five_number.max));
    }
    let (full, no_slow_path, no_congestion) = (stats[0], stats[2], stats[3]);
    vec![
        (
            "no_slow_path lowers the median against full".to_owned(),
            no_slow_path.0 < full.0,
        ),
        (
            "no_congestion lowers the max against full".to_owned(),
            no_congestion.1 < full.1,
        ),
    ]
}

fn main() {
    println!("start synchronization (Piz Daint, 50 starts per scheme)");
    let mut claims = sync_schemes();
    println!("\nstopping rules (64 B ping-pong, 2 % median CI at 95 %)");
    claims.extend(stopping_rules());
    println!("\nnoise sources (Pilatus, 20 000 ping-pongs, seed 77)");
    claims.extend(noise_sources());

    println!("\nclaims:");
    let mut failed = 0;
    for (claim, holds) in &claims {
        println!("  {} {claim}", if *holds { "holds:" } else { "FAILS:" });
        failed += usize::from(!holds);
    }
    if failed > 0 {
        eprintln!("{failed} of {} ablation claims failed", claims.len());
        std::process::exit(1);
    }
}
