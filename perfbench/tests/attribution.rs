//! Attribution self-test: a seeded 2× slowdown of sample generation must
//! be flagged on `stream_adaptive` and attributed to `gen.measure_ns`,
//! while `fig5_replay`, which has no measure closure, does not move.
//!
//! Timing assertions need an optimised build:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! The three checks share one test so that nothing else runs beside them.

use std::path::PathBuf;

use scibench_perfbench::fig5::Fig5Replay;
use scibench_perfbench::harness::Metrics;
use scibench_perfbench::stream::StreamAdaptive;
use scibench_perfbench::{run, RunArgs, Workload};
use scibench_trace::parse_json;

const SEED: u64 = 7;
const SECONDS: f64 = 3.0;
/// Interleaved base/changed run pairs per end-to-end comparison.
const PAIRS: usize = 3;

/// The `wall_s` bound declared in `BENCHMARK.json`.
fn wall_bound() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    json.get("end_to_end")
        .and_then(|v| v.as_array())
        .and_then(|metrics| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("wall_s"))
        })
        .and_then(|m| m.get("bound"))
        .and_then(|b| b.as_f64())
        .expect("wall_s has a bound")
}

fn measure<W: Workload>(w: &W, trace: bool) -> Metrics {
    let args = RunArgs {
        seed: SEED,
        seconds: SECONDS,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("attribution"),
    };
    let result = run(w, &args).expect("workload runs");
    assert!(result.correct, "{}: {:?}", w.name(), result.failures);
    result.metrics
}

fn get(m: &Metrics, name: &str) -> f64 {
    m.get(name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
}

/// Median `wall_s` ratio of `b` to `a` over interleaved end-to-end runs,
/// so a slow spell of the host hits both sides alike.
fn wall_ratio<A: Workload, B: Workload>(a: &A, b: &B) -> f64 {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let wall_a = get(&measure(a, false), "wall_s");
            get(&measure(b, false), "wall_s") / wall_a
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIRS / 2]
}

/// A smaller stream campaign, so the test takes seconds, not minutes.
fn stream(measure_repeat: u32) -> StreamAdaptive {
    StreamAdaptive {
        rel_error: 1.5e-3,
        measure_repeat,
    }
}

#[test]
fn doubled_generation_is_flagged_and_attributed() {
    let bound = wall_bound();

    // 1. The slowdown shows end to end.
    let moved = wall_ratio(&stream(1), &stream(2)) - 1.0;
    eprintln!("stream_adaptive wall_s moved {moved:.3} (bound {bound})");
    assert!(
        moved > bound,
        "stream_adaptive wall_s moved {moved:.3}, not beyond the bound {bound}"
    );

    // 2. The traced runs put the added time in sample generation.
    let base = measure(&stream(1), true);
    let slow = measure(&stream(2), true);
    let gen_delta = get(&slow, "gen.measure_ns") - get(&base, "gen.measure_ns");
    eprintln!("gen.measure_ns grew by {gen_delta} ns");
    assert!(
        gen_delta > 0.6 * get(&base, "gen.measure_ns"),
        "gen.measure_ns grew by only {gen_delta} ns"
    );
    for other in ["stop.check_ns", "sketch.quantile_ns", "sketch.merge_ns"] {
        let delta = (get(&slow, other) - get(&base, other)).abs();
        assert!(
            delta < 0.5 * gen_delta,
            "{other} moved {delta} ns against gen.measure_ns {gen_delta} ns"
        );
    }
    let push = |m: &Metrics| get(m, "sketch.push_ns_per_sample") * get(m, "stop.samples_to_stop");
    let push_delta = (push(&slow) - push(&base)).abs();
    assert!(
        push_delta < 0.5 * gen_delta,
        "sketch push moved {push_delta} ns against gen.measure_ns {gen_delta} ns"
    );
    assert_eq!(
        get(&slow, "stop.samples_to_stop"),
        get(&base, "stop.samples_to_stop"),
        "the slowdown must not change what is measured"
    );

    // 3. A workload without a measure closure does not move.
    let fig5 = Fig5Replay { runs: 4000 };
    let drift = (wall_ratio(&fig5, &fig5) - 1.0).abs();
    eprintln!("fig5_replay wall_s drifted {drift:.3}");
    assert!(
        drift < bound,
        "fig5_replay wall_s moved {drift:.3} with nothing changed"
    );
}
