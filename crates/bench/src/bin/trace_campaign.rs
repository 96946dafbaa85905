//! CI gate for the observability layer: runs a quick measurement
//! campaign twice — untraced and fully traced — and fails (non-zero
//! exit) unless
//!
//! 1. the traced result is **bit-identical** to the untraced one (the
//!    Heisenberg check: observation must not perturb the measurement),
//! 2. the non-schedule event counts are identical across thread counts
//!    (deterministic trace contract),
//! 3. both exports — chrome://tracing JSON and JSONL — pass the schema
//!    validator after a write/read round trip.
//!
//! Usage: `trace_campaign [--out <dir>]` (default `figures`).

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use scibench::experiment::campaign::{run_campaign, run_campaign_scoped_traced, CampaignConfig};
use scibench::experiment::design::{Design, Factor, RunPoint};
use scibench::experiment::measurement::{MeasurementPlan, StoppingRule};
use scibench_sim::rng::SimRng;
use scibench_trace::{
    category, to_chrome_json, to_jsonl, validate_chrome_trace, validate_jsonl, Trace, Tracer,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = match args.as_slice() {
        [] => PathBuf::from("figures"),
        [flag, dir] if flag == "--out" => PathBuf::from(dir),
        other => {
            eprintln!(
                "trace_campaign: unknown arguments {other:?} (usage: trace_campaign [--out <dir>])"
            );
            return ExitCode::from(2);
        }
    };
    match run(&out_dir) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn demo_design() -> Design {
    Design::new(vec![
        Factor::new("system", &["lib-a", "lib-b"]),
        Factor::numeric("size", &[8.0, 64.0, 512.0]),
    ])
}

fn measure(point: &RunPoint, rng: &mut SimRng) -> f64 {
    let base = if point.level(0) == "lib-a" { 1.0 } else { 1.4 };
    let size: f64 = point.level(1).parse().unwrap_or(1.0);
    base + size.ln() * 0.05 + rng.uniform() * 0.1
}

fn campaign_at(
    threads: usize,
    tracer: Option<&Tracer>,
) -> Result<scibench::experiment::campaign::CampaignResult, String> {
    let design = demo_design();
    let plan = MeasurementPlan::new("latency")
        .warmup(3)
        .stopping(StoppingRule::FixedCount(40));
    let config = CampaignConfig { seed: 77, threads };
    run_campaign_scoped_traced(
        &design,
        &plan,
        &config,
        tracer,
        || (),
        |(), point, rng| measure(point, rng),
    )
    .map_err(|e| format!("traced campaign at {threads} threads: {e}"))
}

/// Runs one traced campaign, returning its result and drained trace.
fn traced_at(
    threads: usize,
) -> Result<(scibench::experiment::campaign::CampaignResult, Trace), String> {
    let tracer = Tracer::new();
    let result = campaign_at(threads, Some(&tracer))?;
    Ok((result, tracer.drain()))
}

fn run(out_dir: &PathBuf) -> Result<String, String> {
    let design = demo_design();
    let plan = MeasurementPlan::new("latency")
        .warmup(3)
        .stopping(StoppingRule::FixedCount(40));
    let config = CampaignConfig {
        seed: 77,
        threads: 2,
    };
    let untraced = run_campaign(&design, &plan, &config, measure)
        .map_err(|e| format!("untraced campaign: {e}"))?;

    // 1. Tracing must not perturb the measurement, at any thread count.
    let mut reference: Option<Trace> = None;
    for threads in [1, 2, 8] {
        let (traced, trace) = traced_at(threads)?;
        if traced != untraced {
            return Err(format!(
                "traced campaign at {threads} threads differs from the untraced result"
            ));
        }
        // 2. Deterministic (non-SCHED) event counts across thread counts.
        match &reference {
            None => reference = Some(trace),
            Some(base) => {
                if trace.deterministic_counts() != base.deterministic_counts() {
                    return Err(format!(
                        "non-schedule event counts at {threads} threads differ from 1 thread: {:?} vs {:?}",
                        trace.deterministic_counts(),
                        base.deterministic_counts()
                    ));
                }
            }
        }
    }
    let trace = reference.expect("at least one traced run");
    let points = design.full_factorial().len();
    if trace.count(category::CAMPAIGN) != 2 * points {
        return Err(format!(
            "expected {} campaign events (span + counter per point), found {}",
            2 * points,
            trace.count(category::CAMPAIGN)
        ));
    }

    // 3. Export round trip: write both formats, read back, validate.
    fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut lines = vec![format!(
        "traced campaign bit-identical to untraced at threads 1, 2, 8 ({} events)",
        trace.len()
    )];
    for (name, text, is_jsonl) in [
        ("trace_campaign.json", to_chrome_json(&trace), false),
        ("trace_campaign.jsonl", to_jsonl(&trace), true),
    ] {
        let path = out_dir.join(name);
        fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let back =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let events = if is_jsonl {
            validate_jsonl(&back)
        } else {
            validate_chrome_trace(&back)
        }
        .map_err(|e| format!("{name} failed schema validation: {e}"))?;
        lines.push(format!("{} valid ({events} events)", path.display()));
    }
    Ok(lines.join("\n"))
}
