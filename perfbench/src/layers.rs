//! Per-layer attribution from a `scibench-trace` trace.
//!
//! The traced reproductions record one span per call into a layer, on a
//! lane per pool worker plus a main lane, with the layer as category
//! (`sim`, `gen`, `sketch`, `stop`, `stats`, `journal`, `shard`). A span
//! nested inside another span of the same lane is its child; a span's
//! self time is its duration minus its children's. Lane time is the pool's
//! wall time on each of its lanes plus the main lane's time outside it, and
//! the share of it no layer span covers is the unattributed residual.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};

use scibench_trace::{category, EventKind, LocalTracer, Trace, TraceEvent};

/// Layer categories of the benchmark's own spans.
pub mod layer {
    /// Simulator: schedule compilation and replay.
    pub const SIM: &str = "sim";
    /// Sample generation: the workload's measure closure.
    pub const GEN: &str = "gen";
    /// Streaming sketches: ingest, quantiles, merges.
    pub const SKETCH: &str = "sketch";
    /// Stopping-rule checks.
    pub const STOP: &str = "stop";
    /// Exact summaries on sample vectors.
    pub const STATS: &str = "stats";
    /// Journal encode, append, sync and load.
    pub const JOURNAL: &str = "journal";
    /// Shard supervision.
    pub const SHARD: &str = "shard";
    /// Every layer category.
    pub const ALL: [&str; 7] = [SIM, GEN, SKETCH, STOP, STATS, JOURNAL, SHARD];
}

/// Lane of the thread that drives a reproduction.
pub const MAIN_LANE: u32 = 1000;

/// Hands out one lane per pool worker, above [`MAIN_LANE`].
#[derive(Debug)]
pub struct LaneIds(AtomicU32);

impl LaneIds {
    /// A fresh allocator.
    pub fn new() -> Self {
        LaneIds(AtomicU32::new(MAIN_LANE + 1))
    }

    /// The next unused lane.
    pub fn next(&self) -> u32 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for LaneIds {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `f` inside a span `cat`/`name` on `lane`.
pub fn span<T>(
    lane: &mut LocalTracer<'_>,
    cat: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = lane.begin();
    let out = f();
    lane.end(start, cat, name, &[]);
    out
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRow {
    /// Spans recorded.
    pub spans: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
}

/// The per-layer table of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerReport {
    /// Layer spans keyed `category.name`.
    pub rows: BTreeMap<String, SpanRow>,
    /// Counter events summed, keyed `category.name`.
    pub counters: BTreeMap<String, f64>,
    /// Pool task spans.
    pub pool_tasks: u64,
    /// Pool steal instants.
    pub pool_steals: u64,
    /// Summed pool task time.
    pub pool_task_ns: u64,
    /// Pool worker lanes.
    pub pool_workers: u64,
    /// Wall time of the pool calls on the main lane.
    pub pool_wall_ns: u64,
    /// Wall time of the whole reproduction on the main lane.
    pub pass_ns: u64,
    /// Lane time covered by a top-level layer span.
    pub covered_ns: u64,
}

/// Category and name of the main-lane span around one reproduction.
pub const PASS_SPAN: (&str, &str) = (category::HARNESS, "pass");
/// Category and name of the main-lane span around each pool call.
pub const POOL_SPAN: (&str, &str) = (category::HARNESS, "pool");

fn key(e: &TraceEvent) -> String {
    format!("{}.{}", e.cat, e.name)
}

impl LayerReport {
    /// Builds the table from a drained trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut report = LayerReport::default();
        let mut by_lane: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &trace.events {
            match (&e.kind, e.cat) {
                (EventKind::Counter { value }, _) => {
                    *report.counters.entry(key(e)).or_insert(0.0) += value;
                }
                (EventKind::Span { dur_ns }, cat) if layer::ALL.contains(&cat) => {
                    let row = report.rows.entry(key(e)).or_default();
                    row.spans += 1;
                    row.total_ns += dur_ns;
                    by_lane.entry(e.lane).or_default().push(e);
                }
                (EventKind::Span { dur_ns }, cat) if cat == category::POOL => {
                    report.pool_tasks += 1;
                    report.pool_task_ns += dur_ns;
                }
                (EventKind::Span { .. }, cat) if cat == category::SCHED => {
                    report.pool_workers += 1;
                }
                (EventKind::Span { dur_ns }, cat) if cat == PASS_SPAN.0 => {
                    if e.name == PASS_SPAN.1 {
                        report.pass_ns += dur_ns;
                    } else if e.name == POOL_SPAN.1 {
                        report.pool_wall_ns += dur_ns;
                    }
                }
                (EventKind::Instant, cat) if cat == category::SCHED && e.name == "steal" => {
                    report.pool_steals += 1;
                }
                _ => {}
            }
        }
        for spans in by_lane.values_mut() {
            // Parents sort before their children: earlier start first,
            // longer span first on ties.
            spans.sort_by_key(|e| (e.t_ns, std::cmp::Reverse(e.dur_ns().unwrap_or(0))));
            let mut stack: Vec<(u64, usize)> = Vec::new(); // (end, index)
            let mut child_ns = vec![0u64; spans.len()];
            for (i, e) in spans.iter().enumerate() {
                let dur = e.dur_ns().unwrap_or(0);
                while stack.last().is_some_and(|&(end, _)| end <= e.t_ns) {
                    stack.pop();
                }
                match stack.last() {
                    Some(&(_, parent)) => child_ns[parent] += dur,
                    None => report.covered_ns += dur,
                }
                stack.push((e.t_ns + dur, i));
            }
            for (e, child) in spans.iter().zip(child_ns) {
                let row = report.rows.get_mut(&key(e)).expect("row inserted above");
                row.self_ns += e.dur_ns().unwrap_or(0).saturating_sub(child);
            }
        }
        report
    }

    /// Summed duration of spans `key`, 0 if none.
    pub fn total_ns(&self, key: &str) -> f64 {
        self.rows.get(key).map_or(0.0, |r| r.total_ns as f64)
    }

    /// Number of spans `key`.
    pub fn spans(&self, key: &str) -> f64 {
        self.rows.get(key).map_or(0.0, |r| r.spans as f64)
    }

    /// Summed counter `key`, 0 if none.
    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Lane time the pool held: its wall time on every worker lane (a
    /// reproduction makes one pool call).
    pub fn pool_capacity_ns(&self) -> u64 {
        self.pool_wall_ns * self.pool_workers
    }

    /// Lane time: the pool's capacity plus main-lane time outside it.
    pub fn lane_time_ns(&self) -> u64 {
        self.pass_ns.saturating_sub(self.pool_wall_ns) + self.pool_capacity_ns()
    }

    /// Share of lane time that no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let lane = self.lane_time_ns() as f64;
        if lane > 0.0 {
            (1.0 - self.covered_ns as f64 / lane).max(0.0)
        } else {
            0.0
        }
    }

    /// The per-layer table as text.
    pub fn render(&self, overhead_frac: f64) -> String {
        let lane = self.lane_time_ns().max(1) as f64;
        let mut out = String::from(
            "span                         count       total_ms        self_ms  self_share\n",
        );
        for (k, r) in &self.rows {
            let _ = writeln!(
                out,
                "{k:<24} {:>9} {:>14.3} {:>14.3} {:>10.4}",
                r.spans,
                r.total_ns as f64 * 1e-6,
                r.self_ns as f64 * 1e-6,
                r.self_ns as f64 / lane
            );
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k:<24} {v}");
        }
        let _ = writeln!(
            out,
            "pool: {} tasks, {} steals, {} lanes, task {:.3} ms, wall {:.3} ms",
            self.pool_tasks,
            self.pool_steals,
            self.pool_workers,
            self.pool_task_ns as f64 * 1e-6,
            self.pool_wall_ns as f64 * 1e-6
        );
        let _ = writeln!(
            out,
            "lane time {:.3} ms, covered {:.3} ms, unattributed {:.4}, trace overhead {:.4}",
            lane * 1e-6,
            self.covered_ns as f64 * 1e-6,
            self.unattributed_frac(),
            overhead_frac
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scibench_trace::Tracer;

    #[test]
    fn lane_time_counts_the_pass_outside_the_pool() {
        let tracer = Tracer::new();
        {
            let mut lane = tracer.lane(MAIN_LANE);
            span(&mut lane, PASS_SPAN.0, PASS_SPAN.1, || {
                span(
                    &mut tracer.lane(MAIN_LANE + 1),
                    layer::SIM,
                    "replay",
                    || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    },
                );
            });
        }
        let report = LayerReport::from_trace(&tracer.drain());
        let replay = report.rows["sim.replay"];
        assert_eq!(replay.spans, 1);
        assert_eq!(replay.self_ns, replay.total_ns);
        assert_eq!(report.lane_time_ns(), report.pass_ns);
        assert!(report.covered_ns <= report.pass_ns);
        assert!(report.unattributed_frac() < 0.5);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let tracer = Tracer::new();
        {
            let mut lane = tracer.lane(MAIN_LANE + 1);
            let outer = lane.begin();
            span(&mut lane, layer::GEN, "measure", || {
                std::thread::sleep(std::time::Duration::from_millis(3));
            });
            lane.end(outer, layer::STOP, "check", &[]);
        }
        let report = LayerReport::from_trace(&tracer.drain());
        let outer = report.rows["stop.check"];
        let inner = report.rows["gen.measure"];
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(report.covered_ns, outer.total_ns);
    }
}
