//! The measuring loop shared by every workload: untimed set-up, timed
//! passes for a fixed wall-clock budget, medians, peak memory, the
//! result line and the Rule-9 run record.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use scibench_trace::export::json_escape;

/// Counts one timed pass produced, for `samples_per_s` and `error_rate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Measurements that entered a statistic.
    pub samples: u64,
    /// Operations attempted (design points or process counts).
    pub operations: u64,
    /// Operations that failed or were abandoned after retries.
    pub failed: u64,
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Ordered collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Human-readable table, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<28} {:>18} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A finite number in JSON form, all digits kept (`null` if not finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// A list of numbers in JSON form.
pub fn json_numbers(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", items.join(", "))
}

/// A string in JSON form.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Runs `f` and returns its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Whether a measuring loop that started at `start` with budget
/// `seconds` should run another pass (`done` passes so far).
pub fn keep_going(start: Instant, seconds: f64, done: usize, min_passes: usize) -> bool {
    done < min_passes || start.elapsed() < Duration::from_secs_f64(seconds)
}

/// Peak resident set of this process in kB (`VmHWM`), 0 if unreadable.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Pool lanes the workloads run on: the host's parallelism, capped at 8 —
/// the rule `fig5_reduce::compute` applies, so every workload and every
/// reproduction uses the lane count of the Figure 5 pipeline.
pub fn lanes() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host and toolchain context of a run (Rule 9).
pub fn context_json() -> String {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \"os\": {}}}",
        json_string(&cpu_model()),
        json_string(&command_output(&rustc, &["-V"])),
        json_string(&command_output("git", &["rev-parse", "HEAD"])),
        json_string(std::env::consts::OS),
    )
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("wall_s", "s", 1.25);
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
