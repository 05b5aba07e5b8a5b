//! What one benchmark run prints: human-readable evidence lines, one line
//! per metric with its unit, and the machine-readable JSON result as the
//! last line of standard output.

use crate::stats::{self, Share};
use crate::sys;
use std::time::Instant;

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The repeated set-ups of one run. `setup_s` is the median of their
/// process CPU times: set-up runs on the client thread alone, so on an idle
/// machine its CPU time is its wall time, and unlike wall time it does not
/// grow when the host takes the CPU away. Wall times are noted beside them.
#[derive(Debug, Default)]
pub struct SetupTimes {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupTimes {
    /// Run one set-up and record its times.
    pub fn measure<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let cpu0 = sys::cpu_time();
        let t0 = Instant::now();
        let made = setup();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s.push((sys::cpu_time() - cpu0).as_secs_f64());
        made
    }

    /// Report `setup_s`, noting every repeat and `detail`.
    pub fn report(&self, detail: &str, out: &mut Output) {
        out.notes.push(format!(
            "setup_s: median cpu of {} set-ups {:?} (wall {:?}){detail}",
            self.cpu_s.len(),
            self.cpu_s,
            self.wall_s
        ));
        out.metric("setup_s", stats::median(&self.cpu_s), "s");
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Output {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Evidence printed before the metrics: sample counts, bases of
    /// shares, budget-ended queries and every failure.
    pub notes: Vec<String>,
}

impl Output {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a share as a metric (0 for an empty base) and note its base.
    pub fn share(&mut self, name: &'static str, share: Share) {
        self.notes.push(format!("{name}: {share}"));
        self.metric(name, share.value().unwrap_or(0.0), "share");
    }

    /// `request_cpu_p50_ms`, and `request_cpu_tail_ms` at the workload's
    /// tail percentile `per_mille`, over per-request process CPU times. The
    /// wall-clock latencies of the same requests are noted, not reported:
    /// they move with the share of the host the machine gets.
    pub fn requests(&mut self, cpu_ms: &[f64], wall_ms: &[f64], per_mille: usize) {
        let (tail, which) = stats::tail_or_max(cpu_ms, per_mille);
        let (wall_tail, _) = stats::tail_or_max(wall_ms, per_mille);
        self.notes.push(format!("request_cpu_tail_ms is {which}"));
        self.notes.push(format!(
            "wall-clock latency: p50 {:.4} ms, same tail {wall_tail:.4} ms",
            stats::p50(wall_ms)
        ));
        self.metric("request_cpu_p50_ms", stats::p50(cpu_ms), "ms");
        self.metric("request_cpu_tail_ms", tail, "ms");
    }

    /// Count `attempted` checked operations, `failed` of which failed.
    pub fn check(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Count one checked operation, failing with `message` unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.check(1, usize::from(!ok));
        if !ok {
            self.notes.push(format!("FAILED: {}", message()));
        }
    }

    /// The run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the evidence, the metric table and the JSON result line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        println!("# failed_share: {}", Share { part: self.failed, base: self.attempted });
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut out = Output::default();
        out.metric("setup_s", 0.8127, "s");
        out.share("certified_share", Share { part: 3, base: 4 });
        out.check(5, 0);
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"certified_share\": {\"value\": 0.75, \"unit\": \"share\"}}}"
        );
        assert_eq!(out.notes, vec!["certified_share: 0.750000 (3 of 4)".to_owned()]);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Output::default();
        out.expect(true, || unreachable!());
        assert!(out.correct());
        out.expect(false, || "verdict changed".to_owned());
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.notes, vec!["FAILED: verdict changed".to_owned()]);
    }

    #[test]
    fn request_metrics_are_cpu_times_and_wall_times_are_noted() {
        let mut out = Output::default();
        let cpu: Vec<f64> = (1..=40).map(f64::from).collect();
        let wall: Vec<f64> = cpu.iter().map(|c| c * 10.0).collect();
        out.requests(&cpu, &wall, 900);
        let values: Vec<(&str, f64)> = out.metrics.iter().map(|m| (m.name, m.value)).collect();
        // p90 of 40 calls has 4 beyond it, so the tail falls back to p75.
        assert_eq!(values, vec![("request_cpu_p50_ms", 20.0), ("request_cpu_tail_ms", 30.0)]);
        assert_eq!(
            out.notes,
            vec![
                "request_cpu_tail_ms is p75 of 40 samples (10 beyond it)".to_owned(),
                "wall-clock latency: p50 200.0000 ms, same tail 300.0000 ms".to_owned(),
            ]
        );
    }

    #[test]
    fn setup_s_is_the_median_cpu_time() {
        let times = SetupTimes { cpu_s: vec![0.3, 0.1, 0.2], wall_s: vec![0.9, 0.1, 0.2] };
        let mut out = Output::default();
        times.report("; detail", &mut out);
        assert_eq!(out.metrics[0].name, "setup_s");
        assert_eq!(out.metrics[0].value, 0.2);
        assert!(out.notes[0].ends_with("(wall [0.9, 0.1, 0.2]); detail"), "{}", out.notes[0]);
        let mut measured = SetupTimes::default();
        assert_eq!(measured.measure(|| 7), 7);
        assert_eq!((measured.cpu_s.len(), measured.wall_s.len()), (1, 1));
    }

    #[test]
    fn nothing_checked_is_not_correct() {
        assert!(!Output::default().correct());
    }
}
