//! The run's result: metrics by name, operation counts and failed gates,
//! printed as the final JSON line.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    late_max_us: f64,
    setup_s: f64,
    mem_mb: f64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let previous = self.metrics.insert(name, (value, unit));
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(value, _)| value)
    }

    /// Counts `attempted` operations, `failed` of which failed or returned
    /// a wrong answer.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Notes how late an open-loop generator ran, microseconds.
    pub fn late_us(&mut self, late: f64) {
        self.late_max_us = self.late_max_us.max(late);
    }

    /// Adds one path's set-up time and memory growth to the run's
    /// `setup_s` and `mem_mb`.
    pub fn path_cost(&mut self, setup_s: f64, mem_mb: f64) {
        self.setup_s += setup_s;
        self.mem_mb += mem_mb;
    }

    /// Reports the run-wide metrics gathered along the way.
    pub fn finish(&mut self) {
        self.metric("setup_s", self.setup_s, "s");
        self.metric("mem_mb", self.mem_mb, "MB");
        self.metric("gen.late_us.max", self.late_max_us, "us");
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, problem: String) {
        eprintln!("perfbench: FAILED {problem}");
        self.problems.push(problem);
    }

    /// Records a gate: one attempted operation, failed unless `ok`.
    pub fn gate(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.fail(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Keeps exactly the metrics in `names`; a missing or non-finite one is
    /// a failed gate (a metric that cannot be printed as a number).
    pub fn select(
        &mut self,
        names: &[&'static str],
    ) -> BTreeMap<&'static str, (f64, &'static str)> {
        let mut out = BTreeMap::new();
        for &name in names {
            match self.metrics.get(name) {
                Some(&(value, unit)) if value.is_finite() => {
                    out.insert(name, (value, unit));
                }
                Some(_) => self.fail(format!("metric {name} is not a finite number")),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        out
    }

    /// The final JSON line.
    pub fn json(&self, metrics: &BTreeMap<&'static str, (f64, &'static str)>) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.metric("setup_s", 0.5, "s");
        report.ops(10, 0);
        let metrics = report.select(&["setup_s"]);
        assert_eq!(
            report.json(&metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn missing_or_infinite_metrics_fail_the_run() {
        let mut report = Report::default();
        report.metric("a", f64::INFINITY, "s");
        let metrics = report.select(&["a", "b"]);
        assert!(metrics.is_empty());
        assert!(!report.correct());
    }
}
