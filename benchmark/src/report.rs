//! What one run prints: a readable report, then the result line.

use crate::stats::valid_metric_name;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
    /// How the value was formed (statistic, percentile, base).
    pub how: String,
}

/// Operations of one phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub phases: Vec<Phase>,
    /// Informational lines (host stamp, checks, quality, spans).
    pub notes: Vec<String>,
    /// Failed consistency checks that are not counted operations.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        how: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            how: how.into(),
        });
    }

    /// Records a phase; `failed` operations count against correctness.
    pub fn phase(&mut self, name: &'static str, sent: usize, failed: usize) {
        self.phases.push(Phase {
            name,
            sent,
            ok: sent - failed,
            failed,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Metric-level defects that make the result unusable.
    fn metric_problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_metric_name(m.name) {
                out.push(format!("invalid metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                out.push(format!("metric {} is not finite", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                out.push(format!("metric {} reported twice", m.name));
            }
        }
        out
    }

    /// Prints the readable report, then the result line last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for p in &self.phases {
            println!(
                "phase {}: sent {}, succeeded {}, failed {}",
                p.name, p.sent, p.ok, p.failed
            );
        }
        for m in &self.metrics {
            println!(
                "metric {} = {} {} (samples {}; {})",
                m.name, m.value, m.unit, m.samples, m.how
            );
        }
        let mut problems = self.problems.clone();
        problems.extend(self.metric_problems());
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        let correct = problems.is_empty() && self.failed() == 0 && self.attempted() > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                // `{:?}` is Rust's shortest round-trip form of the value:
                // every digit, and valid JSON for a finite number.
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        );
    }
}
