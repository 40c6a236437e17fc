//! What one run reports: named metrics with units and sample counts,
//! failure accounting, and free-form facts for the results file.

use crate::json::{num, quote};
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: u64,
}

/// The outcome of one run.
#[derive(Default)]
pub struct Outcome {
    /// Reported metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (frames, sessions, connects; or trials).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Facts for the results file (name, JSON value).
    pub facts: Vec<(String, String)>,
    /// Trace lines (spans and counts), when traced.
    pub trace: String,
}

impl Outcome {
    /// Adds metric `name`.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Records a fact whose value is already JSON.
    pub fn fact(&mut self, name: &str, json: String) {
        self.facts.push((name.to_string(), json));
    }

    /// Records a string fact.
    pub fn fact_str(&mut self, name: &str, value: &str) {
        self.fact(name, quote(value));
    }

    /// Folds another outcome's metrics, counts and facts into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.facts.extend(other.facts);
        self.trace.push_str(&other.trace);
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&x.name),
                num(x.value),
                quote(x.unit)
            );
        }
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.attempted, self.failed
        )
    }

    /// The results file: every metric with its sample count, plus facts.
    pub fn results_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {\n");
        for (i, x) in self.metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}{}",
                quote(&x.name),
                num(x.value),
                quote(x.unit),
                x.samples,
                if i + 1 < self.metrics.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {}",
            self.attempted,
            self.failed,
            num(self.error_rate())
        );
        for (k, v) in &self.facts {
            let _ = write!(out, ",\n  {}: {v}", quote(k));
        }
        out.push_str("\n}\n");
        out
    }
}
