//! What one benchmark run hands back: named values with units, the
//! attempted/failed counts, and every verification failure.

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises, where that is meaningful.
    pub samples: Option<u64>,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Submits attempted in the timed phase.
    pub attempted: u64,
    /// Submits shed, answered with an error, acknowledged later than the
    /// backlog limit, or never reported completed.
    pub failed: u64,
    /// Verification failures; the run is `correct` only when empty.
    pub problems: Vec<String>,
    /// Free-form diagnostics printed as `# ...` lines (per-window
    /// values behind the medians).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
