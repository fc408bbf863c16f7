//! What one run prints: named metrics with units, exact work counts, output
//! checks, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: BTreeMap<String, Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: BTreeMap<String, Metric>,
    /// Work counts that repeat exactly for a seed, with how they were
    /// obtained ("counted" or "computed").
    pub counts: BTreeMap<String, (u64, &'static str)>,
    /// Raw samples behind the medians, printed for inspection.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations run (passes, requests, steps).
    pub attempted: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.insert(name.to_string(), Metric { value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.insert(name.to_string(), Metric { value, unit });
    }

    pub fn count(&mut self, name: &str, value: u64, how: &'static str) {
        self.counts.insert(name.to_string(), (value, how));
    }

    pub fn samples(&mut self, name: &str, values: &[f64]) {
        self.samples.insert(name.to_string(), values.to_vec());
    }

    /// Adds every work count as a `count.*` per-layer metric.
    pub fn counts_as_layers(&mut self) {
        for (name, (value, _)) in &self.counts {
            let unit = if name.contains("bytes") {
                "B"
            } else if name.contains("macs") {
                "MAC"
            } else {
                "count"
            };
            self.per_layer.insert(format!("count.{name}"), Metric { value: *value as f64, unit });
        }
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.1).count() as u64
    }

    /// The human-readable body printed before the result line.
    pub fn body(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# output checks");
        for (name, passed, detail) in &self.checks {
            let _ =
                writeln!(out, "#   {:<4} {name}: {detail}", if *passed { "ok" } else { "FAIL" });
        }
        let _ = writeln!(out, "# work counts (deterministic for the seed)");
        for (name, (value, how)) in &self.counts {
            let _ = writeln!(out, "#   {name} = {value} ({how})");
        }
        let _ = writeln!(out, "# samples behind the medians");
        for (name, values) in &self.samples {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            let _ = writeln!(out, "#   {name}: [{}]", shown.join(", "));
        }
        let _ = writeln!(out, "# end-to-end metrics");
        for (name, m) in &self.end_to_end {
            let _ = writeln!(out, "#   {name} = {} {}", m.value, m.unit);
        }
        if !self.per_layer.is_empty() {
            let _ = writeln!(out, "# per-layer metrics");
            for (name, m) in &self.per_layer {
                let _ = writeln!(out, "#   {name} = {} {}", m.value, m.unit);
            }
        }
        out
    }

    /// The result line: every end-to-end metric, or every per-layer metric
    /// when `traced`. A non-finite value is a bug in the benchmark and fails
    /// the run rather than printing an invalid number.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let mut body = Vec::with_capacity(metrics.len());
        for (name, m) in metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({})", m.value));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted.max(1),
            self.failed(),
            body.join(", ")
        ))
    }
}

/// FNV-1a fold of 64-bit words, the digest used by the determinism checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }
}
