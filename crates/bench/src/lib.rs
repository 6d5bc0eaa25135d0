//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the CENT paper (one binary per table or figure, named
//! after it; the README's Quickstart shows how to run them).
//!
//! Each binary prints the paper-style rows to stdout and appends a JSON
//! record under `results/` (formats in `docs/SCHEMAS.md`).

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

/// Paper-vs-measured record for one experiment series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (e.g. "decode throughput, Llama2-70B").
    pub name: String,
    /// X labels (batch sizes, device counts, ...).
    pub x: Vec<String>,
    /// Measured values.
    pub y: Vec<f64>,
    /// Unit of `y`.
    pub unit: String,
}

/// A complete experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id ("fig13", "table4", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper reports for the same quantity (shape/level summary).
    pub paper_reference: String,
    /// Measured series.
    pub series: Vec<Series>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, paper_reference: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            paper_reference: paper_reference.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, name: &str, unit: &str, points: &[(String, f64)]) {
        self.series.push(Series {
            name: name.to_string(),
            x: points.iter().map(|(x, _)| x.clone()).collect(),
            y: points.iter().map(|(_, y)| *y).collect(),
            unit: unit.to_string(),
        });
    }

    /// Prints the report to stdout in a paper-style table and writes
    /// `results/<id>.json`.
    pub fn emit(&self) {
        println!("== {} — {} ==", self.id, self.title);
        println!("   paper: {}", self.paper_reference);
        for s in &self.series {
            println!("   {} [{}]:", s.name, s.unit);
            for (x, y) in s.x.iter().zip(&s.y) {
                println!("     {x:>24}  {y:>14.4}");
            }
        }
        println!();
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.json", self.id));
        let _ = fs::write(path, self.to_json());
    }

    /// Serialises the report as pretty-printed JSON (hand-rolled; the build
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"paper_reference\": {},\n", json_str(&self.paper_reference)));
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_str(&s.name)));
            let xs: Vec<String> = s.x.iter().map(|x| json_str(x)).collect();
            out.push_str(&format!("      \"x\": [{}],\n", xs.join(", ")));
            let ys: Vec<String> = s.y.iter().map(|y| json_f64(*y)).collect();
            out.push_str(&format!("      \"y\": [{}],\n", ys.join(", ")));
            out.push_str(&format!("      \"unit\": {}\n", json_str(&s.unit)));
            out.push_str(if i + 1 < self.series.len() { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string literal with the escapes the report fields can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (JSON has no NaN/Inf; map them to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Where result JSON files land (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// Geometric mean helper used by the speedup figures.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn report_round_trips_to_json() {
        let mut r = Report::new("test", "Test \"quoted\"", "n/a");
        r.push_series("s", "unit", &[("a".into(), 1.0), ("b".into(), 2.0)]);
        let json = r.to_json();
        assert!(json.contains("\"id\": \"test\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("[1, 2]"), "{json}");
    }
}
