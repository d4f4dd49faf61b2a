//! Report rendering: aligned text tables and CSV emission.
//!
//! Every figure and table of the `paper` bench prints a human-readable
//! table to stdout and writes the same data as CSV under
//! `target/experiments/` for plotting.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                let _ = write!(line, " {:<w$} ", cells[i], w = widths[i]);
                if i + 1 < ncols {
                    line.push('|');
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints a figure banner, the table, and writes `<name>.csv`.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!();
    println!("=== {name}: {title} ===");
    println!("{}", table.render());
    let path = experiments_dir().join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[csv written to {}]", path.display());
    }
}

/// Writes `BENCH_<name>.json` under the experiments directory: a flat map
/// of perf metrics (simulator self-throughput in events/sec, host elapsed
/// seconds, …) so the perf trajectory of the simulator itself is tracked
/// across PRs alongside the experiment CSVs.
pub fn emit_bench_json(name: &str, metrics: &[(String, f64)]) {
    let mut body = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        // Keys are internal identifiers; escape quotes defensively anyway.
        let key = k.replace('\\', "\\\\").replace('"', "\\\"");
        let val = if v.is_finite() { *v } else { 0.0 };
        let _ = writeln!(body, "  \"{key}\": {val}{comma}");
    }
    body.push('}');
    body.push('\n');
    let path = experiments_dir().join(format!("BENCH_{name}.json"));
    if let Err(e) = fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[bench json written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_valid_flat_map() {
        emit_bench_json(
            "report_selftest",
            &[
                ("events_per_sec".to_string(), 1234.5),
                ("elapsed_s".to_string(), 0.25),
                ("nan_guard".to_string(), f64::NAN),
            ],
        );
        let path = experiments_dir().join("BENCH_report_selftest.json");
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\n"));
        assert!(body.trim_end().ends_with('}'));
        assert!(body.contains("\"events_per_sec\": 1234.5,"));
        assert!(body.contains("\"nan_guard\": 0"));
        // No trailing comma before the closing brace.
        assert!(!body.contains(",\n}"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1.00"]);
        t.row(vec!["longer-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // All data lines have the same separator position.
        let p1 = lines[2].find('|').unwrap();
        let p2 = lines[3].find('|').unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
