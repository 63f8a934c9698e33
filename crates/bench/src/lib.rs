//! # fresca-bench — figure/table harness and micro-benches
//!
//! Shared harness for the figure/table reproduction binaries.
//!
//! Each `src/bin/figN.rs` regenerates one artifact of the paper's
//! evaluation: it runs the exact workloads and policies, renders the
//! series as an aligned text table (the repo's "figures" are tables of
//! the plotted series), and writes machine-readable JSON next to it under
//! `results/`. EXPERIMENTS.md records a paper-vs-measured comparison for
//! every artifact.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod evict;

use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Run independent jobs on scoped threads and collect results in input
/// order. The figure binaries use this to run policies/workloads in
/// parallel — every job is deterministic on its own, so parallelism
/// cannot change any result, only the wall-clock.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|job| s.spawn(job)).collect();
        handles.into_iter().map(|h| h.join().expect("bench job panicked")).collect()
    })
}

/// Directory where binaries drop their JSON series.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("FRESCA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serialize `value` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize results");
    std::fs::write(&path, json).expect("write results");
    eprintln!("[saved {}]", path.display());
}

/// Minimal aligned-column table renderer for figure series.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append one row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with right-aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float in compact scientific-ish notation for table cells.
pub fn fmt_sig(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.2e}")
    } else {
        format!("{v:.3}")
    }
}

/// Format a ratio as a percentage cell.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.2}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_sig(12345.0), "1.23e4");
        assert_eq!(fmt_sig(0.5), "0.500");
        assert_eq!(fmt_pct(0.1234), "12.34%");
    }
}
