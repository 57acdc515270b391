//! Shared infrastructure for the GenDPR experiment harness.
//!
//! Every table and figure of the paper's evaluation (Section 7) has a
//! binary in `src/bin/` that regenerates it. This library holds what they
//! share: the paper-shaped workload builder, a fixed-width table printer
//! and a tiny CLI argument parser.
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table 3 (resource utilization)   | `cargo run -p gendpr-bench --bin table3 --release` |
//! | Figure 5 (running time, 1k SNPs) | `cargo run -p gendpr-bench --bin fig5 --release` |
//! | Figure 6 (running time, 10k SNPs)| `cargo run -p gendpr-bench --bin fig6 --release` |
//! | Table 4 (correctness)            | `cargo run -p gendpr-bench --bin table4 --release` |
//! | Table 5 (collusion tolerance)    | `cargo run -p gendpr-bench --bin table5 --release` |
//! | Design ablations                 | `cargo run -p gendpr-bench --bin ablation --release` |
//!
//! All binaries accept `--scale <f>` (default 0.25) to shrink the paper's
//! 27,895-genome / 10,000-SNP workloads proportionally, and `--full` as a
//! shorthand for `--scale 1.0`.

pub mod figures;
pub mod workload;

use std::fmt::Write as _;

/// The paper's case-population sizes (phs001039.v1.p1 has 14,860 cases;
/// half of them is the second evaluation setting).
pub const PAPER_CASES_FULL: usize = 14_860;
/// Half the case population, the paper's smaller setting.
pub const PAPER_CASES_HALF: usize = 7_430;
/// The control population (used as LR-test reference).
pub const PAPER_CONTROLS: usize = 13_035;

/// CLI options shared by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchArgs {
    /// Workload scale factor in `(0, 1]`.
    pub scale: f64,
    /// Number of repetitions to average over (the paper uses 5).
    pub repetitions: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: 0.25,
            repetitions: 1,
        }
    }
}

impl BenchArgs {
    /// Parses `--scale <f>`, `--full`, `--reps <n>` from the process args.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn from_env() -> Self {
        let mut out = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    let v: f64 = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale needs a number in (0, 1]");
                    assert!(v > 0.0 && v <= 1.0, "--scale must be in (0, 1]");
                    out.scale = v;
                }
                "--full" => out.scale = 1.0,
                "--reps" => {
                    i += 1;
                    out.repetitions = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--reps needs a positive integer");
                    assert!(out.repetitions > 0, "--reps must be positive");
                }
                other => panic!("unknown argument {other}; use --scale <f> | --full | --reps <n>"),
            }
            i += 1;
        }
        out
    }

    /// Applies the scale to a paper-sized quantity (at least 1).
    #[must_use]
    pub fn scaled(&self, paper_value: usize) -> usize {
        ((paper_value as f64 * self.scale).round() as usize).max(1)
    }
}

/// A minimal fixed-width text table, printed like the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (w, cell) in widths.iter().zip(cells.iter()) {
                let _ = write!(out, "| {cell:<w$} ");
            }
            out.push_str("|\n");
        };
        write_row(&mut out, &self.headers);
        for (w, i) in widths.iter().zip(0..) {
            let _ = write!(out, "|{}", "-".repeat(w + 2));
            if i + 1 == widths.len() {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a [`std::time::Duration`] as fractional milliseconds.
#[must_use]
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_rounds_and_floors_at_one() {
        let args = BenchArgs {
            scale: 0.25,
            repetitions: 1,
        };
        assert_eq!(args.scaled(10_000), 2_500);
        assert_eq!(args.scaled(2), 1);
        assert_eq!(args.scaled(1), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["config", "value"]);
        t.row(vec!["2 GDOs", "1"]);
        t.row(vec!["a-longer-config", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("a-longer-config"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(std::time::Duration::from_millis(1500)), "1500.0");
    }
}
