//! # fdi-bench — experiment harness utilities
//!
//! Shared infrastructure for the experiment binaries (`src/bin/exp_*`),
//! which regenerate every figure and complexity claim of the paper (see
//! [`experiments`] for the experiment index): aligned table printing,
//! median timing, and growth-factor estimation.
//!
//! Serving performance is measured end to end by the separate
//! `bench_e2e` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::time::{Duration, Instant};

/// A simple aligned-column table printer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // right-align numeric-looking cells, left-align the rest
                let numeric = cell
                    .chars()
                    .all(|c| c.is_ascii_digit() || ".eE+-×%usnm".contains(c))
                    && !cell.is_empty()
                    && cell.chars().any(|c| c.is_ascii_digit());
                if numeric {
                    for _ in cell.len()..widths[i] {
                        out.push(' ');
                    }
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    for _ in cell.len()..widths[i] {
                        out.push(' ');
                    }
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }

    /// Prints to stdout (buffered, locked).
    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = lock.write_all(self.render().as_bytes());
        let _ = lock.write_all(b"\n");
    }
}

/// Runs `f` once for warmup and `repeats` times for measurement;
/// returns the median duration.
pub fn median_time<F: FnMut()>(repeats: usize, mut f: F) -> Duration {
    f(); // warmup
    let mut samples: Vec<Duration> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 10_000 {
        format!("{nanos}ns")
    } else if nanos < 10_000_000 {
        format!("{:.1}us", nanos as f64 / 1_000.0)
    } else if nanos < 10_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// The doubling growth factor `t(2n)/t(n)` between consecutive sweep
/// points, as a rough empirical complexity read-out: ~2 for linear or
/// `n log n`, ~4 for quadratic, ~8 for cubic.
pub fn growth_factors(times: &[Duration]) -> Vec<f64> {
    times
        .windows(2)
        .map(|w| {
            let a = w[0].as_secs_f64();
            let b = w[1].as_secs_f64();
            if a > 0.0 {
                b / a
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Renders a growth factor as e.g. `×2.10`.
pub fn fmt_factor(f: f64) -> String {
    if f.is_nan() {
        "-".to_string()
    } else {
        format!("×{f:.2}")
    }
}

/// A standard experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["n", "time", "note"]);
        t.row(["8", "1.0ms", "fast"]);
        t.row(["1024", "12.5ms", "ok"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[2].contains("   8"),
            "numeric right-aligned: {:?}",
            lines[2]
        );
        assert!(lines[3].starts_with("1024"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with('s'));
    }

    #[test]
    fn growth_factor_math() {
        let times = [
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(80),
        ];
        let f = growth_factors(&times);
        assert!((f[0] - 2.0).abs() < 1e-9);
        assert!((f[1] - 4.0).abs() < 1e-9);
        assert_eq!(fmt_factor(f[0]), "×2.00");
        assert_eq!(fmt_factor(f64::NAN), "-");
    }
}
pub mod experiments;
