//! Fixed-width table and CSV output for the experiment binaries.

use crate::json::fmt_str;

/// A simple text table: a header row plus data rows, rendered with
/// column-wise padding.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns, a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:>width$}", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as newline-delimited JSON: one object per data row, keyed by
    /// the header. Cells that parse as finite numbers are emitted as JSON
    /// numbers, everything else as strings — so `BENCH_*.json` trajectory
    /// captures need no ad-hoc parsing.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push('{');
            for (c, (key, cell)) in self.header.iter().zip(row).enumerate() {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_str(key));
                out.push(':');
                out.push_str(&json_value(cell));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A cell as a JSON value: a bare number when it parses as one (and is
/// finite — JSON has no inf/nan), otherwise an escaped string. The parsed
/// value is re-serialised through `f64`'s shortest-roundtrip `Display`, so
/// Rust-parseable spellings that JSON forbids ("5.", ".5", "+3", "1e3")
/// still come out as valid JSON numbers.
fn json_value(cell: &str) -> String {
    let numeric_chars = cell
        .chars()
        .all(|c| matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'));
    match cell.parse::<f64>() {
        Ok(x) if x.is_finite() && numeric_chars && !cell.is_empty() => format!("{x}"),
        _ => fmt_str(cell),
    }
}

/// Formats a throughput-style rate (events/second) compactly for table
/// cells: `"8.21M"`, `"453k"`, `"97.3"`.
pub fn fmt_rate(x: f64) -> String {
    if !x.is_finite() {
        return x.to_string();
    }
    if x.abs() >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x.abs() >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x.abs() >= 1e3 {
        format!("{:.0}k", x / 1e3)
    } else {
        fmt_f(x)
    }
}

/// Formats a float with 3 significant-ish decimals for table cells.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["n", "mean"]);
        t.push_row(["16", "1.5"]);
        t.push_row(["1024", "123.4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n'));
        assert!(lines[2].trim_start().starts_with("16"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["x,y", "pl\"ain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"pl\"\"ain\""));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_rejected() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn json_lines_numbers_and_strings() {
        let mut t = TextTable::new(["family", "n", "mean"]);
        t.push_row(["cycle", "16", "1.5"]);
        t.push_row(["we\"ird", "8", "n/a"]);
        let j = t.to_json_lines();
        let lines: Vec<&str> = j.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"family":"cycle","n":16,"mean":1.5}"#);
        assert_eq!(lines[1], r#"{"family":"we\"ird","n":8,"mean":"n/a"}"#);
    }

    #[test]
    fn json_rejects_non_finite_lookalikes() {
        // "inf" and "nan" parse as f64 but are not valid JSON numbers
        assert_eq!(super::json_value("inf"), "\"inf\"");
        assert_eq!(super::json_value("NaN"), "\"NaN\"");
        assert_eq!(super::json_value(""), "\"\"");
        // Rust-parseable but JSON-invalid spellings are normalised
        assert_eq!(super::json_value("1e3"), "1000");
        assert_eq!(super::json_value("5."), "5");
        assert_eq!(super::json_value(".5"), "0.5");
        assert_eq!(super::json_value("+3"), "3");
    }

    #[test]
    fn float_formats() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt_f(56.78), "56.8");
        assert_eq!(fmt_f(1.2345), "1.234");
    }

    #[test]
    fn rate_formats() {
        assert_eq!(fmt_rate(8_210_000.0), "8.21M");
        assert_eq!(fmt_rate(2_500_000_000.0), "2.50G");
        assert_eq!(fmt_rate(453_000.0), "453k");
        assert_eq!(fmt_rate(97.3), "97.3");
        assert_eq!(fmt_rate(0.0), "0");
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(["x"]);
        assert!(t.is_empty());
        t.push_row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
