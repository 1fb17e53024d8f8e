//! Plain-text tables for the figure/table harnesses.
//!
//! Every experiment binary prints the same rows the paper reports; this
//! module keeps the formatting consistent (fixed-width, aligned columns)
//! and serializable for the `--json` output mode.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for i in 0..ncols {
                if i > 0 {
                    s.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                // Right-align numeric-looking cells, left-align the rest.
                if cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
                {
                    s.push_str(&" ".repeat(pad));
                    s.push_str(cell);
                } else {
                    s.push_str(cell);
                    s.push_str(&" ".repeat(pad));
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Format a float with `prec` decimals (helper for table rows).
pub fn fnum(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["procs", "mean µs", "note"]);
        t.row(&["64".into(), "211.0".into(), "ok".into()]);
        t.row(&["1936".into(), "1520.7".into(), "long tail".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("procs"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Numeric column right-aligned: both rows end at same column for col 0.
        assert!(lines[3].starts_with("  64") || lines[3].contains("64"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.17159, 2), "3.17");
        assert_eq!(fnum(1520.666, 1), "1520.7");
    }

    #[test]
    fn table_len() {
        let mut t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        t.row(&["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
