//! Aligned text tables and CSV rendering for the bench binaries.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-justified (labels).
    Left,
    /// Right-justified (numbers).
    Right,
}

/// A simple text table that renders either aligned monospace output (the
/// default, mirroring the paper's tables) or CSV.
///
/// ```
/// use mpil_workload::Table;
/// let mut t = Table::new(vec!["n".into(), "success %".into()]);
/// t.row(vec!["4000".into(), "99.1".into()]);
/// let text = t.render();
/// assert!(text.contains("4000"));
/// assert_eq!(t.render_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers. All columns default
    /// to right alignment except the first.
    pub fn new(headers: Vec<String>) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            headers,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when no data rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned monospace table with a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                match self.aligns[i] {
                    Align::Left => {
                        let _ = write!(out, "{cell:<width$}", width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{cell:>width$}", width = widths[i]);
                    }
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') || c.contains('\n') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "100".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        // Numbers are right-aligned under "value".
        assert!(lines[2].ends_with("1.5"));
        assert!(lines[3].ends_with("100"));
        // Left column is left-aligned.
        assert!(lines[2].starts_with("alpha"));
        assert!(lines[3].starts_with("b"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["only".into()]);
        t.row(vec!["a".into(), "b".into()]);
    }

    /// Precision is the caller's: a cell renders exactly as formatted.
    #[test]
    fn fmt_f64_controls_precision() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec![format!("{:.2}", 1.23456)]);
        t.row(vec![format!("{:.0}", 2.0)]);
        assert_eq!(t.render_csv(), "x\n1.23\n2\n");
    }

    #[test]
    fn len_and_empty() {
        let t = Table::new(vec!["h".into()]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }
}
