//! Table printing and JSON result persistence for the experiments.

use std::path::PathBuf;

/// A simple fixed-width table printer (stdout), matching the row/column
/// shape of the paper's tables.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout under a `=== title ===` line.
    pub fn print(&self, title: &str) {
        print!("\n=== {title} ===\n{}", self.render());
    }
}

/// Formats a float with 3 fraction digits ("-" for NaN).
pub fn f3(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        format!("{x:.3}")
    }
}

/// Formats a duration in seconds with adaptive precision (matching the
/// paper's mixed-magnitude time tables).
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.1}")
    } else if x >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

/// Writes a JSON value to `results/<name>.json` under the current directory
/// (created on demand). Returns the path written.
pub fn write_json(name: &str, value: &serde_json::Value) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all("results")?;
    let path = PathBuf::from(format!("results/{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value).expect("a Value serializes"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "2.345"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f3(f64::NAN), "-");
        assert_eq!(secs(123.456), "123.5");
        assert_eq!(secs(0.5), "0.5000");
        assert!(secs(1e-5).contains('e'));
    }
}
