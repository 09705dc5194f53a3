//! Console table rendering for experiment output.

use puffer_probe::json::{escape_into, number_into};

/// A simple left-aligned console table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep: String =
            widths.iter().map(|w| format!("+{}", "-".repeat(w + 2))).collect::<String>() + "+\n";
        out.push_str(&sep);
        out.push('|');
        for (h, w) in self.headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Appends the table as a JSON object: its `columns`, and its `rows` as
    /// objects keyed by column — a cell that is a finite number becomes a
    /// JSON number, anything else (`1.50x`, `0.12 ± 0.01`) stays a string.
    pub fn json_into(&self, out: &mut String) {
        out.push_str("{\"columns\":[");
        comma_separated(out, &self.headers, |out, h| escape_into(out, h));
        out.push_str("],\"rows\":[");
        comma_separated(out, &self.rows, |out, row| {
            out.push('{');
            let cells: Vec<(&String, &String)> = self.headers.iter().zip(row).collect();
            comma_separated(out, &cells, |out, (h, cell)| {
                escape_into(out, h);
                out.push(':');
                match cell.parse::<f64>() {
                    Ok(v) if v.is_finite() => number_into(out, v),
                    _ => escape_into(out, cell),
                }
            });
            out.push('}');
        });
        out.push_str("]}");
    }
}

/// Appends `each(item)` for every item, with a `,` between two.
pub(crate) fn comma_separated<T>(
    out: &mut String,
    items: &[T],
    mut each: impl FnMut(&mut String, &T),
) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
}

/// Formats a count with thousands separators (`12,345,678`), matching the
/// paper's tables.
pub fn commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "2"]);
        let s = t.render();
        assert!(s.contains("| name      |"));
        assert!(s.contains("| long-name | 2"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains("| x |"));
    }

    #[test]
    fn commas_grouping() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1_000), "1,000");
        assert_eq!(commas(20_560_330), "20,560,330");
    }
}
