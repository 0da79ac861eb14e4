//! The table type and cell formatters shared by the `experiments` binary
//! (one module per experiment under `src/bin/experiments/`) and read back
//! by `bench_gate`, plus the crawl snapshot the baseline engines take.
//! Scenario construction lives in `qb_load::scenario`.

#![forbid(unsafe_code)]

use qb_baseline::CrawlDoc;
use qb_workload::Corpus;
use std::collections::HashMap;
use std::fmt::Display;

/// Snapshot the corpus as crawl documents for the baselines, with per-page
/// versions and texts overridden by `versions` (version 1 / original text
/// when absent).
pub fn crawl_docs(corpus: &Corpus, versions: &HashMap<String, (u64, String)>) -> Vec<CrawlDoc> {
    corpus
        .pages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (version, text) = versions.get(&p.name).cloned().unwrap_or((1, p.text()));
            CrawlDoc {
                name: p.name.clone(),
                version,
                creator: corpus.creators[i],
                text,
            }
        })
        .collect()
}

/// A simple fixed-width text table used for every experiment's output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row, one cell per header.
    ///
    /// # Panics
    /// When the cell count differs from the header count: `to_json` keys
    /// cells by header, so a short or long row would silently drop data.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "table '{}': a row needs one cell per header",
            self.title
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, &width)| format!("{c:width$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Rows as JSON objects keyed by header, in header order (for
    /// machine-readable output).
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let mut obj = serde_json::Map::new();
                for (h, c) in self.headers.iter().zip(row) {
                    obj.insert(h.clone(), serde_json::Value::String(c.clone()));
                }
                serde_json::Value::Object(obj)
            })
            .collect();
        serde_json::json!({ "title": self.title, "rows": rows })
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 4 decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// `before / after` as a reduction factor ("3.2x").
pub fn ratio_x(before: f64, after: f64) -> String {
    format!("{:.1}x", before / after.max(1e-9))
}

/// [`ratio_x`] of two counts; a zero `after` counts as one.
pub fn count_ratio_x(before: u64, after: u64) -> String {
    ratio_x(before as f64, after.max(1) as f64)
}

/// The drop from `before` to `after` as a signed percentage ("-41.7%").
pub fn pct_drop(before: u64, after: u64) -> String {
    format!(
        "-{:.1}%",
        100.0 * (1.0 - after as f64 / before.max(1) as f64)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "longheader"]);
        t.row(&[&"1", &"2"]);
        t.row(&[&"333333", &4]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("longheader"));
        assert_eq!(s.lines().count(), 6);
        let json = t.to_json();
        assert_eq!(json["rows"].as_array().unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "table 'two columns'")]
    fn a_row_of_the_wrong_arity_panics_with_the_table_title() {
        let mut t = Table::new("two columns", &["a", "b"]);
        t.row(&[&1, &2, &3]);
    }

    #[test]
    fn to_json_keeps_header_order() {
        let mut t = Table::new("order", &["zeta", "alpha", "mid"]);
        t.row(&[&1, &2, &3]);
        let text = serde_json::to_string(&t.to_json()).unwrap();
        let at = |key: &str| text.find(key).unwrap_or_else(|| panic!("{key} in {text}"));
        assert!(at("\"zeta\"") < at("\"alpha\"") && at("\"alpha\"") < at("\"mid\""));
    }

    #[test]
    fn corpus_and_engine_helpers_work_together() {
        use qb_load::scenario::{corpus, publish_all, sized};
        let corpus = corpus(1, 10, 80);
        let mut engine = qb_queenbee::QueenBee::new(sized(20, 3, 1)).expect("valid preset");
        let accepted = publish_all(&mut engine, &corpus, 0..17).expect("publish");
        assert!(
            accepted >= 8,
            "most generated pages should be accepted, got {accepted}"
        );
        let docs = crawl_docs(&corpus, &HashMap::new());
        assert_eq!(docs.len(), 10);
    }

    #[test]
    fn reduction_cells_keep_the_table_formats() {
        assert_eq!(ratio_x(9.0, 3.0), "3.0x");
        assert_eq!(count_ratio_x(7, 0), "7.0x");
        assert_eq!(pct_drop(200, 50), "-75.0%");
    }
}
