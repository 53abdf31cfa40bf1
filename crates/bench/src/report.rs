//! Plain-text and CSV emitters shaped like the paper's figures and tables.

use std::fmt::Write as _;

/// One measured series: a label (map name) plus `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "Skip-hash (Two-Path)").
    pub label: String,
    /// Measured points: x is the swept parameter (threads, range length...),
    /// y is the reported metric (Mops/s, pairs/s, aborts...).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure: a title, axis names, and a set of series over a shared x grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. "Figure 5a: 100% lookup").
    pub title: String,
    /// Label of the swept parameter.
    pub x_label: String,
    /// Label of the reported metric.
    pub y_label: String,
    /// All measured series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Append a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// One row per x value (ascending, deduplicated), holding each series'
    /// y at that x, or `None` where the series has no point there.
    fn rows(&self) -> Vec<(f64, Vec<Option<f64>>)> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are finite"));
        xs.dedup();
        xs.into_iter()
            .map(|x| {
                let ys = self.series.iter().map(|series| {
                    let point = series
                        .points
                        .iter()
                        .find(|(px, _)| (px - x).abs() < f64::EPSILON);
                    point.map(|&(_, y)| y)
                });
                (x, ys.collect())
            })
            .collect()
    }

    /// Render as an aligned plain-text table: one row per x value, one column
    /// per series — the same information the paper plots.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "# y-axis: {}", self.y_label);
        let _ = write!(out, "{:>14}", self.x_label);
        for series in &self.series {
            let _ = write!(out, "  {:>28}", series.label);
        }
        out.push('\n');
        for (x, ys) in self.rows() {
            let _ = write!(out, "{x:>14.0}");
            for y in ys {
                let _ = match y {
                    Some(y) if y.is_finite() => write!(out, "  {y:>28.3}"),
                    Some(_) => write!(out, "  {:>28}", "inf"),
                    None => write!(out, "  {:>28}", "-"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = self.x_label.replace(',', ";");
        for series in &self.series {
            let _ = write!(out, ",{}", series.label.replace(',', ";"));
        }
        out.push('\n');
        for (x, ys) in self.rows() {
            let _ = write!(out, "{x}");
            for y in ys {
                out.push(',');
                if let Some(y) = y {
                    let _ = write!(out, "{y}");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut fig = Figure::new("Figure X", "threads", "Mops/s");
        let mut a = Series::new("map-a");
        a.push(1.0, 1.5);
        a.push(2.0, 2.5);
        let mut b = Series::new("map-b");
        b.push(1.0, 0.5);
        fig.add_series(a);
        fig.add_series(b);
        fig
    }

    #[test]
    fn table_contains_all_series_and_points() {
        let table = sample_figure().to_table();
        assert!(table.contains("Figure X"));
        assert!(table.contains("map-a"));
        assert!(table.contains("map-b"));
        assert!(table.contains("1.500"));
        assert!(table.contains("2.500"));
        // Missing point renders as "-".
        assert!(table.contains('-'));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_figure().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "threads,map-a,map-b");
        assert_eq!(lines.next().unwrap(), "1,1.5,0.5");
        assert_eq!(lines.next().unwrap(), "2,2.5,");
    }

    #[test]
    fn infinite_values_render_as_inf() {
        let mut fig = Figure::new("t", "x", "y");
        let mut s = Series::new("s");
        s.push(1.0, f64::INFINITY);
        fig.add_series(s);
        assert!(fig.to_table().contains("inf"));
    }
}
