//! Terminal rendering of visualizations. The thesis front-end maps
//! results through Vega-lite (§6.1); a library has no browser, so the
//! examples render ASCII charts instead.

use crate::exec::OutputViz;
use zv_analytics::Series;

/// Render a series as a fixed-size ASCII line/area chart.
pub fn ascii_chart(series: &Series, title: &str, width: usize, height: usize) -> String {
    let width = width.max(8);
    let height = height.max(3);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if series.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let ys = series.resample(width);
    let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut grid = vec![vec![' '; width]; height];
    for (col, &y) in ys.iter().enumerate() {
        let level = (((y - lo) / span) * (height as f64 - 1.0)).round() as usize;
        let row = height - 1 - level.min(height - 1);
        grid[row][col] = '*';
    }
    let label_w = 10;
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{hi:>label_w$.1}")
        } else if r == height - 1 {
            format!("{lo:>label_w$.1}")
        } else {
            " ".repeat(label_w)
        };
        out.push_str(&label);
        out.push_str(" |");
        out.extend(row.iter());
        out.push('\n');
    }
    let x0 = series.points().first().map(|p| p.0).unwrap_or(0.0);
    let x1 = series.points().last().map(|p| p.0).unwrap_or(0.0);
    out.push_str(&format!("{:label_w$} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:label_w$}  {x0:<.0}{:>pad$.0}\n",
        "",
        x1,
        pad = width - 1
    ));
    out
}

/// Render a bar chart of labelled values.
pub fn ascii_bars(items: &[(String, f64)], title: &str, width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if items.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let max = items
        .iter()
        .map(|(_, v)| v.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_w = items
        .iter()
        .map(|(l, _)| l.len())
        .max()
        .unwrap_or(0)
        .min(24);
    for (label, value) in items {
        let bars = ((value.abs() / max) * width as f64).round() as usize;
        let mut l = label.clone();
        l.truncate(label_w);
        out.push_str(&format!(
            "  {l:<label_w$} |{} {value:.1}\n",
            (if *value >= 0.0 { "#" } else { "-" }).repeat(bars)
        ));
    }
    out
}

/// One-line summary of an output visualization.
pub fn describe(viz: &OutputViz) -> String {
    let label = if viz.label.is_empty() {
        "(all data)".to_string()
    } else {
        viz.label.clone()
    };
    format!(
        "[{}] {} vs {} — {} ({} points)",
        viz.component,
        viz.y,
        viz.x,
        label,
        viz.series.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_dimensions_and_extremes() {
        let s = Series::from_ys(&[0.0, 5.0, 10.0]);
        let chart = ascii_chart(&s, "demo", 30, 8);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0], "demo");
        assert_eq!(lines.len(), 1 + 8 + 2);
        assert!(
            lines[1].contains("10.0"),
            "max label on top row: {}",
            lines[1]
        );
        assert!(
            lines[8].contains("0.0"),
            "min label on bottom row: {}",
            lines[8]
        );
        // rising line: first column marked near the bottom, last near top
        assert!(lines[8].contains('*'));
        assert!(lines[1].contains('*'));
    }

    #[test]
    fn empty_series_is_handled() {
        let chart = ascii_chart(&Series::default(), "empty", 20, 5);
        assert!(chart.contains("(no data)"));
        assert!(ascii_bars(&[], "none", 10).contains("(no data)"));
    }

    #[test]
    fn bars_scale_to_max() {
        let items = vec![
            ("a".to_string(), 10.0),
            ("b".to_string(), 5.0),
            ("c".to_string(), -2.5),
        ];
        let s = ascii_bars(&items, "t", 20);
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str, ch: char| l.chars().filter(|&c| c == ch).count();
        assert_eq!(count(lines[1], '#'), 20);
        assert_eq!(count(lines[2], '#'), 10);
        assert_eq!(count(lines[3], '-'), 5 + 1); // bar plus the sign in -2.5
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let s = Series::from_ys(&[3.0, 3.0, 3.0]);
        let chart = ascii_chart(&s, "flat", 10, 4);
        assert!(chart.contains('*'));
    }
}
