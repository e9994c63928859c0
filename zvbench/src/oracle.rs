//! The answer oracle: every checked op is re-answered by a path that
//! shares no code with the one being measured beyond the stored rows —
//! raw serial `ScanDb::execute` for ZQL ops, a brute-force ranking from
//! `zv_analytics` calls for search ops — and compared to float
//! tolerance (a parallel or delta-merged sum legitimately reassociates;
//! anything past 1e-9 relative is a wrong answer).

use zv_analytics::{representative, series_distance, DistanceKind, Normalize, Series};
use zv_server::proto::VizTable;
use zv_storage::{Database, GroupSeries, ResultTable, ScanDb, Value};

use crate::ops::Expect;

const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One visualization as the harness saw it, wherever it came from.
pub struct Seen<'a> {
    pub component: &'a str,
    pub label: &'a str,
    pub points: Vec<(f64, f64)>,
}

pub fn seen_of_output(out: &zql::ZqlOutput) -> Vec<Seen<'_>> {
    out.visualizations
        .iter()
        .map(|v| Seen {
            component: &v.component,
            label: &v.label,
            points: v.series.points().to_vec(),
        })
        .collect()
}

pub fn seen_of_wire(tables: &[VizTable]) -> Vec<Seen<'_>> {
    tables
        .iter()
        .map(|t| Seen {
            component: &t.component,
            label: &t.label,
            points: t.table.groups.first().map_or(Vec::new(), |g| g.points(0)),
        })
        .collect()
}

/// The series a group renders as: numeric x as-is, categorical x by
/// position.
fn group_points(g: &GroupSeries) -> Vec<(f64, f64)> {
    let numeric = g.points(0);
    if numeric.len() == g.xs.len() {
        numeric
    } else {
        g.ys[0]
            .iter()
            .enumerate()
            .map(|(i, &y)| (i as f64, y))
            .collect()
    }
}

/// Same x values exactly, y values to tolerance.
pub fn same_points(got: &[(f64, f64)], want: &[(f64, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && close(g.1, w.1))
}

/// `"location=UK"` → the group key `[Str("UK")]`; `""` → `[]`.
fn key_of_label(label: &str) -> Vec<Value> {
    label
        .split(", ")
        .filter(|s| !s.is_empty())
        .map(|kv| Value::str(kv.split_once('=').map_or(kv, |(_, v)| v)))
        .collect()
}

/// Check an explore-style answer against the oracle engine: every
/// expected component is present, with one visualization per group the
/// serial scan finds (slices the scan finds empty must be empty), and
/// nothing else.
pub fn check_explore(seen: &[Seen<'_>], expects: &[Expect], oracle: &ScanDb) -> Result<(), String> {
    let mut matched = 0usize;
    for e in expects {
        let truth: ResultTable = oracle.execute(&e.query).map_err(|e| e.to_string())?;
        let mine: Vec<&Seen<'_>> = seen.iter().filter(|s| s.component == e.component).collect();
        if mine.is_empty() {
            return Err(format!("component {} missing from the answer", e.component));
        }
        let mut groups_hit = 0usize;
        for s in &mine {
            let want = match truth.group(&key_of_label(s.label)) {
                Some(g) => {
                    groups_hit += 1;
                    group_points(g)
                }
                None => Vec::new(),
            };
            if !same_points(&s.points, &want) {
                return Err(format!(
                    "{} [{}]: got {} points, oracle {} — first got {:?}, oracle {:?}",
                    e.component,
                    s.label,
                    s.points.len(),
                    want.len(),
                    s.points.first(),
                    want.first()
                ));
            }
        }
        if groups_hit != truth.groups.len() {
            return Err(format!(
                "{}: answer covers {groups_hit} of the oracle's {} groups",
                e.component,
                truth.groups.len()
            ));
        }
        matched += mine.len();
    }
    if matched != seen.len() {
        return Err(format!(
            "answer has {} visualizations, {matched} expected",
            seen.len()
        ));
    }
    Ok(())
}

/// The candidate set behind a search op, computed once by the oracle:
/// one series per slice value, in the order the table enumerates them.
pub struct Candidates {
    pub labels: Vec<String>,
    pub series: Vec<Series>,
}

impl Candidates {
    /// `SELECT x, SUM(y), z GROUP BY z, x` by raw serial scan.
    pub fn load(oracle: &ScanDb, x: &str, y: &str, z: &str) -> Result<Candidates, String> {
        use zv_storage::{SelectQuery, XSpec, YSpec};
        let q = SelectQuery::new(XSpec::raw(x), vec![YSpec::sum(y)]).with_z(z);
        let truth = oracle.execute(&q).map_err(|e| e.to_string())?;
        let index = truth.index();
        let table = oracle.table();
        let values = table
            .column(z)
            .map_err(|e| e.to_string())?
            .distinct_values();
        let (mut labels, mut series) = (Vec::new(), Vec::new());
        for v in values {
            labels.push(format!("{z}={v}"));
            series.push(match index.get(std::slice::from_ref(&v)) {
                Some(&gi) => Series::new(group_points(&truth.groups[gi])),
                None => Series::default(),
            });
        }
        Ok(Candidates { labels, series })
    }

    fn distance(a: &Series, b: &Series) -> f64 {
        series_distance(DistanceKind::Euclidean, Normalize::ZScore, a, b)
    }

    /// Brute force: score every candidate, full sort, take `k`.
    fn top_k(&self, scores: &[f64], k: usize, ascending: bool) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        if ascending {
            idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        } else {
            idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        }
        idx.truncate(k);
        idx
    }

    pub fn similarity(&self, sketch: &Series, k: usize) -> (Vec<usize>, Vec<f64>) {
        let scores: Vec<f64> = self
            .series
            .iter()
            .map(|s| Self::distance(sketch, s))
            .collect();
        (self.top_k(&scores, k, true), scores)
    }

    pub fn representatives(&self, k: usize) -> Vec<usize> {
        representative::representatives(&representative::embed(&self.series), k, 0)
    }

    pub fn outliers(&self, k_reps: usize, k: usize) -> (Vec<usize>, Vec<f64>) {
        let reps = self.representatives(k_reps);
        let scores: Vec<f64> = self
            .series
            .iter()
            .map(|s| {
                reps.iter()
                    .map(|&r| Self::distance(s, &self.series[r]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        (self.top_k(&scores, k, false), scores)
    }

    /// A ranked answer is right when it names the brute-force top-k in
    /// order — or, where scores tie to tolerance, any slices with those
    /// same scores.
    pub fn check_ranked(
        &self,
        got_labels: &[&str],
        want: &[usize],
        scores: &[f64],
    ) -> Result<(), String> {
        if got_labels.len() != want.len() {
            return Err(format!(
                "answer has {} slices, brute force {}",
                got_labels.len(),
                want.len()
            ));
        }
        for (rank, (label, &w)) in got_labels.iter().zip(want).enumerate() {
            let g = self
                .labels
                .iter()
                .position(|l| l == label)
                .ok_or_else(|| format!("unknown slice {label}"))?;
            if g != w && !close(scores[g], scores[w]) {
                return Err(format!(
                    "rank {rank}: got {label} (score {}), brute force {} (score {})",
                    scores[g], self.labels[w], scores[w]
                ));
            }
        }
        Ok(())
    }

    /// A representative set is right when it is the set direct k-means
    /// over the same embedded candidates picks.
    pub fn check_set(&self, got_labels: &[&str], want: &[usize]) -> Result<(), String> {
        let mut got: Vec<&str> = got_labels.to_vec();
        let mut exp: Vec<&str> = want.iter().map(|&i| self.labels[i].as_str()).collect();
        got.sort_unstable();
        exp.sort_unstable();
        if got == exp {
            Ok(())
        } else {
            Err(format!("representatives {got:?}, direct k-means {exp:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_group_keys() {
        assert_eq!(key_of_label(""), Vec::<Value>::new());
        assert_eq!(key_of_label("location=UK"), vec![Value::str("UK")]);
        assert_eq!(
            key_of_label("product=chair, location=US"),
            vec![Value::str("chair"), Value::str("US")]
        );
    }

    #[test]
    fn tolerance_is_relative_and_tight() {
        assert!(close(1e12, 1e12 + 100.0));
        assert!(!close(1e12, 1e12 + 10_000.0));
        assert!(close(0.0, 1e-10));
        assert!(same_points(&[(1.0, 2.0)], &[(1.0, 2.0 + 1e-12)]));
        assert!(!same_points(&[(1.0, 2.0)], &[(1.5, 2.0)]));
        assert!(!same_points(&[(1.0, 2.0)], &[]));
    }
}
