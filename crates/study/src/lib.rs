//! # zv-study
//!
//! A *simulated* reproduction of the thesis's Chapter 8 user study.
//! Human participants cannot be reproduced
//! computationally, so this crate keeps the entire **measurement
//! pipeline** real — per-task completion times, double-graded accuracy,
//! one-way ANOVA, Tukey's HSD over the three interfaces, Kendall-τ
//! inter-rater agreement — and substitutes a documented behavioural model
//! for the twelve participants:
//!
//! * **Baseline** (Figure 8.1's tool): visualizations are populated "using
//!   an alpha-numeric sort order"; the simulated user inspects them one by
//!   one, keeps the best-looking so far, and stops when patience runs out
//!   — often "select\[ing\] suboptimal answers before browsing through
//!   the entire list".
//! * **Drag-and-drop**: sketch a pattern (fast), run a *real* zenvisage
//!   similarity query, accept a top result after brief verification.
//! * **Custom query builder**: compose a ZQL table (slow, skill-dependent),
//!   run the same real query, verify carefully → most accurate.
//!
//! The zenvisage interfaces execute genuine ZQL queries against the
//! housing data; only think/compose/inspect times and perception noise
//! are modelled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use zql::{similarity_search, TaskSpec, ZqlEngine};
use zv_analytics::stats::{kendall_tau, one_way_anova, tukey_hsd, Anova, TukeyComparison};
use zv_analytics::Series;
use zv_datagen::housing::{self, HousingConfig};
use zv_storage::BitmapDb;

/// The three interfaces compared in Chapter 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interface {
    Baseline,
    DragAndDrop,
    CustomBuilder,
}

impl Interface {
    pub const ALL: [Interface; 3] = [
        Interface::Baseline,
        Interface::DragAndDrop,
        Interface::CustomBuilder,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Interface::Baseline => "baseline",
            Interface::DragAndDrop => "drag-and-drop",
            Interface::CustomBuilder => "custom-query-builder",
        }
    }
}

/// Study parameters.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    pub participants: usize,
    pub tasks_per_participant: usize,
    pub seed: u64,
    pub housing: HousingConfig,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            participants: 12,
            tasks_per_participant: 4,
            seed: 0x2A,
            housing: HousingConfig {
                rows: 24_000,
                counties: 120,
                cities: 240,
                ..Default::default()
            },
        }
    }
}

/// One simulated participant's latent traits.
#[derive(Clone, Debug)]
struct Participant {
    /// Seconds to inspect one visualization in the baseline tool.
    inspect_time: f64,
    /// Seconds to sketch a pattern in the drawing box.
    sketch_time: f64,
    /// Seconds to compose a ZQL table (lower with programming skill).
    compose_time: f64,
    /// How many visualizations they'll scan before settling (baseline).
    patience: usize,
    /// Std-dev of perceived-quality noise (higher = more mistakes).
    perception_noise: f64,
}

/// Per-interface aggregate results (the numbers behind Findings 1–2).
#[derive(Clone, Debug)]
pub struct InterfaceStats {
    pub interface: Interface,
    pub completion_times: Vec<f64>,
    pub accuracies: Vec<f64>,
}

impl InterfaceStats {
    pub fn mean_time(&self) -> f64 {
        zv_analytics::stats::mean(&self.completion_times)
    }

    pub fn sd_time(&self) -> f64 {
        zv_analytics::stats::std_dev(&self.completion_times)
    }

    pub fn mean_accuracy(&self) -> f64 {
        zv_analytics::stats::mean(&self.accuracies)
    }

    pub fn sd_accuracy(&self) -> f64 {
        zv_analytics::stats::std_dev(&self.accuracies)
    }
}

/// Full study output.
#[derive(Debug)]
pub struct StudyResult {
    pub interfaces: Vec<InterfaceStats>,
    pub anova: Anova,
    /// Table 8.2: pairwise Tukey comparisons on completion time, groups
    /// ordered (drag-and-drop, custom builder, baseline).
    pub tukey: Vec<TukeyComparison>,
    /// Figure 8.2: `(time budget, accuracy per interface)` where the
    /// array is ordered like [`Interface::ALL`].
    pub accuracy_over_time: Vec<(f64, [f64; 3])>,
    /// Kendall's τ between the two simulated graders (thesis: 0.854).
    pub inter_rater_tau: f64,
}

/// Run the simulated study.
pub fn run_study(cfg: &StudyConfig) -> StudyResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let table = housing::generate(&cfg.housing);
    let engine = ZqlEngine::new(Arc::new(BitmapDb::new(table)));
    let spec = TaskSpec::new("year", "sold_price", "county").with_agg(zv_storage::Agg::Avg);

    // The candidate pool the baseline user scans, in alpha-numeric order
    // (like Figure 8.1's tool).
    let counties = engine
        .database()
        .table()
        .column("county")
        .unwrap()
        .distinct_values();

    let participants: Vec<Participant> = (0..cfg.participants)
        .map(|_| Participant {
            inspect_time: rng.gen_range(3.0..7.0),
            sketch_time: rng.gen_range(40.0..70.0),
            compose_time: rng.gen_range(30.0..170.0),
            patience: rng.gen_range(15..45),
            perception_noise: rng.gen_range(0.5..1.5),
        })
        .collect();

    let mut stats: Vec<InterfaceStats> = Interface::ALL
        .iter()
        .map(|&i| InterfaceStats {
            interface: i,
            completion_times: Vec::new(),
            accuracies: Vec::new(),
        })
        .collect();
    let mut grader_a: Vec<f64> = Vec::new();
    let mut grader_b: Vec<f64> = Vec::new();
    let mut traces: Vec<(usize, f64, f64)> = Vec::new(); // (iface slot, time, accuracy)

    for participant in &participants {
        for task in 0..cfg.tasks_per_participant {
            // The task target: the 2008–2012 peak pattern (Figure 6.2's
            // scenario), perturbed per task.
            let target = peak_sketch(task as f64 * 0.13);
            // Ground truth: the real similarity ranking over all counties.
            let ranked = similarity_search(&engine, &spec, &target, counties.len())
                .expect("similarity query");
            let ranking: Vec<String> = ranked
                .visualizations
                .iter()
                .map(|v| {
                    v.label
                        .strip_prefix("county=")
                        .unwrap_or(&v.label)
                        .to_string()
                })
                .collect();
            let rank_of = |county: &str| -> usize {
                ranking
                    .iter()
                    .position(|c| c == county)
                    .unwrap_or(ranking.len())
            };

            for (slot, &iface) in Interface::ALL.iter().enumerate() {
                let (time, answer) = match iface {
                    Interface::Baseline => {
                        simulate_baseline(&mut rng, participant, &counties, &rank_of)
                    }
                    Interface::DragAndDrop => {
                        // sketch + real query latency + verify top results
                        let t = participant.sketch_time
                            + ranked.report.total_time.as_secs_f64()
                            + participant.inspect_time * rng.gen_range(2.0..5.0);
                        // The drawing box "was restricted to identifying
                        // trends similar to a single hand-drawn trend"
                        // (Finding 3) → occasional deeper slips.
                        let slip = rng.gen_range(0.0..1.0);
                        let pick = if slip < 0.50 {
                            0
                        } else if slip < 0.70 {
                            1
                        } else if slip < 0.82 {
                            2
                        } else if slip < 0.90 {
                            3
                        } else {
                            7
                        };
                        (t, ranking[pick.min(ranking.len() - 1)].clone())
                    }
                    Interface::CustomBuilder => {
                        let t = participant.compose_time
                            + ranked.report.total_time.as_secs_f64()
                            + participant.inspect_time * rng.gen_range(1.0..3.0);
                        let pick = if rng.gen_range(0.0..1.0) < 0.85 { 0 } else { 1 };
                        (t, ranking[pick.min(ranking.len() - 1)].clone())
                    }
                };
                // Two graders score the answer by its true rank, with
                // independent jitter, on the thesis's 0–5 scale.
                let rank = rank_of(&answer);
                let true_score = score_for_rank(rank);
                let ga = grade(true_score, rng.gen_range(-0.3..0.3));
                let gb = grade(true_score, rng.gen_range(-0.3..0.3));
                grader_a.push(ga);
                grader_b.push(gb);
                let accuracy = (ga + gb) / 2.0 / 5.0 * 100.0;
                stats[slot].completion_times.push(time);
                stats[slot].accuracies.push(accuracy);
                traces.push((slot, time, accuracy));
            }
        }
    }

    // One completion-time sample per participant per interface feeds the
    // ANOVA/Tukey, as in the thesis (n = 12 per group, df = 33).
    let groups: Vec<Vec<f64>> = (0..3)
        .map(|slot| {
            stats[slot]
                .completion_times
                .chunks(cfg.tasks_per_participant)
                .map(zv_analytics::stats::mean)
                .collect()
        })
        .collect();
    // Order groups as (drag-drop, custom, baseline) to match Table 8.2.
    let ordered = vec![groups[1].clone(), groups[2].clone(), groups[0].clone()];
    let anova = one_way_anova(&ordered);
    let tukey = tukey_hsd(&ordered);

    // Figure 8.2: accuracy attainable within a time budget; a run that
    // hasn't finished by the budget contributes zero.
    let mut accuracy_over_time = Vec::new();
    let mut budget = 0.0f64;
    while budget <= 300.0 {
        let mut acc = [0.0f64; 3];
        let mut n = [0usize; 3];
        for &(slot, time, accuracy) in &traces {
            n[slot] += 1;
            if time <= budget {
                acc[slot] += accuracy;
            }
        }
        for (a, &count) in acc.iter_mut().zip(&n) {
            if count > 0 {
                *a /= count as f64;
            }
        }
        accuracy_over_time.push((budget, acc));
        budget += 15.0;
    }

    let inter_rater_tau = kendall_tau(&grader_a, &grader_b);
    StudyResult {
        interfaces: stats,
        anova,
        tukey,
        accuracy_over_time,
        inter_rater_tau,
    }
}

/// The target pattern: flat, then a 2008–2012 bump, then flat (drawn over
/// years 2004–2015).
pub fn peak_sketch(jitter: f64) -> Series {
    Series::new(
        (0..12)
            .map(|i| {
                let year = 2004 + i;
                let d = (year - 2010) as f64;
                (year as f64, 1.0 + (2.0 + jitter) * (-d * d / 4.0).exp())
            })
            .collect(),
    )
}

/// Baseline scan: inspect candidates in alpha-numeric order, keep the
/// best *perceived* one, stop when patience runs out.
fn simulate_baseline<F: Fn(&str) -> usize>(
    rng: &mut StdRng,
    p: &Participant,
    counties: &[zv_storage::Value],
    rank_of: &F,
) -> (f64, String) {
    let mut alpha: Vec<String> = counties.iter().map(|v| v.to_string()).collect();
    alpha.sort();
    let scanned = p.patience.min(alpha.len());
    let mut best: Option<(f64, String)> = None;
    for county in alpha.iter().take(scanned) {
        let true_quality = score_for_rank(rank_of(county));
        let perceived = true_quality + rng.gen_range(-1.0..1.0) * p.perception_noise * 3.2;
        if best.as_ref().map(|(q, _)| perceived > *q).unwrap_or(true) {
            best = Some((perceived, county.clone()));
        }
    }
    let time = 20.0 + scanned as f64 * p.inspect_time;
    (time, best.map(|(_, c)| c).unwrap_or_default())
}

/// A grader's half-point score: true quality plus perception jitter,
/// rounded to the 0.5 steps human graders use.
fn grade(true_score: f64, jitter: f64) -> f64 {
    ((true_score + jitter) * 2.0).round().clamp(0.0, 10.0) / 2.0
}

/// Expert score (0–5) by rank in the ground-truth similarity order.
fn score_for_rank(rank: usize) -> f64 {
    match rank {
        0 => 5.0,
        1 => 4.5,
        2 => 4.0,
        3 => 3.5,
        4 => 3.0,
        r if r < 10 => 2.0,
        r if r < 20 => 1.0,
        _ => 0.3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> StudyResult {
        run_study(&StudyConfig {
            participants: 12,
            tasks_per_participant: 2,
            housing: HousingConfig {
                rows: 8_000,
                counties: 120,
                cities: 240,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn finding_1_completion_time_ordering() {
        // drag-drop fastest, baseline slowest (Finding 1).
        let r = quick();
        let t = |i: Interface| {
            r.interfaces
                .iter()
                .find(|s| s.interface == i)
                .unwrap()
                .mean_time()
        };
        assert!(t(Interface::DragAndDrop) < t(Interface::CustomBuilder));
        assert!(t(Interface::CustomBuilder) < t(Interface::Baseline));
    }

    #[test]
    fn finding_2_accuracy_ordering() {
        // custom builder most accurate, baseline least (Finding 2).
        let r = quick();
        let a = |i: Interface| {
            r.interfaces
                .iter()
                .find(|s| s.interface == i)
                .unwrap()
                .mean_accuracy()
        };
        assert!(a(Interface::CustomBuilder) > a(Interface::DragAndDrop));
        assert!(a(Interface::DragAndDrop) > a(Interface::Baseline));
        assert!(
            a(Interface::Baseline) > 30.0,
            "baseline still finds something"
        );
    }

    #[test]
    fn table_8_2_significance_pattern() {
        // Both zenvisage interfaces beat the baseline significantly; the
        // two zenvisage interfaces don't differ significantly at 1%.
        let r = quick();
        // groups: 0 = drag-drop, 1 = custom, 2 = baseline
        let find = |a: usize, b: usize| {
            r.tukey
                .iter()
                .find(|c| c.group_a == a && c.group_b == b)
                .unwrap()
        };
        assert!(
            !find(0, 1).significant(0.01),
            "drag-drop vs custom should be n.s. at 1%"
        );
        assert!(
            find(0, 2).significant(0.05),
            "drag-drop vs baseline significant"
        );
        assert!(
            find(1, 2).significant(0.05),
            "custom vs baseline significant"
        );
        assert!(r.anova.p_value < 0.05);
    }

    #[test]
    fn figure_8_2_curves_are_monotone_and_ordered() {
        let r = quick();
        // Accuracy within budget never decreases as the budget grows.
        for w in r.accuracy_over_time.windows(2) {
            for slot in 0..3 {
                assert!(w[1].1[slot] >= w[0].1[slot] - 1e-9);
            }
        }
        // Early budget: drag-drop (slot 1) dominates baseline (slot 0).
        let mid = &r.accuracy_over_time[r.accuracy_over_time.len() / 3];
        assert!(
            mid.1[1] >= mid.1[0],
            "drag-drop should lead early (t={})",
            mid.0
        );
    }

    #[test]
    fn graders_agree_like_the_thesis() {
        // Thesis inter-rater agreement: τ = 0.854.
        let r = quick();
        assert!(
            r.inter_rater_tau > 0.6 && r.inter_rater_tau <= 1.0,
            "τ = {}",
            r.inter_rater_tau
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick();
        let b = quick();
        assert_eq!(
            a.interfaces[0].completion_times,
            b.interfaces[0].completion_times
        );
        assert_eq!(a.inter_rater_tau, b.inter_rater_tau);
    }
}
