//! The seeded op streams over the sales table: ZQL text for the program
//! under test, plus — generated independently, never parsed back from
//! that text — the grouped-aggregate each output visualization must
//! equal, for the oracle.

use zv_datagen::sales::location_name;
use zv_storage::{Atom, CmpOp, Predicate, SelectQuery, XSpec, YSpec};

use crate::rng::{mix, Rng, Zipf};

/// What one output component of an op must show.
#[derive(Clone, Debug)]
pub struct Expect {
    pub component: &'static str,
    pub query: SelectQuery,
}

#[derive(Clone, Debug)]
pub struct ExploreOp {
    pub text: String,
    pub expects: Vec<Expect>,
}

/// The four exploration gestures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    /// Slider drag: yearly sales per location above a threshold.
    Slider,
    /// Per-product bars under a location filter.
    Bars,
    /// Per-city profit under a year filter.
    City,
    /// Two-row compare (thesis Table 5.2 shape): US against another
    /// location at one threshold — two SQL queries, one request.
    Compare,
}

use Template::*;

/// Fixed 8-op cycle, so every run has exactly the same template mix and
/// the reported percentiles fall *inside* a template's latency cluster
/// (p50 in `Bars`, p95 in `Slider`) rather than on a boundary between
/// two.
pub const CYCLE: [Template; 8] = [Bars, Slider, City, Bars, Compare, City, Bars, Slider];

/// Constants are drawn from a 2^27-point grid.
const GRID: u64 = 1 << 27;
/// Warm-up ops take stream indices from here up: half a period away, so
/// their constants meet the window's (indices from 0) only after 2^26
/// ops.
pub const WARMUP_BASE: u64 = GRID / 2;

fn gt(col: &str, value: f64) -> Predicate {
    Predicate::atom(Atom::NumCmp {
        col: col.into(),
        op: CmpOp::Gt,
        value,
    })
}

fn sum_by(x: &str, y: &str, pred: Predicate) -> SelectQuery {
    SelectQuery::new(XSpec::raw(x), vec![YSpec::sum(y)]).with_predicate(pred)
}

/// Build one op from a template, a grid constant `c` and auxiliary bits
/// (location / year choice).
pub fn explore_op(template: Template, c: u64, aux: u64) -> ExploreOp {
    // Dyadic fractions: the decimal text the program parses and the f64
    // the oracle uses are the same number, exactly. The ranges sit
    // below every product's typical sales and profit, so a threshold
    // changes which rows count but not the shape of the answer — ops of
    // one template cost alike, whatever the seed drew.
    let sales_t = 20.0 + (c % GRID) as f64 * (40.0 / GRID as f64);
    let profit_t = (c % GRID) as f64 * (8.0 / GRID as f64);
    let loc = location_name((aux % 10) as usize);
    let other = location_name(1 + (aux % 9) as usize);
    let year = 2010 + (aux / 16 % 7) as i64;
    const HEAD: &str = "name | x | y | z | constraints\n";
    match template {
        Slider => ExploreOp {
            text: format!("{HEAD}*f1 | 'year' | 'sales' | v1 <- 'location'.* | sales > {sales_t}"),
            expects: vec![Expect {
                component: "f1",
                query: sum_by("year", "sales", gt("sales", sales_t)).with_z("location"),
            }],
        },
        Bars => ExploreOp {
            text: format!(
                "{HEAD}*f1 | 'product' | 'sales' | | location='{loc}' AND sales > {sales_t}"
            ),
            expects: vec![Expect {
                component: "f1",
                query: sum_by(
                    "product",
                    "sales",
                    Predicate::cat_eq("location", loc).and(gt("sales", sales_t)),
                ),
            }],
        },
        City => ExploreOp {
            text: format!("{HEAD}*f1 | 'city' | 'profit' | | year={year} AND profit > {profit_t}"),
            expects: vec![Expect {
                component: "f1",
                query: sum_by(
                    "city",
                    "profit",
                    Predicate::num_eq("year", year as f64).and(gt("profit", profit_t)),
                ),
            }],
        },
        Compare => ExploreOp {
            text: format!(
                "{HEAD}*f1 | 'year' | 'sales' | | location='US' AND sales > {sales_t}\n\
                 *f2 | 'year' | 'sales' | | location='{other}' AND sales > {sales_t}"
            ),
            expects: vec![
                Expect {
                    component: "f1",
                    query: sum_by(
                        "year",
                        "sales",
                        Predicate::cat_eq("location", "US").and(gt("sales", sales_t)),
                    ),
                },
                Expect {
                    component: "f2",
                    query: sum_by(
                        "year",
                        "sales",
                        Predicate::cat_eq("location", other).and(gt("sales", sales_t)),
                    ),
                },
            ],
        },
    }
}

/// Constants that never repeat: a full-period walk over the grid
/// (`offset + i·step mod 2^27`, `step` odd), so two ops of a stream
/// share a constant only after 2^27 ops.
#[derive(Clone, Debug)]
pub struct NeverRepeat {
    seed: u64,
    offset: u64,
    step: u64,
}

impl NeverRepeat {
    pub fn new(seed: u64, tag: u64) -> NeverRepeat {
        let mut r = Rng::new(seed, tag);
        NeverRepeat {
            seed: mix(seed ^ tag),
            offset: r.below(GRID),
            step: r.below(GRID) | 1,
        }
    }

    pub fn constant(&self, i: u64) -> u64 {
        self.offset.wrapping_add(i.wrapping_mul(self.step)) % GRID
    }

    /// Op `i` of the stream, template by the fixed cycle.
    pub fn op(&self, i: u64) -> ExploreOp {
        self.op_of(CYCLE[(i % 8) as usize], i)
    }

    pub fn op_of(&self, template: Template, i: u64) -> ExploreOp {
        explore_op(template, self.constant(i), mix(self.seed ^ i))
    }
}

/// A finite universe of distinct queries addressed by popularity rank.
/// Rank `r` always has template `CYCLE[r % 8]` — which gestures are hot
/// is the workload's, the same for every seed; the seed draws their
/// constants. Every `Compare` entry reuses the threshold of the `Slider`
/// three ranks above it, so it is derivable (predicate subsumption on
/// the cached Z column) whenever that slider's result is resident.
pub struct Universe {
    stream: NeverRepeat,
}

impl Universe {
    pub fn new(seed: u64, tag: u64) -> Universe {
        Universe {
            stream: NeverRepeat::new(seed, tag),
        }
    }

    pub fn by_rank(&self, rank: usize) -> ExploreOp {
        let j = rank as u64;
        let template = CYCLE[(j % 8) as usize];
        // j % 8 == 4 is the cycle's Compare; j - 3 is a Slider slot.
        let constant_of = if template == Compare { j - 3 } else { j };
        explore_op(
            template,
            self.stream.constant(constant_of),
            mix(self.stream.seed ^ j),
        )
    }
}

/// explore_warm's stream: Zipf(1.1) ranks into a universe.
pub struct ZipfStream {
    pub universe: Universe,
    zipf: Zipf,
    rng: Rng,
}

impl ZipfStream {
    pub fn new(seed: u64, tag: u64, size: usize, s: f64) -> ZipfStream {
        ZipfStream {
            universe: Universe::new(seed, tag),
            zipf: Zipf::new(size, s),
            rng: Rng::new(seed, tag ^ 0x21bf),
        }
    }

    pub fn next_op(&mut self) -> ExploreOp {
        let rank = self.zipf.sample(&mut self.rng);
        self.universe.by_rank(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cold_stream(seed: u64, n: u64) -> String {
        let s = NeverRepeat::new(seed, 1);
        (0..n).map(|i| s.op(i).text + "\n").collect()
    }

    fn warm_stream(seed: u64, n: usize) -> String {
        let mut s = ZipfStream::new(seed, 2, 4096, 1.1);
        (0..n).map(|_| s.next_op().text + "\n").collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(cold_stream(7, 500), cold_stream(7, 500));
        assert_ne!(cold_stream(7, 500), cold_stream(8, 500));
        assert_eq!(warm_stream(7, 500), warm_stream(7, 500));
        assert_ne!(warm_stream(7, 500), warm_stream(8, 500));
    }

    #[test]
    fn cold_constants_never_repeat() {
        let s = NeverRepeat::new(3, 1);
        let seen: HashSet<u64> = (0..200_000).map(|i| s.constant(i)).collect();
        assert_eq!(seen.len(), 200_000);
        let texts: HashSet<String> = (0..4_000).map(|i| s.op(i).text).collect();
        assert_eq!(texts.len(), 4_000);
    }

    #[test]
    fn universe_is_distinct_and_compare_shares_a_slider_threshold() {
        let u = Universe::new(11, 2);
        let texts: HashSet<String> = (0..4096).map(|r| u.by_rank(r).text).collect();
        assert_eq!(texts.len(), 4096);
        let threshold = |op: &ExploreOp| op.text.rsplit("sales > ").next().unwrap().to_string();
        let slider = explore_op(Slider, u.stream.constant(1), 0);
        let compare = explore_op(Compare, u.stream.constant(4 - 3), 0);
        assert_eq!(threshold(&slider), threshold(&compare));
    }

    #[test]
    fn every_template_parses() {
        let s = NeverRepeat::new(5, 1);
        for i in 0..8 {
            let op = s.op(i);
            let q = zql::parse_query(&op.text).unwrap_or_else(|e| panic!("{}: {e}", op.text));
            assert_eq!(q.rows.len(), op.expects.len());
        }
    }
}
