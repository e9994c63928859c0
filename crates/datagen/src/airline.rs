//! Synthetic twin of the airline on-time dataset (thesis §7: "a real
//! airline dataset with 15 million rows and 29 attributes"), carrying the
//! delay structure the §7.1 queries probe:
//!
//! * some airports' **average departure and weather delays increase over
//!   the years** (Table 7.1's `argany [t > 0] T(f)`);
//! * some airports' **arrival delays differ sharply between June and
//!   December** (Table 7.2's `argmax D(f1, f2)`).

use crate::util::{gaussian, latent_in};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use zv_storage::{CatColumn, Column, DataType, Field, Schema, Table};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct AirlineConfig {
    pub rows: usize,
    pub airports: usize,
    pub carriers: usize,
    /// Inclusive year span.
    pub years: (i64, i64),
    pub seed: u64,
}

impl Default for AirlineConfig {
    fn default() -> Self {
        AirlineConfig {
            rows: 100_000,
            airports: 50,
            carriers: 12,
            years: (1996, 2008),
            seed: 0xA1B2,
        }
    }
}

impl AirlineConfig {
    /// The paper's full-scale dataset (15M rows).
    pub fn full_scale() -> Self {
        AirlineConfig {
            rows: 15_000_000,
            airports: 300,
            ..Default::default()
        }
    }
}

/// Named airports, first in the dictionary (the §7.1 query sets
/// OA = DA = {JFK, SFO, ...}).
pub const NAMED_AIRPORTS: [&str; 10] = [
    "JFK", "SFO", "ORD", "LAX", "ATL", "DFW", "DEN", "SEA", "BOS", "MIA",
];

pub fn airport_name(i: usize) -> String {
    NAMED_AIRPORTS
        .get(i)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("AP{i:03}"))
}

/// Airports planted with increasing departure delay over years.
pub fn has_increasing_dep_delay(a: usize) -> bool {
    a.is_multiple_of(3)
}

/// Airports planted with increasing weather delay over years.
pub fn has_increasing_weather_delay(a: usize) -> bool {
    a.is_multiple_of(4)
}

/// Airports planted with a June↔December arrival-delay contrast.
pub fn has_seasonal_arr_contrast(a: usize) -> bool {
    a.is_multiple_of(5)
}

const TAG_DEP: u64 = 11;
const TAG_WX: u64 = 12;
const TAG_SEASONAL: u64 = 13;
const TAG_BASE: u64 = 14;

/// Generate the dataset.
pub fn generate(cfg: &AirlineConfig) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (y0, y1) = cfg.years;
    assert!(y1 >= y0);

    let mut origin = CatColumn::new();
    let mut dest = CatColumn::new();
    let mut carrier = CatColumn::new();
    for a in 0..cfg.airports {
        origin.intern(&airport_name(a));
        dest.intern(&airport_name(a));
    }
    for c in 0..cfg.carriers {
        carrier.intern(&format!("CR{c:02}"));
    }

    let mut years = Vec::with_capacity(cfg.rows);
    let mut months = Vec::with_capacity(cfg.rows);
    let mut days = Vec::with_capacity(cfg.rows);
    let mut dep_delay = Vec::with_capacity(cfg.rows);
    let mut arr_delay = Vec::with_capacity(cfg.rows);
    let mut weather_delay = Vec::with_capacity(cfg.rows);
    let mut distance = Vec::with_capacity(cfg.rows);
    let mut air_time = Vec::with_capacity(cfg.rows);
    let mut cancelled = Vec::with_capacity(cfg.rows);

    let base_delay: Vec<f64> = (0..cfg.airports)
        .map(|a| latent_in(cfg.seed, TAG_BASE, a as u64, 5.0, 20.0))
        .collect();
    let dep_slope: Vec<f64> = (0..cfg.airports)
        .map(|a| {
            if has_increasing_dep_delay(a) {
                latent_in(cfg.seed, TAG_DEP, a as u64, 0.8, 2.5)
            } else {
                latent_in(cfg.seed, TAG_DEP, a as u64, -1.2, -0.1)
            }
        })
        .collect();
    let wx_slope: Vec<f64> = (0..cfg.airports)
        .map(|a| {
            if has_increasing_weather_delay(a) {
                latent_in(cfg.seed, TAG_WX, a as u64, 0.4, 1.5)
            } else {
                latent_in(cfg.seed, TAG_WX, a as u64, -0.6, -0.05)
            }
        })
        .collect();
    let seasonal_amp: Vec<f64> = (0..cfg.airports)
        .map(|a| {
            if has_seasonal_arr_contrast(a) {
                latent_in(cfg.seed, TAG_SEASONAL, a as u64, 25.0, 60.0)
            } else {
                latent_in(cfg.seed, TAG_SEASONAL, a as u64, 0.0, 5.0)
            }
        })
        .collect();

    for _ in 0..cfg.rows {
        let a = rng.gen_range(0..cfg.airports);
        let year = rng.gen_range(y0..=y1);
        let month = rng.gen_range(1..=12i64);
        let day = rng.gen_range(1..=28i64);
        let t = (year - y0) as f64;

        let dep = (base_delay[a] + dep_slope[a] * t + 4.0 * gaussian(&mut rng)).max(-10.0);
        let wx = (2.0 + wx_slope[a] * t + 2.0 * gaussian(&mut rng)).max(0.0);
        // December (and nearby winter months) get the planted contrast.
        let winter = match month {
            12 => 1.0,
            1 | 11 => 0.6,
            6 | 7 => -0.3,
            _ => 0.0,
        };
        let arr = (dep * 0.7 + seasonal_amp[a] * winter + 5.0 * gaussian(&mut rng)).max(-20.0);
        let dist = latent_in(
            cfg.seed,
            77,
            (a * 31 + (day as usize % 7)) as u64,
            150.0,
            2800.0,
        );

        origin.push_code(a as u32);
        dest.push_code(((a + 1 + rng.gen_range(0..cfg.airports - 1)) % cfg.airports) as u32);
        carrier.push_code((a % cfg.carriers) as u32);
        years.push(year);
        months.push(month);
        days.push(day);
        dep_delay.push(dep);
        arr_delay.push(arr);
        weather_delay.push(wx);
        distance.push(dist);
        air_time.push(dist / 7.5 + 3.0 * gaussian(&mut rng));
        cancelled.push(i64::from(rng.gen_range(0..100) < 2));
    }

    let schema = Schema::new(vec![
        Field::new("origin", DataType::Cat),
        Field::new("dest", DataType::Cat),
        Field::new("carrier", DataType::Cat),
        Field::new("year", DataType::Int),
        Field::new("month", DataType::Int),
        Field::new("day", DataType::Int),
        Field::new("dep_delay", DataType::Float),
        Field::new("arr_delay", DataType::Float),
        Field::new("weather_delay", DataType::Float),
        Field::new("distance", DataType::Float),
        Field::new("air_time", DataType::Float),
        Field::new("cancelled", DataType::Int),
    ]);
    let columns = vec![
        Column::Cat(origin),
        Column::Cat(dest),
        Column::Cat(carrier),
        Column::Int(years.into()),
        Column::Int(months.into()),
        Column::Int(days.into()),
        Column::Float(dep_delay.into()),
        Column::Float(arr_delay.into()),
        Column::Float(weather_delay.into()),
        Column::Float(distance.into()),
        Column::Float(air_time.into()),
        Column::Int(cancelled.into()),
    ];
    Arc::new(Table::from_columns(schema, columns).expect("generator schema is consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zv_analytics::{trend, Series};
    use zv_storage::{BitmapDb, Database, Predicate, SelectQuery, XSpec, YSpec};

    fn db() -> BitmapDb {
        BitmapDb::new(generate(&AirlineConfig {
            rows: 80_000,
            airports: 20,
            ..Default::default()
        }))
    }

    fn airport_trend(db: &BitmapDb, airport: &str, measure: &str) -> f64 {
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::avg(measure)])
            .with_predicate(Predicate::cat_eq("origin", airport));
        let g = db.execute(&q).unwrap().groups[0].clone();
        trend(&Series::new(g.points(0)))
    }

    #[test]
    fn planted_delay_trends() {
        let db = db();
        // airport 0 (JFK): dep increasing (0%3==0) and weather increasing
        assert!(airport_trend(&db, "JFK", "dep_delay") > 0.0);
        assert!(airport_trend(&db, "JFK", "weather_delay") > 0.0);
        // airport 1 (SFO): neither planted → decreasing
        assert!(airport_trend(&db, "SFO", "dep_delay") < 0.0);
        assert!(airport_trend(&db, "SFO", "weather_delay") < 0.0);
        // airport 3 (LAX): dep increasing
        assert!(airport_trend(&db, "LAX", "dep_delay") > 0.0);
    }

    #[test]
    fn planted_seasonal_contrast() {
        let db = db();
        let avg_for = |airport: &str, month: i64| -> f64 {
            let q = SelectQuery::new(XSpec::raw("day"), vec![YSpec::avg("arr_delay")])
                .with_predicate(
                    Predicate::cat_eq("origin", airport)
                        .and(Predicate::num_eq("month", month as f64)),
                );
            let g = db.execute(&q).unwrap().groups[0].clone();
            let ys = &g.ys[0];
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        // airport 0 (JFK) and 5 (DFW) have the June↔December contrast
        for ap in ["JFK", "DFW"] {
            let gap = (avg_for(ap, 12) - avg_for(ap, 6)).abs();
            assert!(gap > 15.0, "{ap} June/Dec arrival gap {gap} too small");
        }
        // airport 1 (SFO) does not
        let gap = (avg_for("SFO", 12) - avg_for("SFO", 6)).abs();
        assert!(gap < 12.0, "SFO June/Dec gap {gap} unexpectedly large");
    }

    #[test]
    fn determinism_and_shape() {
        let cfg = AirlineConfig {
            rows: 2000,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.row(777), b.row(777));
        assert_eq!(a.schema().len(), 12);
        assert_eq!(a.num_rows(), 2000);
    }
}
