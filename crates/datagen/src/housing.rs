//! Synthetic twin of the Zillow housing dataset used in the user study
//! (thesis Ch. 8: "housing sales data for different cities, counties, and
//! states from 2004–15, with over 245K rows, and 15 attributes"), with
//! the structure the study tasks and the §6.1 example queries look for:
//!
//! * **Jessamine county** (and a planted set of peers) shows a price peak
//!   between 2008 and 2012 (Figure 6.2's drag-and-drop scenario);
//! * among NY cities with rising prices 2004→2015, half have
//!   **foreclosures moving opposite to prices** (Figure 6.3);
//! * some states have **turnover rate opposite to price** (Figure 6.5).

use crate::util::{gaussian, latent_in};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use zv_storage::{CatColumn, Column, DataType, Field, Schema, Table};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct HousingConfig {
    pub rows: usize,
    pub states: usize,
    pub counties: usize,
    pub cities: usize,
    pub seed: u64,
}

impl Default for HousingConfig {
    fn default() -> Self {
        HousingConfig {
            rows: 60_000,
            states: 10,
            counties: 50,
            cities: 200,
            seed: 0x201604,
        }
    }
}

impl HousingConfig {
    /// The study's full-scale dataset (245K rows).
    pub fn full_scale() -> Self {
        HousingConfig {
            rows: 245_000,
            ..Default::default()
        }
    }
}

pub const NAMED_STATES: [&str; 10] = ["NY", "CA", "KY", "IL", "TX", "WA", "MA", "FL", "OH", "PA"];

pub fn state_name(i: usize) -> String {
    NAMED_STATES
        .get(i)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("ST{i:02}"))
}

pub fn county_name(i: usize) -> String {
    if i == 0 {
        "Jessamine".to_string()
    } else {
        format!("county_{i:03}")
    }
}

pub fn city_name(i: usize) -> String {
    format!("city_{i:03}")
}

/// Counties planted with the 2008–2012 price peak (includes Jessamine).
pub fn has_price_peak(county: usize) -> bool {
    county.is_multiple_of(7)
}

/// NY cities (index mod states == 0) with rising prices whose
/// foreclosures move opposite.
pub fn has_opposing_foreclosures(city: usize) -> bool {
    city.is_multiple_of(2)
}

/// States whose turnover rate opposes the price trend.
pub fn has_opposing_turnover(state: usize) -> bool {
    state % 3 == 2
}

const TAG_PRICE: u64 = 21;
const TAG_SLOPE: u64 = 22;

/// Generate the dataset (15 attributes).
pub fn generate(cfg: &HousingConfig) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut state = CatColumn::new();
    let mut county = CatColumn::new();
    let mut city = CatColumn::new();
    let mut zip = CatColumn::new();
    for s in 0..cfg.states {
        state.intern(&state_name(s));
    }
    for c in 0..cfg.counties {
        county.intern(&county_name(c));
    }
    for c in 0..cfg.cities {
        city.intern(&city_name(c));
    }
    for z in 0..100 {
        zip.intern(&format!("{:05}", 2000 + z * 731 % 90000));
    }

    let mut years = Vec::with_capacity(cfg.rows);
    let mut months = Vec::with_capacity(cfg.rows);
    let mut quarters = Vec::with_capacity(cfg.rows);
    let mut sold = Vec::with_capacity(cfg.rows);
    let mut listing = Vec::with_capacity(cfg.rows);
    let mut turnover = Vec::with_capacity(cfg.rows);
    let mut foreclosure = Vec::with_capacity(cfg.rows);
    let mut inventory = Vec::with_capacity(cfg.rows);
    let mut dom = Vec::with_capacity(cfg.rows);
    let mut num_sold = Vec::with_capacity(cfg.rows);
    let mut ppsf = Vec::with_capacity(cfg.rows);

    for _ in 0..cfg.rows {
        let ci = rng.gen_range(0..cfg.cities);
        let co = ci % cfg.counties;
        let st = co % cfg.states;
        let year = rng.gen_range(2004..=2015i64);
        let month = rng.gen_range(1..=12i64);
        let t = (year - 2004) as f64;

        let base = latent_in(cfg.seed, TAG_PRICE, ci as u64, 120.0, 450.0); // $k
        let slope = latent_in(cfg.seed, TAG_SLOPE, ci as u64, -8.0, 16.0);
        // 2008–2012 peak: a bump centred on 2010 for planted counties.
        let peak = if has_price_peak(co) {
            let d = (year - 2010) as f64;
            90.0 * (-d * d / 4.0).exp()
        } else {
            0.0
        };
        let price = (base + slope * t + peak + 12.0 * gaussian(&mut rng)).max(30.0);
        let price_trend_sign = if slope >= 0.0 { 1.0 } else { -1.0 };

        // Foreclosures: for planted cities, inverse of the price trend.
        let fc_base = latent_in(cfg.seed, 31, ci as u64, 1.0, 6.0);
        let fc = if has_opposing_foreclosures(ci) {
            (fc_base - price_trend_sign * 0.35 * t + 0.4 * gaussian(&mut rng)).max(0.0)
        } else {
            (fc_base + price_trend_sign * 0.25 * t + 0.4 * gaussian(&mut rng)).max(0.0)
        };
        // Turnover: per-state planted inversion.
        let to_base = latent_in(cfg.seed, 32, st as u64, 3.0, 9.0);
        let to = if has_opposing_turnover(st) {
            (to_base - price_trend_sign * 0.3 * t + 0.3 * gaussian(&mut rng)).max(0.1)
        } else {
            (to_base + price_trend_sign * 0.3 * t + 0.3 * gaussian(&mut rng)).max(0.1)
        };

        state.push_code(st as u32);
        county.push_code(co as u32);
        city.push_code(ci as u32);
        zip.push_code((ci % 100) as u32);
        years.push(year);
        months.push(month);
        quarters.push((month - 1) / 3 + 1);
        sold.push(price);
        listing.push(price * latent_in(cfg.seed, 33, ci as u64, 1.0, 1.12));
        turnover.push(to);
        foreclosure.push(fc);
        inventory.push((200.0 - 8.0 * to + 20.0 * gaussian(&mut rng)).max(5.0));
        dom.push((90.0 - 4.0 * to + 10.0 * gaussian(&mut rng)).max(3.0));
        num_sold.push(rng.gen_range(5..500i64));
        ppsf.push(price / latent_in(cfg.seed, 34, ci as u64, 1.2, 3.0));
    }

    let schema = Schema::new(vec![
        Field::new("state", DataType::Cat),
        Field::new("county", DataType::Cat),
        Field::new("city", DataType::Cat),
        Field::new("zip", DataType::Cat),
        Field::new("year", DataType::Int),
        Field::new("month", DataType::Int),
        Field::new("quarter", DataType::Int),
        Field::new("sold_price", DataType::Float),
        Field::new("listing_price", DataType::Float),
        Field::new("turnover_rate", DataType::Float),
        Field::new("foreclosure_rate", DataType::Float),
        Field::new("inventory", DataType::Float),
        Field::new("days_on_market", DataType::Float),
        Field::new("num_sold", DataType::Int),
        Field::new("price_per_sqft", DataType::Float),
    ]);
    let columns = vec![
        Column::Cat(state),
        Column::Cat(county),
        Column::Cat(city),
        Column::Cat(zip),
        Column::Int(years.into()),
        Column::Int(months.into()),
        Column::Int(quarters.into()),
        Column::Float(sold.into()),
        Column::Float(listing.into()),
        Column::Float(turnover.into()),
        Column::Float(foreclosure.into()),
        Column::Float(inventory.into()),
        Column::Float(dom.into()),
        Column::Int(num_sold.into()),
        Column::Float(ppsf.into()),
    ];
    Arc::new(Table::from_columns(schema, columns).expect("consistent schema"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zv_storage::{BitmapDb, Database, Predicate, SelectQuery, XSpec, YSpec};

    fn db() -> BitmapDb {
        BitmapDb::new(generate(&HousingConfig::default()))
    }

    fn county_prices(db: &BitmapDb, county: &str) -> Vec<(f64, f64)> {
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::avg("sold_price")])
            .with_predicate(Predicate::cat_eq("county", county));
        db.execute(&q).unwrap().groups[0].points(0)
    }

    #[test]
    fn fifteen_attributes_like_the_study() {
        let t = generate(&HousingConfig {
            rows: 1000,
            ..Default::default()
        });
        assert_eq!(t.schema().len(), 15);
    }

    #[test]
    fn jessamine_peaks_between_2008_and_2012() {
        let db = db();
        let pts = county_prices(&db, "Jessamine");
        let at = |y: f64| pts.iter().find(|p| p.0 == y).unwrap().1;
        // peak year clearly above the endpoints
        assert!(
            at(2010.0) > at(2004.0) + 30.0,
            "2010 {} vs 2004 {}",
            at(2010.0),
            at(2004.0)
        );
        assert!(at(2010.0) > at(2015.0) + 30.0);
        // a non-planted county has no such bump
        let pts = county_prices(&db, &county_name(1));
        let at = |y: f64| pts.iter().find(|p| p.0 == y).unwrap().1;
        let bump = at(2010.0) - (at(2004.0) + at(2015.0)) / 2.0;
        assert!(bump.abs() < 40.0, "county_001 unexpected bump {bump}");
    }

    #[test]
    fn peer_counties_share_the_peak() {
        let db = db();
        // county 7 is also planted (7 % 7 == 0)
        let pts = county_prices(&db, &county_name(7));
        let at = |y: f64| pts.iter().find(|p| p.0 == y).unwrap().1;
        assert!(at(2010.0) > at(2004.0) + 30.0);
    }

    #[test]
    fn determinism() {
        let cfg = HousingConfig {
            rows: 800,
            ..Default::default()
        };
        assert_eq!(generate(&cfg).row(11), generate(&cfg).row(11));
    }
}
