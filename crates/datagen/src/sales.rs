//! The synthetic product-sales dataset — the fictitious "GlobalMart"
//! relation every ZQL example in the thesis queries (product / location /
//! year / month / sales / profit, §2–§3), and the synthetic evaluation
//! dataset of §7 ("10M rows ... product, size, weight, city, country,
//! category, month, year, profit, and revenue").
//!
//! The generator plants the latent structure the paper's queries probe:
//!
//! * every 4th product has **positive sales trend in the US and negative
//!   in the UK** (the Table 5.1 / Table 2.3 targets);
//! * every 5th product has a **profit trend opposite to its sales trend**
//!   (the §3.9 "discrepancy" targets);
//! * the `stapler` is a stable high-profit product whose trend several
//!   other products imitate (similarity-search targets, Table 3.13).

use crate::util::{gaussian, latent_in};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use zv_storage::{CatColumn, Column, DataType, Field, FloatColumn, IntColumn, Schema, Table};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct SalesConfig {
    pub rows: usize,
    pub products: usize,
    pub locations: usize,
    pub cities: usize,
    pub categories: usize,
    /// Inclusive year span.
    pub years: (i64, i64),
    pub seed: u64,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            rows: 100_000,
            products: 100,
            locations: 10,
            cities: 50,
            categories: 8,
            years: (2010, 2016),
            seed: 0xC0FFEE,
        }
    }
}

impl SalesConfig {
    /// The paper's full-scale synthetic dataset (10M rows).
    pub fn full_scale() -> Self {
        SalesConfig {
            rows: 10_000_000,
            products: 1000,
            cities: 500,
            ..Default::default()
        }
    }
}

/// Named products, first in the dictionary (the thesis's examples).
pub const NAMED_PRODUCTS: [&str; 8] = [
    "stapler", "chair", "desk", "table", "printer", "notebook", "pen", "monitor",
];

/// Named locations, first in the dictionary.
pub const NAMED_LOCATIONS: [&str; 10] = [
    "US",
    "UK",
    "Canada",
    "Germany",
    "France",
    "India",
    "China",
    "Japan",
    "Brazil",
    "Australia",
];

pub fn product_name(i: usize) -> String {
    NAMED_PRODUCTS
        .get(i)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("product_{i:04}"))
}

pub fn location_name(i: usize) -> String {
    NAMED_LOCATIONS
        .get(i)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("country_{i:03}"))
}

/// True if product `p` is planted with opposing sales/profit trends
/// (strong positive sales everywhere, declining profit). Takes precedence
/// over the US/UK classes below; the stapler (p = 0) is excluded.
pub fn has_profit_discrepancy(p: usize) -> bool {
    p != 0 && p.is_multiple_of(5)
}

/// True if product `p` is planted as "sales up in US, down in UK".
pub fn is_us_up_uk_down(p: usize) -> bool {
    p != 0 && !has_profit_discrepancy(p) && p.is_multiple_of(4)
}

/// True if product `p` is planted as the mirror (US down, UK up).
pub fn is_us_down_uk_up(p: usize) -> bool {
    !has_profit_discrepancy(p) && p % 4 == 1
}

const TAG_BASE: u64 = 1;
const TAG_LOC_SLOPE: u64 = 2;
const TAG_SEASON: u64 = 3;
const TAG_MARGIN: u64 = 4;

/// Sales slope for `(product, location)` in units per year.
fn sales_slope(seed: u64, p: usize, l: usize) -> f64 {
    let key = (p * 1000 + l) as u64;
    if p == 0 {
        // the stapler: steady moderate growth everywhere
        return latent_in(seed, TAG_LOC_SLOPE, key, 1.0, 3.0);
    }
    if has_profit_discrepancy(p) {
        // strong growth everywhere, so the opposing profit trend is
        // unambiguous at any aggregation level
        return latent_in(seed, TAG_LOC_SLOPE, key, 4.0, 10.0);
    }
    // Planted structure for US (location 0) and UK (location 1).
    if is_us_up_uk_down(p) {
        if l == 0 {
            return latent_in(seed, TAG_LOC_SLOPE, key, 4.0, 12.0);
        }
        if l == 1 {
            return latent_in(seed, TAG_LOC_SLOPE, key, -12.0, -4.0);
        }
    } else if is_us_down_uk_up(p) {
        // the mirror image, so the intersection query is non-trivial
        if l == 0 {
            return latent_in(seed, TAG_LOC_SLOPE, key, -12.0, -4.0);
        }
        if l == 1 {
            return latent_in(seed, TAG_LOC_SLOPE, key, 4.0, 12.0);
        }
    }
    latent_in(seed, TAG_LOC_SLOPE, key, -3.0, 3.0)
}

/// Profit slope for a product, given its aggregate sales slope.
fn profit_slope(seed: u64, p: usize, agg_sales_slope: f64) -> f64 {
    if has_profit_discrepancy(p) {
        // strongly declining profit against strongly rising sales
        -latent_in(seed, TAG_MARGIN, p as u64, 2.0, 5.0)
    } else {
        agg_sales_slope * latent_in(seed, TAG_MARGIN, p as u64, 0.3, 0.6)
    }
}

/// Generate the dataset.
pub fn generate(cfg: &SalesConfig) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (y0, y1) = cfg.years;
    assert!(y1 >= y0);
    let n_years = (y1 - y0 + 1) as usize;

    let mut product = CatColumn::new();
    let mut location = CatColumn::new();
    let mut city = CatColumn::new();
    let mut category = CatColumn::new();
    let mut size = CatColumn::new();
    for p in 0..cfg.products {
        product.intern(&product_name(p));
    }
    for l in 0..cfg.locations {
        location.intern(&location_name(l));
    }
    for c in 0..cfg.cities {
        city.intern(&format!("city_{c:03}"));
    }
    for c in 0..cfg.categories {
        category.intern(&format!("category_{c}"));
    }
    for s in ["S", "M", "L"] {
        size.intern(s);
    }

    // Columns fill chunk by chunk, never as one flat run.
    let mut years = IntColumn::with_env_policy();
    let mut months = IntColumn::with_env_policy();
    let mut weights = FloatColumn::with_env_policy();
    let mut sales = FloatColumn::with_env_policy();
    let mut profits = FloatColumn::with_env_policy();

    // Pre-compute per-product latent parameters.
    let base: Vec<f64> = (0..cfg.products)
        .map(|p| latent_in(cfg.seed, TAG_BASE, p as u64, 60.0, 140.0))
        .collect();
    let season_amp: Vec<f64> = (0..cfg.products)
        .map(|p| latent_in(cfg.seed, TAG_SEASON, p as u64, 0.0, 10.0))
        .collect();
    // Aggregate (location-averaged) sales slope per product, used for the
    // product-level profit trend.
    let agg_slope: Vec<f64> = (0..cfg.products)
        .map(|p| {
            (0..cfg.locations)
                .map(|l| sales_slope(cfg.seed, p, l))
                .sum::<f64>()
                / cfg.locations as f64
        })
        .collect();
    let p_slope: Vec<f64> = (0..cfg.products)
        .map(|p| profit_slope(cfg.seed, p, agg_slope[p]))
        .collect();

    // Rows are assigned round-robin over (product, location, year) so per-
    // cell row counts are balanced (±1): SUM aggregates then reflect the
    // planted per-row trends instead of row-count noise. Month, city and
    // the measures stay random.
    use rand::Rng;
    for i in 0..cfg.rows {
        let p = i % cfg.products;
        let l = (i / cfg.products) % cfg.locations;
        let year = y0 + ((i / (cfg.products * cfg.locations)) % n_years) as i64;
        let ci = rng.gen_range(0..cfg.cities);
        let month = rng.gen_range(1..=12i64);
        let t = (year - y0) as f64 + (month - 1) as f64 / 12.0;

        let seasonal = season_amp[p] * (month as f64 / 12.0 * std::f64::consts::TAU).sin();
        let s = (base[p] + sales_slope(cfg.seed, p, l) * t + seasonal + 5.0 * gaussian(&mut rng))
            .max(0.0);
        // Stapler (product 0): stable, very profitable (§3.9 Query 1).
        let pr = if p == 0 {
            0.8 * base[p] + 2.0 * t + 2.0 * gaussian(&mut rng)
        } else {
            0.3 * base[p] + p_slope[p] * t + 3.0 * gaussian(&mut rng)
        };

        product.push_code(p as u32);
        location.push_code(l as u32);
        city.push_code(ci as u32);
        category.push_code((p % cfg.categories) as u32);
        size.push_code((p % 3) as u32);
        years.push(year);
        months.push(month);
        weights.push(latent_in(cfg.seed, 99, p as u64, 1.0, 100.0));
        sales.push(s);
        profits.push(pr);
    }

    let schema = Schema::new(vec![
        Field::new("product", DataType::Cat),
        Field::new("category", DataType::Cat),
        Field::new("location", DataType::Cat),
        Field::new("city", DataType::Cat),
        Field::new("size", DataType::Cat),
        Field::new("year", DataType::Int),
        Field::new("month", DataType::Int),
        Field::new("weight", DataType::Float),
        Field::new("sales", DataType::Float),
        Field::new("profit", DataType::Float),
    ]);
    let columns = vec![
        Column::Cat(product),
        Column::Cat(category),
        Column::Cat(location),
        Column::Cat(city),
        Column::Cat(size),
        Column::Int(years),
        Column::Int(months),
        Column::Float(weights),
        Column::Float(sales),
        Column::Float(profits),
    ];
    Arc::new(Table::from_columns(schema, columns).expect("generator schema is consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zv_analytics::{trend, Series};
    use zv_storage::{BitmapDb, Database, Predicate, SelectQuery, XSpec, YSpec};

    fn small() -> Arc<Table> {
        generate(&SalesConfig {
            rows: 60_000,
            products: 24,
            ..Default::default()
        })
    }

    fn product_trend(db: &BitmapDb, product: &str, location: &str, measure: &str) -> f64 {
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum(measure)]).with_predicate(
            Predicate::cat_eq("product", product).and(if location.is_empty() {
                Predicate::True
            } else {
                Predicate::cat_eq("location", location)
            }),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        trend(&Series::new(g.points(0)))
    }

    #[test]
    fn shape_and_determinism() {
        let cfg = SalesConfig {
            rows: 5000,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.num_rows(), 5000);
        assert_eq!(a.schema().len(), 10);
        assert_eq!(
            a.row(123),
            b.row(123),
            "same seed must reproduce identical rows"
        );
        let c = generate(&SalesConfig { seed: 1, ..cfg });
        assert_ne!(a.row(123), c.row(123), "different seed should differ");
    }

    #[test]
    fn planted_us_up_uk_down_products_have_those_trends() {
        let db = BitmapDb::new(small());
        for p in (0..24).filter(|&p| is_us_up_uk_down(p)) {
            let name = product_name(p);
            let us = product_trend(&db, &name, "US", "sales");
            let uk = product_trend(&db, &name, "UK", "sales");
            assert!(us > 0.0, "{name} US trend should be positive, got {us}");
            assert!(uk < 0.0, "{name} UK trend should be negative, got {uk}");
        }
        // And a mirror product has the opposite pattern.
        let name = product_name(1);
        assert!(is_us_down_uk_up(1));
        assert!(product_trend(&db, &name, "US", "sales") < 0.0);
        assert!(product_trend(&db, &name, "UK", "sales") > 0.0);
    }

    #[test]
    fn planted_profit_discrepancy() {
        let db = BitmapDb::new(small());
        for p in (0..24).filter(|&p| has_profit_discrepancy(p)) {
            let name = product_name(p);
            let s = product_trend(&db, &name, "", "sales");
            let pr = product_trend(&db, &name, "", "profit");
            assert!(s > 0.0, "{name} sales trend should rise, got {s}");
            assert!(pr < 0.0, "{name} profit trend should fall, got {pr}");
        }
    }

    #[test]
    fn planted_classes_are_disjoint() {
        for p in 0..100 {
            let n = [
                has_profit_discrepancy(p),
                is_us_up_uk_down(p),
                is_us_down_uk_up(p),
            ]
            .iter()
            .filter(|&&b| b)
            .count();
            assert!(n <= 1, "product {p} in {n} classes");
        }
        assert!(!has_profit_discrepancy(0), "the stapler is its own class");
        assert!(!is_us_up_uk_down(0));
    }

    #[test]
    fn stapler_is_profitable_and_growing() {
        let db = BitmapDb::new(small());
        let t = product_trend(&db, "stapler", "", "profit");
        assert!(t > 0.0, "stapler profit trend {t}");
    }

    #[test]
    fn dictionary_contains_named_entities() {
        let t = small();
        let products = t.column("product").unwrap().as_cat().unwrap();
        assert_eq!(products.decode(0), "stapler");
        assert_eq!(products.decode(1), "chair");
        let locs = t.column("location").unwrap().as_cat().unwrap();
        assert_eq!(locs.decode(0), "US");
        assert_eq!(locs.decode(1), "UK");
    }
}
