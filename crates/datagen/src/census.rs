//! Synthetic twin of the census-income dataset (thesis §7: "a real
//! census-income dataset consisting of 300,000 rows and 40 attributes").
//! The §7 experiments use it for grouped-aggregate workloads with random
//! categorical axes, so what matters is the attribute count and the
//! cardinality profile — both matched here: 40 attributes whose
//! cardinalities range from 2 to ~50, plus numeric measures.

use crate::util::{gaussian, latent_in};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use zv_storage::{CatColumn, Column, DataType, Field, Schema, Table};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct CensusConfig {
    pub rows: usize,
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            rows: 50_000,
            seed: 0xCE25,
        }
    }
}

impl CensusConfig {
    /// The paper's full-scale dataset (300K rows).
    pub fn full_scale() -> Self {
        CensusConfig {
            rows: 300_000,
            ..Default::default()
        }
    }
}

/// `(name, cardinality)` for the named demographic attributes.
pub const NAMED_ATTRS: [(&str, usize); 10] = [
    ("workclass", 8),
    ("education", 16),
    ("marital_status", 7),
    ("occupation", 14),
    ("relationship", 6),
    ("race", 5),
    ("sex", 2),
    ("native_country", 40),
    ("citizenship", 4),
    ("income_bracket", 2),
];

/// Generate the dataset: 10 named categorical attributes, 26 filler
/// categorical attributes (card 2..50), and 4 numeric measures = 40 cols.
pub fn generate(cfg: &CensusConfig) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut fields: Vec<Field> = Vec::new();
    let mut cats: Vec<CatColumn> = Vec::new();
    let mut cards: Vec<usize> = Vec::new();

    for (name, card) in NAMED_ATTRS {
        let mut c = CatColumn::new();
        for v in 0..card {
            c.intern(&format!("{name}_{v}"));
        }
        fields.push(Field::new(name, DataType::Cat));
        cats.push(c);
        cards.push(card);
    }
    for i in 0..26 {
        let card = 2 + (crate::util::splitmix64(cfg.seed ^ (i as u64 + 500)) % 49) as usize;
        let name = format!("attr_{:02}", i + 11);
        let mut c = CatColumn::new();
        for v in 0..card {
            c.intern(&format!("v{v}"));
        }
        fields.push(Field::new(name, DataType::Cat));
        cats.push(c);
        cards.push(card);
    }

    let mut ages: Vec<i64> = Vec::with_capacity(cfg.rows);
    let mut hours: Vec<i64> = Vec::with_capacity(cfg.rows);
    let mut wages: Vec<f64> = Vec::with_capacity(cfg.rows);
    let mut gains: Vec<f64> = Vec::with_capacity(cfg.rows);

    for _ in 0..cfg.rows {
        // Categorical draws are skewed (Zipf-ish) like real census data.
        for (c, &card) in cats.iter_mut().zip(&cards) {
            let u: f64 = rng.gen::<f64>();
            let code = ((u * u) * card as f64) as usize;
            c.push_code(code.min(card - 1) as u32);
        }
        let age = rng.gen_range(17..=90i64);
        let hour = rng.gen_range(0..=99i64);
        let wage = (15.0 + 0.4 * (age as f64 - 17.0) + 8.0 * gaussian(&mut rng)).max(0.0);
        let gain = if rng.gen_range(0..20) == 0 {
            latent_in(cfg.seed, 3, rng.gen::<u32>() as u64, 1000.0, 99_999.0)
        } else {
            0.0
        };
        ages.push(age);
        hours.push(hour);
        wages.push(wage);
        gains.push(gain);
    }

    fields.push(Field::new("age", DataType::Int));
    fields.push(Field::new("hours_per_week", DataType::Int));
    fields.push(Field::new("wage_per_hour", DataType::Float));
    fields.push(Field::new("capital_gains", DataType::Float));

    let mut columns: Vec<Column> = cats.into_iter().map(Column::Cat).collect();
    columns.push(Column::Int(ages.into()));
    columns.push(Column::Int(hours.into()));
    columns.push(Column::Float(wages.into()));
    columns.push(Column::Float(gains.into()));

    Arc::new(Table::from_columns(Schema::new(fields), columns).expect("consistent schema"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_attributes_like_the_paper() {
        let t = generate(&CensusConfig {
            rows: 1000,
            ..Default::default()
        });
        assert_eq!(t.schema().len(), 40);
        assert_eq!(t.num_rows(), 1000);
        assert_eq!(t.categorical_names().len(), 36);
        assert_eq!(t.numeric_names().len(), 4);
    }

    #[test]
    fn cardinalities_match_spec() {
        let t = generate(&CensusConfig {
            rows: 20_000,
            ..Default::default()
        });
        for (name, card) in NAMED_ATTRS {
            let c = t.column(name).unwrap().as_cat().unwrap();
            assert_eq!(c.cardinality(), card, "{name}");
        }
    }

    #[test]
    fn skewed_distribution() {
        let t = generate(&CensusConfig {
            rows: 20_000,
            ..Default::default()
        });
        let c = t.column("native_country").unwrap().as_cat().unwrap();
        let mut counts = vec![0usize; c.cardinality()];
        for code in c.codes().to_vec() {
            counts[code as usize] += 1;
        }
        // The first value should be far more common than the last.
        assert!(counts[0] > counts[c.cardinality() - 1] * 3);
    }

    #[test]
    fn determinism() {
        let cfg = CensusConfig {
            rows: 500,
            ..Default::default()
        };
        assert_eq!(generate(&cfg).row(42), generate(&cfg).row(42));
    }
}
