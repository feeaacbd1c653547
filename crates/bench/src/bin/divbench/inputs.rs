//! Workload inputs made from `--seed`.
//!
//! Every table is the paper dataset's synthetic stand-in generated from
//! [`TABLE_SEED`], the seed the repository's experiments use: Figure 6
//! times fixed datasets. `--seed` picks the classifier being audited:
//! [`TABLE_SEED`] audits the table's own predictions, any other seed an
//! alternative model that flips a seeded [`FLIP_FRACTION`] of them. The
//! lattice, and so the mining work, does not depend on the predictions;
//! the tallies and every answer do. Regenerating the tables, or even
//! reordering their rows, per seed would change the work itself (german's
//! lattice at s = 0.01 by tens of percent, a serve query by about 18%),
//! making run-to-run spread a property of the seed.

use datasets::{DatasetId, GeneratedDataset};

/// The seed every table is generated from.
pub const TABLE_SEED: u64 = 42;

/// Share of predictions an alternative model flips.
pub const FLIP_FRACTION: f64 = 0.05;

/// A deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An alternative model: `u` with each prediction flipped with
    /// probability [`FLIP_FRACTION`].
    pub fn flip(&mut self, u: &[bool]) -> Vec<bool> {
        u.iter()
            .map(|&p| p ^ (self.next_f64() < FLIP_FRACTION))
            .collect()
    }
}

/// The input of dataset `id` for `seed`: the table generated from
/// [`TABLE_SEED`], with the predictions of the model `seed` picks.
pub fn table(id: DatasetId, seed: u64) -> GeneratedDataset {
    let mut t = id.generate(TABLE_SEED);
    if seed != TABLE_SEED {
        t.u = Rng::new(seed).flip(&t.u);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_the_predictions_and_nothing_else() {
        let own = table(DatasetId::Heart, TABLE_SEED);
        let generated = DatasetId::Heart.generate(TABLE_SEED);
        assert_eq!(own.u, generated.u, "the table's own predictions");
        let a = table(DatasetId::Heart, 1);
        let b = table(DatasetId::Heart, 1);
        let c = table(DatasetId::Heart, 2);
        assert_eq!(a.u, b.u, "same seed, same input");
        assert_ne!(a.u, c.u, "another seed, another model");
        for t in [&a, &c] {
            assert_eq!(t.data, generated.data);
            assert_eq!(t.v, generated.v);
        }
    }

    #[test]
    fn alternative_models_flip_about_five_percent() {
        let u = vec![false; 100_000];
        let flipped = Rng::new(7).flip(&u).into_iter().filter(|&b| b).count();
        assert!((4_500..5_500).contains(&flipped), "{flipped}");
    }
}
