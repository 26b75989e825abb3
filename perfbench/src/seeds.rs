//! Inputs from the benchmark seed.
//!
//! At the default seed every unit of a workload (a crash campaign, a serve
//! cell, a benchmark) uses the seed the repository's own tools pin
//! (`ci.sh`, `Experiment::new`), so pinned outputs apply. At any other seed
//! each unit gets a seed of its own derived from the run seed: a run then
//! averages over many draws instead of hinging on one, which keeps its
//! cost from swinging with the seed.

/// The seed of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeed {
    seed: u64,
    default: bool,
}

impl RunSeed {
    /// The run seed `seed`; `default_seed` is the one pinned outputs
    /// belong to.
    pub fn new(seed: u64, default_seed: u64) -> Self {
        RunSeed {
            seed,
            default: seed == default_seed,
        }
    }

    /// Whether pinned outputs apply.
    pub fn is_default(self) -> bool {
        self.default
    }

    /// Seed of unit `index` of the stream `salt`: `pinned` at the default
    /// seed, otherwise derived from the run seed.
    pub fn unit(self, pinned: u64, salt: u64, index: u64) -> u64 {
        if self.default {
            pinned
        } else {
            splitmix64(splitmix64(self.seed ^ salt) ^ index)
        }
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_pins_and_others_derive_distinct_seeds() {
        let d = RunSeed::new(1234, 1234);
        assert!(d.is_default());
        assert_eq!(d.unit(42, 1, 0), 42);
        assert_eq!(d.unit(42, 1, 9), 42);

        let r = RunSeed::new(7, 1234);
        assert!(!r.is_default());
        assert_eq!(r.unit(42, 1, 3), RunSeed::new(7, 1234).unit(42, 1, 3));
        assert_ne!(r.unit(42, 1, 3), r.unit(42, 1, 4));
        assert_ne!(r.unit(42, 1, 3), r.unit(42, 2, 3));
        assert_ne!(r.unit(42, 1, 3), RunSeed::new(8, 1234).unit(42, 1, 3));
    }
}
