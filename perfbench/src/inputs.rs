//! Seeded inputs. Every point set comes from the workspace's seed-spreader
//! generator with a seed derived from the run's `--seed`; the program under
//! test only ever receives the resulting coordinates and requests.

use datagen::{seed_spreader, SeedSpreaderConfig};

/// SplitMix64, to derive independent generator seeds from `--seed`.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of one workload segment (`salt` tells them apart).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Flat coordinates of a seed-spreader point set.
pub fn generate<const D: usize>(config: &SeedSpreaderConfig) -> Vec<f64> {
    seed_spreader::<D>(config)
        .iter()
        .flat_map(|p| p.coords)
        .collect()
}

/// A base point set plus a schedule of update batches over it. The seed
/// spreader's output is a random walk, so consecutive points of its stream
/// lie close together. The stream is cut into chunks of `inserts_per_batch`
/// points; `batches` chunks spread along the stream are held out as the
/// insert pool and the rest, in stream order, is the base (ids `0..n`).
/// Batch `k` inserts one held-out chunk (ids `n + k * inserts_per_batch ..`)
/// and deletes a run of `deletes_per_batch` consecutive base ids from the
/// same part of the stream, so each batch touches one region. Consecutive
/// batches visit regions far apart along the stream, so a run's batches
/// sample the whole data set. The live set after any number of batches is
/// known without asking the program.
pub struct Churn {
    pub dim: usize,
    pub base: Vec<f64>,
    pub pool: Vec<f64>,
    pub inserts_per_batch: usize,
    pub deletes_per_batch: usize,
    /// First base id each batch deletes.
    delete_starts: Vec<usize>,
}

/// The stream positions `0..slots` in an order where consecutive entries
/// lie far apart: multiples of a stride coprime to `slots`, near the
/// golden section.
fn scattered(slots: usize) -> Vec<usize> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = (slots as f64 * 0.618) as usize;
    while slots > 1 && gcd(stride.max(1), slots) != 1 {
        stride += 1;
    }
    (0..slots)
        .map(|k| (k * stride.max(1)) % slots.max(1))
        .collect()
}

impl Churn {
    /// `n` base points and `batches` batches, all from one SS-simden
    /// stream of `n + batches * inserts_per_batch` points.
    pub fn simden<const D: usize>(
        n: usize,
        batches: usize,
        inserts_per_batch: usize,
        deletes_per_batch: usize,
        seed: u64,
    ) -> Churn {
        assert!(
            batches * deletes_per_batch <= n,
            "churn deletes more than the base"
        );
        let chunk = inserts_per_batch.max(1);
        let total = n + batches * inserts_per_batch;
        let stream = generate::<D>(&SeedSpreaderConfig::simden(total, seed));
        let chunks = total / chunk;
        let held: std::collections::HashSet<usize> =
            (0..batches).map(|j| j * chunks / batches.max(1)).collect();
        let (mut base, mut pool_by_slot) = (Vec::with_capacity(n * D), Vec::new());
        for (c, points) in stream.chunks(chunk * D).enumerate() {
            if held.contains(&c) && points.len() == chunk * D {
                pool_by_slot.push(points);
            } else {
                base.extend_from_slice(points);
            }
        }
        let order = scattered(batches);
        let pool = order
            .iter()
            .flat_map(|&j| pool_by_slot[j].iter().copied())
            .collect();
        let n = base.len() / D;
        let delete_starts = order.iter().map(|&j| j * n / batches.max(1)).collect();
        Churn {
            dim: D,
            base,
            pool,
            inserts_per_batch,
            deletes_per_batch,
            delete_starts,
        }
    }

    pub fn n(&self) -> usize {
        self.base.len() / self.dim
    }

    /// How many batches the schedule holds.
    pub fn batches(&self) -> usize {
        self.delete_starts.len()
    }

    /// Batch `k`: flat insert coordinates and the ids to delete.
    pub fn batch(&self, k: usize) -> (&[f64], Vec<usize>) {
        let ins = self.inserts_per_batch * self.dim;
        let del = self.deletes_per_batch;
        let first = self.delete_starts[k];
        (
            &self.pool[k * ins..(k + 1) * ins],
            (first..first + del).collect(),
        )
    }

    /// Id of the first point batch `k` inserts.
    pub fn first_insert_id(&self, k: usize) -> usize {
        self.n() + k * self.inserts_per_batch
    }

    /// Live coordinates after the first `batches` batches, in ascending id
    /// order.
    pub fn live_coords(&self, batches: usize) -> Vec<f64> {
        let mut alive = vec![true; self.n()];
        for &first in &self.delete_starts[..batches] {
            alive[first..first + self.deletes_per_batch].fill(false);
        }
        let mut live: Vec<f64> = self
            .base
            .chunks_exact(self.dim)
            .zip(&alive)
            .filter(|(_, &a)| a)
            .flat_map(|(p, _)| p.iter().copied())
            .collect();
        live.extend_from_slice(&self.pool[..batches * self.inserts_per_batch * self.dim]);
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Churn::simden::<2>(500, 4, 5, 5, 7);
        let b = Churn::simden::<2>(500, 4, 5, 5, 7);
        assert_eq!((&a.base, &a.pool), (&b.base, &b.pool));
        assert_ne!(a.base, Churn::simden::<2>(500, 4, 5, 5, 8).base);
    }

    #[test]
    fn live_set_follows_the_schedule() {
        let c = Churn::simden::<2>(100, 3, 4, 2, 1);
        assert_eq!((c.n(), c.batches(), c.pool.len()), (100, 3, 24));
        let live = c.live_coords(2);
        assert_eq!(live.len(), (100 - 4 + 8) * 2);
        assert_eq!(&live[live.len() - 16..], &c.pool[..16]);
        let deleted: Vec<usize> = (0..3).flat_map(|k| c.batch(k).1).collect();
        let mut unique = deleted.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 6, "batches delete disjoint ids: {deleted:?}");
    }

    #[test]
    fn scattered_visits_every_slot_once() {
        for slots in [1, 2, 7, 80, 150] {
            let mut order = scattered(slots);
            order.sort_unstable();
            assert_eq!(order, (0..slots).collect::<Vec<_>>());
        }
    }
}
