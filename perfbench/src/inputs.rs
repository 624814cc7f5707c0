//! Seeded inputs shared by the workloads.

use insum::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A `rows`×`cols` matrix tiled in `bm`×`bk` blocks, of which exactly
/// `round((1 - sparsity) * blocks)` (at least one) hold values, at
/// seeded places. `insum_workloads`' generator keeps each block with
/// probability `1 - sparsity`, which moves the block count, and with it
/// an op's work, by 5–12% from seed to seed at the sizes used here; a
/// fixed count lets the seed change the structure without changing how
/// much work it holds.
pub fn block_sparse(
    rows: usize,
    cols: usize,
    bm: usize,
    bk: usize,
    sparsity: f64,
    rng: &mut impl Rng,
) -> Tensor {
    let blocks = rows / bm * (cols / bk);
    let keep = ((1.0 - sparsity) * blocks as f64).round() as usize;
    block_sparse_count(rows, cols, bm, bk, keep.max(1), rng)
}

/// A `rows`×`cols` matrix with `keep` nonzero `bm`×`bk` blocks at
/// seeded places, holding values in `[0.25, 1)`.
pub fn block_sparse_count(
    rows: usize,
    cols: usize,
    bm: usize,
    bk: usize,
    keep: usize,
    rng: &mut impl Rng,
) -> Tensor {
    assert!(
        rows.is_multiple_of(bm) && cols.is_multiple_of(bk),
        "blocks must tile the matrix"
    );
    let bcols = cols / bk;
    let mut blocks: Vec<usize> = (0..rows / bm * bcols).collect();
    assert!(keep <= blocks.len(), "more blocks kept than the matrix has");
    blocks.shuffle(rng);
    blocks.truncate(keep);
    blocks.sort_unstable();
    let mut t = Tensor::zeros(vec![rows, cols]);
    for b in blocks {
        let (r0, c0) = (b / bcols * bm, b % bcols * bk);
        for i in r0..r0 + bm {
            for j in c0..c0 + bk {
                t.set(&[i, j], rng.gen_range(0.25..1.0));
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn every_seed_keeps_the_same_block_count() {
        for seed in 0..4 {
            let t = block_sparse(64, 32, 8, 4, 0.75, &mut SmallRng::seed_from_u64(seed));
            let nonzero = t.contiguous_data().iter().filter(|&&v| v != 0.0).count();
            // 8 x 8 = 64 blocks, a quarter kept, 32 values each.
            assert_eq!(nonzero, 16 * 32);
        }
    }
}
