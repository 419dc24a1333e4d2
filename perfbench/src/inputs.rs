//! Everything the benchmark feeds the system, generated from its seed.
//!
//! Matrices, right-hand sides and the small-job mix (shapes, kinds, class
//! tags) are all pure functions of the `--seed` argument, so one seed
//! always replays the same inputs and the program under test receives
//! only the generated data.

use tileqr::runtime::PriorityClass;
use tileqr::{gen, Matrix, Rng64};

/// Independent streams derived from one seed.
#[derive(Clone, Copy)]
enum Stream {
    Matrix = 1,
    Rhs = 2,
    Job = 3,
    Probe = 5,
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of item `index` of `stream` under the benchmark seed `seed`.
fn sub_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    mix64(mix64(seed ^ ((stream as u64) << 56)) ^ index)
}

/// Operation `index`'s input matrix (`rows x cols`, entries in `[-1, 1)`).
pub fn matrix(seed: u64, index: u64, rows: usize, cols: usize) -> Matrix<f64> {
    gen::random_matrix(rows, cols, sub_seed(seed, Stream::Matrix, index))
}

/// Operation `index`'s right-hand side (`rows x cols`).
pub fn rhs(seed: u64, index: u64, rows: usize, cols: usize) -> Matrix<f64> {
    gen::random_matrix(rows, cols, sub_seed(seed, Stream::Rhs, index))
}

/// Fixed probe vector of length `n` used by the factor check.
pub fn probe(n: usize) -> Vec<f64> {
    gen::random_vector(n, sub_seed(0, Stream::Probe, n as u64))
}

/// What a job of the small-job mix asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Factor only.
    Factor,
    /// Factor, then solve the least-squares problem for one right-hand side.
    Solve,
    /// Factor, then compute `Qᵀ c` for a `rows x k` block `c`.
    ApplyQt {
        /// Columns of `c`.
        k: usize,
    },
}

impl JobKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Factor => "factor",
            JobKind::Solve => "solve",
            JobKind::ApplyQt { .. } => "apply_qt",
        }
    }

    /// Columns of the right-hand side the job needs (0 for a factor).
    pub fn rhs_cols(self) -> usize {
        match self {
            JobKind::Factor => 0,
            JobKind::Solve => 1,
            JobKind::ApplyQt { k } => k,
        }
    }
}

/// One job of the small-job mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Position in the mix (also the input index for [`matrix`]/[`rhs`]).
    pub index: u64,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// What is computed.
    pub kind: JobKind,
    /// Service priority class tag.
    pub class: PriorityClass,
}

/// Tile size of the small-job mix.
pub const MIX_TILE: usize = 16;
/// Largest tile-row count of a mix job (192 rows).
pub const MIX_MAX_MT: usize = 12;
/// Largest tile-column count of a mix job (128 columns).
pub const MIX_MAX_NT: usize = 8;

/// Job `index` of the mix under `seed`.
///
/// One job in three is a single tile column of one to three tiles, a DAG
/// of at most four tasks, so the service's small-job batching fires; the
/// rest span 2..=12 tile rows by 2..=8 tile columns. Kinds and priority
/// classes are uniform over their three values.
pub fn job(seed: u64, index: u64) -> Job {
    let mut rng = Rng64::seed_from_u64(sub_seed(seed, Stream::Job, index));
    let pick = |rng: &mut Rng64, lo: usize, hi: usize| {
        lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
    };
    let (mt, nt) = if rng.next_u64().is_multiple_of(3) {
        (pick(&mut rng, 1, 3), 1)
    } else {
        let mt = pick(&mut rng, 2, MIX_MAX_MT);
        (mt, pick(&mut rng, 2, mt.min(MIX_MAX_NT)))
    };
    let kind = match rng.next_u64() % 3 {
        0 => JobKind::Factor,
        1 => JobKind::Solve,
        _ => JobKind::ApplyQt {
            k: pick(&mut rng, 1, 4),
        },
    };
    let class = match rng.next_u64() % 3 {
        0 => PriorityClass::Interactive,
        1 => PriorityClass::Standard,
        _ => PriorityClass::Bulk,
    };
    Job {
        index,
        rows: mt * MIX_TILE,
        cols: nt * MIX_TILE,
        kind,
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr::dag::TaskGraph;
    use tileqr::TreePolicy;

    fn mix(seed: u64, n: u64) -> Vec<Job> {
        (0..n).map(|i| job(seed, i)).collect()
    }

    #[test]
    fn same_seed_replays_mix_and_inputs() {
        assert_eq!(mix(7, 500), mix(7, 500));
        assert_eq!(matrix(7, 3, 32, 16), matrix(7, 3, 32, 16));
        assert_eq!(rhs(7, 3, 32, 2), rhs(7, 3, 32, 2));
    }

    #[test]
    fn different_seed_changes_mix_and_inputs() {
        assert_ne!(mix(7, 500), mix(8, 500));
        assert_ne!(matrix(7, 3, 32, 16), matrix(8, 3, 32, 16));
        // Items of one seed are independent of each other too.
        assert_ne!(matrix(7, 3, 32, 16), matrix(7, 4, 32, 16));
        assert_ne!(
            matrix(7, 3, 32, 16).as_slice(),
            rhs(7, 3, 32, 16).as_slice()
        );
    }

    #[test]
    fn mix_covers_shapes_kinds_classes_and_batchable_jobs() {
        let jobs = mix(1, 3000);
        let mut small = 0;
        let mut kinds = [0usize; 3];
        let mut classes = [0usize; 3];
        for j in &jobs {
            assert!((16..=192).contains(&j.rows) && (16..=128).contains(&j.cols));
            assert!(j.rows >= j.cols && j.rows % MIX_TILE == 0 && j.cols % MIX_TILE == 0);
            let (mt, nt) = (j.rows / MIX_TILE, j.cols / MIX_TILE);
            let tree = TreePolicy::Auto.resolve(mt, nt);
            if TaskGraph::build_tree(mt, nt, tree).len() <= 4 {
                small += 1;
            }
            kinds[match j.kind {
                JobKind::Factor => 0,
                JobKind::Solve => 1,
                JobKind::ApplyQt { .. } => 2,
            }] += 1;
            classes[match j.class {
                PriorityClass::Interactive => 0,
                PriorityClass::Standard => 1,
                PriorityClass::Bulk => 2,
            }] += 1;
        }
        let frac = small as f64 / jobs.len() as f64;
        assert!((0.28..0.40).contains(&frac), "batchable share {frac}");
        assert!(
            kinds.iter().chain(&classes).all(|&c| c > 900),
            "{kinds:?} {classes:?}"
        );
        assert!(jobs.iter().any(|j| (j.rows, j.cols) == (16, 16)));
        assert!(jobs.iter().any(|j| (j.rows, j.cols) == (192, 128)));
    }
}
