//! Correctness checks and the failure tally.
//!
//! Every operation the benchmark issues is checked, and every failure
//! (an error from the system, a refused submission, or a result that
//! fails its check) counts against the operations attempted.
//!
//! Checks run on compact evidence taken from each result, so a burst of
//! served results can be checked without keeping whole factorizations
//! alive. The inputs are regenerated from the seed.
//! With `z` a fixed probe vector and `tol = qr_tolerance(m, n)`:
//!
//! - factor: `|‖Rz‖² − ‖Az‖²| / (‖A‖²_F ‖z‖²) ≤ tol` — `RᵀR = AᵀA` along `z`;
//! - solve, square `A`: normwise backward error
//!   `‖b − Ax‖ / (‖A‖_F ‖x‖ + ‖b‖) ≤ tol`;
//! - solve, tall `A`: least-squares optimality
//!   `‖Aᵀ(b − Ax)‖ / (‖A‖_F (‖A‖_F ‖x‖ + ‖b‖)) ≤ tol`;
//! - apply_qt (`y = Qᵀc`): `‖Aᵀc − Rᵀy‖_F / (‖A‖_F ‖c‖_F) ≤ tol` and
//!   `|‖y‖_F − ‖c‖_F| / ‖c‖_F ≤ tol`.
//!
//! On `square` and `tall` the R at the full worker count must also be
//! bit-identical to the 1-worker R of the same input ([`identical`]).

use crate::inputs::{self, Job, JobKind};
use tileqr::kernels::validate::qr_tolerance;
use tileqr::ops::{frobenius_norm, matmul_tn, matvec, nrm2};
use tileqr::runtime::ServiceError;
use tileqr::Matrix;

/// What one operation came to.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed and passed its check.
    Correct,
    /// Completed, but the result failed its check.
    Wrong(String),
    /// The system returned an error.
    Error(String),
    /// Admission control turned the job away (`ServiceError::Saturated`).
    Refused,
}

/// Operations attempted and how they failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Results that failed their check.
    pub wrong: u64,
    /// Operations the system failed with an error.
    pub errors: u64,
    /// Submissions refused by admission control.
    pub refused: u64,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let note = match outcome {
            Outcome::Correct => return,
            Outcome::Wrong(why) => {
                self.wrong += 1;
                format!("wrong result: {why}")
            }
            Outcome::Error(why) => {
                self.errors += 1;
                format!("error: {why}")
            }
            Outcome::Refused => {
                self.refused += 1;
                "refused by admission control".to_string()
            }
        };
        self.first_failure.get_or_insert(note);
    }

    /// Count a submission: a refusal or error is recorded as this
    /// operation's outcome at once; an accepted handle is passed on and
    /// its outcome is recorded when its result has been checked.
    pub fn admit<H>(&mut self, submitted: Result<H, ServiceError>) -> Option<H> {
        match submitted {
            Ok(handle) => Some(handle),
            Err(ServiceError::Saturated { .. }) => {
                self.record(Outcome::Refused);
                None
            }
            Err(e) => {
                self.record(Outcome::Error(e.to_string()));
                None
            }
        }
    }

    /// Whether the run is correct: no operation failed, for any reason.
    /// A call that errors or is refused is not timed, so letting it pass
    /// would reward a change that fails calls.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Operations that failed, for any reason.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.refused
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The compact part of a result the checks need.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// `R z` (first `cols` entries) for the probe vector `z`.
    rz: Vec<f64>,
    /// Solution of a solve job.
    x: Option<Vec<f64>>,
    /// `Rᵀ y` and `‖y‖_F` of an apply_qt job's `y = Qᵀ c`.
    qtc: Option<(Matrix<f64>, f64)>,
}

impl Evidence {
    /// Take the evidence from a result: its `R` (`rows x cols`), and the
    /// solution or `Qᵀ c` where the job computed one.
    pub fn take(r: &Matrix<f64>, x: Option<Vec<f64>>, y: Option<&Matrix<f64>>) -> Self {
        let n = r.cols();
        let rz =
            matvec(r, &inputs::probe(n)).map_or_else(|_| vec![f64::NAN; n], |v| v[..n].to_vec());
        let qtc = y.map(|y| {
            let rty = matmul_tn(r, y).unwrap_or_else(|_| Matrix::filled(n, y.cols(), f64::NAN));
            (rty, frobenius_norm(y))
        });
        Evidence { rz, x, qtc }
    }

    /// A copy whose solution is perturbed, as a corrupted result would be.
    #[cfg(test)]
    pub fn corrupt_solution(&self) -> Self {
        let mut bad = self.clone();
        if let Some(x) = bad.x.as_mut() {
            x[0] += 1e-6;
        }
        bad
    }
}

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

/// Check the evidence of `job` (issued under `seed`) against its inputs.
pub fn check(seed: u64, job: &Job, ev: &Evidence) -> Outcome {
    let (m, n) = (job.rows, job.cols);
    let a = inputs::matrix(seed, job.index, m, n);
    let c = inputs::rhs(seed, job.index, m, job.kind.rhs_cols());
    let tol: f64 = qr_tolerance(m, n);
    let na = frobenius_norm(&a);
    let z = inputs::probe(n);
    let az = matvec(&a, &z).expect("probe length matches A");
    let gram = (nrm2(&ev.rz).powi(2) - nrm2(&az).powi(2)).abs() / (na * na * nrm2(&z).powi(2));
    let mut errors = vec![("factor R^T R vs A^T A", gram)];
    match job.kind {
        JobKind::Factor => {}
        JobKind::Solve => {
            let Some(x) = &ev.x else {
                return Outcome::Wrong("solve job returned no solution".into());
            };
            let b = c.col(0);
            let ax = matvec(&a, x).expect("solution length matches A");
            let resid: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
            let scale = na * nrm2(x) + nrm2(b);
            if m == n {
                errors.push(("solve backward error", nrm2(&resid) / scale));
            } else {
                let rm = Matrix::from_col_major(m, 1, resid).expect("residual is m x 1");
                let atr = matmul_tn(&a, &rm).expect("A^T r shapes match");
                errors.push((
                    "least-squares optimality",
                    frobenius_norm(&atr) / (na * scale),
                ));
            }
        }
        JobKind::ApplyQt { .. } => {
            let Some((rty, ny)) = &ev.qtc else {
                return Outcome::Wrong("apply_qt job returned no product".into());
            };
            let atc = matmul_tn(&a, &c).expect("A^T c shapes match");
            let nc = frobenius_norm(&c);
            errors.push((
                "apply_qt A^T c vs R^T y",
                dist(atc.as_slice(), rty.as_slice()) / (na * nc),
            ));
            errors.push(("apply_qt norm preservation", (ny - nc).abs() / nc));
        }
    }
    match errors.iter().find(|(_, e)| !(e.is_finite() && *e <= tol)) {
        None => Outcome::Correct,
        Some((what, e)) => Outcome::Wrong(format!(
            "{} job {} ({m}x{n}): {what} {e:.3e} > tol {tol:.3e}",
            job.kind.name(),
            job.index
        )),
    }
}

/// Bitwise equality of two factors (`-0.0 != 0.0`, NaN payloads compared).
pub fn identical(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tileqr::runtime::{JobSpec, QrService, ServiceConfig};
    use tileqr::{QrOptions, TiledQr, TreePolicy};

    fn run(seed: u64, job: &Job) -> (Evidence, Matrix<f64>) {
        let a = inputs::matrix(seed, job.index, job.rows, job.cols);
        let c = inputs::rhs(seed, job.index, job.rows, job.kind.rhs_cols());
        let qr =
            TiledQr::factor(&a, &QrOptions::new().tile_size(16).tree(TreePolicy::Auto)).unwrap();
        let r = qr.r();
        let ev = match job.kind {
            JobKind::Factor => Evidence::take(&r, None, None),
            JobKind::Solve => Evidence::take(&r, Some(qr.solve(c.col(0)).unwrap()), None),
            JobKind::ApplyQt { .. } => Evidence::take(&r, None, Some(&qr.apply_qt(&c).unwrap())),
        };
        (ev, r)
    }

    fn job(rows: usize, cols: usize, kind: JobKind) -> Job {
        Job {
            index: 5,
            rows,
            cols,
            kind,
            class: Default::default(),
        }
    }

    #[test]
    fn correct_results_pass_every_check() {
        for kind in [JobKind::Factor, JobKind::Solve, JobKind::ApplyQt { k: 3 }] {
            for (m, n) in [(48, 48), (96, 32)] {
                let j = job(m, n, kind);
                let (ev, _) = run(11, &j);
                assert_eq!(check(11, &j, &ev), Outcome::Correct, "{kind:?} {m}x{n}");
            }
        }
    }

    #[test]
    fn a_wrong_input_or_factor_fails_the_check() {
        let j = job(64, 32, JobKind::ApplyQt { k: 2 });
        let (ev, r) = run(11, &j);
        // Evidence from another seed's input does not match this one.
        assert!(matches!(check(12, &j, &ev), Outcome::Wrong(_)));
        let mut r2 = r.clone();
        r2.as_mut_slice()[0] = -r2.as_slice()[0];
        assert!(!identical(&r, &r2));
        assert!(identical(&r, &r.clone()));
    }

    #[test]
    fn corrupted_solution_and_refused_submit_both_count_as_failed() {
        let mut tally = Tally::default();

        // A solve whose solution was corrupted after the fact.
        for (m, n) in [(64, 64), (128, 32)] {
            let j = job(m, n, JobKind::Solve);
            let (ev, _) = run(3, &j);
            tally.record(check(3, &j, &ev));
            tally.record(check(3, &j, &ev.corrupt_solution()));
        }

        // A try_submit refused by admission control: one slot, held by a
        // job that cannot finish before the second submission.
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let big = inputs::matrix(3, 0, 256, 256);
        let held = tally.admit(service.try_submit(JobSpec::factor(big).tile_size(16)));
        let refused =
            tally.admit(service.try_submit(JobSpec::factor(inputs::matrix(3, 1, 16, 16))));
        assert!(refused.is_none());
        let result = held
            .expect("the first submission is admitted")
            .wait_timeout(Duration::from_secs(60));
        assert!(matches!(result, Ok(Ok(_))));
        tally.record(Outcome::Correct);
        service.shutdown();

        assert_eq!(tally.attempted, 6);
        assert_eq!((tally.wrong, tally.refused, tally.errors), (2, 1, 0));
        assert_eq!(tally.failed(), 3);
        assert!((tally.failed_frac() - 0.5).abs() < 1e-12);
        assert!(!tally.correct());
        assert!(tally.first_failure.unwrap().starts_with("wrong result"));
    }

    #[test]
    fn an_error_or_a_refusal_alone_makes_the_run_incorrect() {
        let mut clean = Tally::default();
        clean.record(Outcome::Correct);
        assert!(clean.correct());
        for failure in [Outcome::Error("worker panicked".into()), Outcome::Refused] {
            let mut tally = clean.clone();
            tally.record(failure);
            assert_eq!((tally.wrong, tally.failed()), (0, 1));
            assert!(!tally.correct());
        }
    }
}
