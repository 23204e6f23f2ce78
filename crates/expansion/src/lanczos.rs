//! Symmetric Lanczos eigensolver with full reorthogonalization.
//!
//! Built from scratch (the reproduction environment has no mature
//! sparse eigensolver crate): Krylov iteration on the normalized
//! adjacency operator with the trivial eigenvector deflated, a Sturm
//! bisection eigenvalue solver for the resulting tridiagonal matrix,
//! and inverse iteration for the Ritz vector. Validated against the
//! closed-form spectra of paths, cycles, complete and bipartite graphs
//! in the test suite.

use crate::matvec::CompactComponent;
use rand::Rng;

/// Outcome of a Lanczos run on the deflated normalized adjacency.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// `λ₂` of the normalized Laplacian (`= 1 − μ`, where `μ` is the
    /// largest eigenvalue of the deflated normalized adjacency).
    pub lambda2: f64,
    /// The corresponding eigenvector (Fiedler vector in the `D^{1/2}`
    /// scaled space; [`fiedler`](crate::fiedler::fiedler) converts it
    /// to vertex-space sweep scores).
    pub ritz_vector: Vec<f64>,
    /// Lanczos iterations performed.
    pub iterations: usize,
    /// Estimated residual `‖Mx − μx‖`.
    pub residual: f64,
}

/// Dot product.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `a -= c * b`.
#[inline]
fn axpy(a: &mut [f64], c: f64, b: &[f64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x -= c * y;
    }
}

/// Projects `x` orthogonal to unit vector `v`.
#[inline]
fn deflate(x: &mut [f64], v: &[f64]) {
    let c = dot(x, v);
    axpy(x, c, v);
}

/// Width of the blocks [`axpy_dot`] updates at once.
const BLOCK: usize = 8;

/// `w -= c * prev`, then returns `w · q`, in one pass.
///
/// Bit-identical to `axpy(w, c, prev); dot(w, q)`. Within a block the
/// updates and products are independent, so the compiler vectorizes
/// them; the products are then added one at a time in index order onto
/// one accumulator seeded with `-0.0` (the seed of `Iterator::sum` for
/// `f64`), which is exactly the add chain of [`dot`].
fn axpy_dot(w: &mut [f64], c: f64, prev: &[f64], q: &[f64]) -> f64 {
    assert!(prev.len() == w.len() && q.len() == w.len());
    let mut acc = -0.0;
    let mut ws = w.chunks_exact_mut(BLOCK);
    let mut ps = prev.chunks_exact(BLOCK);
    let mut qs = q.chunks_exact(BLOCK);
    for ((wb, pb), qb) in (&mut ws).zip(&mut ps).zip(&mut qs) {
        let mut prod = [0.0; BLOCK];
        for k in 0..BLOCK {
            wb[k] -= c * pb[k];
            prod[k] = wb[k] * qb[k];
        }
        for p in prod {
            acc += p;
        }
    }
    let tail = ws.into_remainder().iter_mut().zip(ps.remainder());
    for ((x, p), y) in tail.zip(qs.remainder()) {
        *x -= c * p;
        acc += *x * y;
    }
    acc
}

/// Full reorthogonalization of `w`: Gram–Schmidt against every basis
/// vector and then `v1`, twice ("twice is enough"). The four passes run
/// as one chain through [`axpy_dot`], so each projection's subtraction
/// rides along the next projection's dot product.
fn reorthogonalize(w: &mut [f64], basis: &[Vec<f64>], v1: &[f64]) {
    let pass = basis.iter().map(Vec::as_slice).chain([v1]);
    let mut chain = pass.clone().chain(pass);
    let mut prev = chain.next().expect("the chain holds v1");
    let mut c = dot(w, prev);
    for q in chain {
        c = axpy_dot(w, c, prev, q);
        prev = q;
    }
    axpy(w, c, prev);
}

/// The Krylov basis and the tridiagonal `(alphas, betas)` of a run.
struct Krylov {
    basis: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
}

/// The Lanczos recurrence from the deflated unit vector `start`, for at
/// most `m_max` iterations.
fn krylov(comp: &CompactComponent, v1: &[f64], start: Vec<f64>, m_max: usize, tol: f64) -> Krylov {
    let mut basis: Vec<Vec<f64>> = vec![start];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut w = vec![0.0; basis[0].len()];

    for j in 0..m_max {
        comp.apply_normalized_adjacency(&basis[j], &mut w);
        deflate(&mut w, v1);
        let alpha = dot(&basis[j], &w);
        alphas.push(alpha);
        // the rest of the iteration only builds the next basis vector
        if j + 1 == m_max {
            break;
        }
        // w -= alpha v_j + beta_j v_{j-1}
        axpy(&mut w, alpha, &basis[j]);
        if j > 0 {
            axpy(&mut w, betas[j - 1], &basis[j - 1]);
        }
        reorthogonalize(&mut w, &basis, v1);
        let beta = norm(&w);
        if beta < 1e-12 {
            break;
        }
        betas.push(beta);
        let next: Vec<f64> = w.iter().map(|x| x / beta).collect();
        basis.push(next);
        // cheap convergence probe every few iterations; the Ritz value
        // is only needed (to check it is finite) once beta is small
        if j >= 8 && j % 4 == 0 && beta < tol {
            let mu = tridiag_kth_largest(&alphas, &betas[..alphas.len() - 1], 1);
            if mu.is_finite() {
                break;
            }
        }
    }
    Krylov {
        basis,
        alphas,
        betas,
    }
}

/// Number of eigenvalues of the tridiagonal `(alpha, beta)` strictly
/// less than `x`, by the Sturm sequence of the shifted LDLᵀ recurrence.
fn sturm_count(alpha: &[f64], beta: &[f64], x: f64) -> usize {
    let mut count = 0usize;
    let mut d = 1.0f64;
    for i in 0..alpha.len() {
        let b2 = if i == 0 {
            0.0
        } else {
            beta[i - 1] * beta[i - 1]
        };
        d = alpha[i] - x - b2 / d;
        if d == 0.0 {
            d = -1e-300; // perturb exact singularity
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// `k`-th largest eigenvalue (k = 1 is the largest) of the symmetric
/// tridiagonal `(alpha, beta)`, by bisection on the Sturm count.
fn tridiag_kth_largest(alpha: &[f64], beta: &[f64], k: usize) -> f64 {
    let m = alpha.len();
    assert!(k >= 1 && k <= m);
    // Gershgorin bounds
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..m {
        let r = (if i > 0 { beta[i - 1].abs() } else { 0.0 })
            + (if i < m - 1 { beta[i].abs() } else { 0.0 });
        lo = lo.min(alpha[i] - r);
        hi = hi.max(alpha[i] + r);
    }
    // want the eigenvalue with exactly m-k eigenvalues below it
    let target = m - k;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count(alpha, beta, mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Eigenvector of the tridiagonal for eigenvalue `mu` by inverse
/// iteration (tridiagonal solve with partial pivoting).
fn tridiag_eigenvector<R: Rng + ?Sized>(
    alpha: &[f64],
    beta: &[f64],
    mu: f64,
    rng: &mut R,
) -> Vec<f64> {
    let m = alpha.len();
    let mut y: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let nrm = norm(&y).max(1e-300);
    y.iter_mut().for_each(|v| *v /= nrm);
    // a couple of inverse-iteration sweeps suffice for well-separated
    // Ritz values; the shift is perturbed to keep the solve stable.
    let shift = mu + 1e-12;
    for _ in 0..3 {
        y = solve_tridiag_shifted(alpha, beta, shift, &y);
        let nrm = norm(&y).max(1e-300);
        y.iter_mut().for_each(|v| *v /= nrm);
    }
    y
}

/// Solves `(T - shift·I) x = b` for tridiagonal `T`, Gaussian
/// elimination with partial pivoting (stable even near-singular —
/// inverse iteration deliberately solves an almost-singular system).
fn solve_tridiag_shifted(alpha: &[f64], beta: &[f64], shift: f64, b: &[f64]) -> Vec<f64> {
    let m = alpha.len();
    let guard = |x: f64| if x.abs() < 1e-300 { 1e-300 } else { x };
    if m == 1 {
        return vec![b[0] / guard(alpha[0] - shift)];
    }
    // Row i of the (pivoted) upper-triangular factor: columns
    // i, i+1, i+2 → (d, u1, u2); u2 fills in when rows swap.
    let mut d: Vec<f64> = alpha.iter().map(|&a| a - shift).collect();
    let mut u1: Vec<f64> = (0..m)
        .map(|i| if i < m - 1 { beta[i] } else { 0.0 })
        .collect();
    let mut u2: Vec<f64> = vec![0.0; m];
    let mut rhs = b.to_vec();
    for i in 0..m - 1 {
        // Row i+1 currently holds (sub, d[i+1], u1[i+1]) with
        // sub = beta[i] (untouched below the diagonal so far).
        let mut sub = beta[i];
        if sub.abs() > d[i].abs() {
            // swap rows i and i+1
            // old row i:   (d[i],  u1[i],   u2[i])
            // old row i+1: (sub,   d[i+1],  u1[i+1])
            let (odi, ou1, ou2) = (d[i], u1[i], u2[i]);
            d[i] = sub;
            u1[i] = d[i + 1];
            u2[i] = u1[i + 1];
            sub = odi;
            d[i + 1] = ou1;
            u1[i + 1] = ou2;
            rhs.swap(i, i + 1);
        }
        let factor = sub / guard(d[i]);
        d[i + 1] -= factor * u1[i];
        u1[i + 1] -= factor * u2[i];
        rhs[i + 1] -= factor * rhs[i];
    }
    // back substitution
    let mut x = vec![0.0; m];
    for i in (0..m).rev() {
        let mut acc = rhs[i];
        if i + 1 < m {
            acc -= u1[i] * x[i + 1];
        }
        if i + 2 < m {
            acc -= u2[i] * x[i + 2];
        }
        x[i] = acc / guard(d[i]);
    }
    x
}

/// Runs Lanczos on the deflated normalized adjacency of `comp`,
/// returning `λ₂` of the normalized Laplacian and its Ritz vector.
///
/// `max_iter` bounds the Krylov dimension (full reorthogonalization
/// costs O(iter² · n)). `tol` is not a residual target: every fourth
/// iteration from the ninth on, the run stops once `β` (the next
/// off-diagonal of the tridiagonal) is below `tol`. `β` is the norm of
/// the part of `M·q_j` that is new to the Krylov space, not the Ritz
/// residual, so it only gets that small once the space is numerically
/// invariant. A graph with many distinct eigenvalues therefore runs
/// all `min(max_iter, n)` iterations however early the Ritz pair
/// converges: every solve of `specs/random_faults.toml` runs the full
/// 160.
///
/// Returns `None` for components of fewer than 2 nodes (λ₂ undefined).
pub fn lanczos_lambda2<R: Rng + ?Sized>(
    comp: &CompactComponent,
    max_iter: usize,
    tol: f64,
    rng: &mut R,
) -> Option<LanczosResult> {
    lanczos_with(comp, max_iter, tol, rng, krylov)
}

/// [`lanczos_lambda2`] around the Krylov recurrence `run` (the tests
/// pass the unfused reference recurrence here).
fn lanczos_with<R: Rng + ?Sized>(
    comp: &CompactComponent,
    max_iter: usize,
    tol: f64,
    rng: &mut R,
    run: fn(&CompactComponent, &[f64], Vec<f64>, usize, f64) -> Krylov,
) -> Option<LanczosResult> {
    let n = comp.len();
    if n < 2 {
        return None;
    }
    let m_max = max_iter.min(n).max(2);
    let v1 = comp.trivial_eigenvector();

    // random deflated unit start vector
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    deflate(&mut v, &v1);
    let nrm = norm(&v);
    if nrm < 1e-12 {
        // pathological start (can only happen for tiny n); use e0
        v = vec![0.0; n];
        v[0] = 1.0;
        deflate(&mut v, &v1);
    }
    let nrm = norm(&v).max(1e-300);
    v.iter_mut().for_each(|x| *x /= nrm);

    let Krylov {
        basis,
        alphas,
        betas,
    } = run(comp, &v1, v, m_max, tol);

    let m = alphas.len();
    let beta_slice = &betas[..m.saturating_sub(1)];
    let mu = tridiag_kth_largest(&alphas, beta_slice, 1);
    let y = tridiag_eigenvector(&alphas, beta_slice, mu, rng);
    // map back: x = V y
    let mut x = vec![0.0; n];
    for (c, q) in y.iter().zip(&basis) {
        for (xi, qi) in x.iter_mut().zip(q) {
            *xi += c * qi;
        }
    }
    deflate(&mut x, &v1);
    let nrm = norm(&x).max(1e-300);
    x.iter_mut().for_each(|v| *v /= nrm);
    // true residual
    let mut mx = vec![0.0; n];
    comp.apply_normalized_adjacency(&x, &mut mx);
    deflate(&mut mx, &v1);
    let mu_rayleigh = dot(&x, &mx);
    axpy(&mut mx, mu_rayleigh, &x);
    let residual = norm(&mx);

    Some(LanczosResult {
        lambda2: 1.0 - mu_rayleigh,
        ritz_vector: x,
        iterations: m,
        residual,
    })
}

/// Power iteration with deflation on `(M + I)` — slower fallback and
/// cross-check for [`lanczos_lambda2`] (ablation A1 compares them).
pub fn power_lambda2<R: Rng + ?Sized>(
    comp: &CompactComponent,
    max_iter: usize,
    tol: f64,
    rng: &mut R,
) -> Option<LanczosResult> {
    let n = comp.len();
    if n < 2 {
        return None;
    }
    let v1 = comp.trivial_eigenvector();
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    deflate(&mut x, &v1);
    let nrm = norm(&x).max(1e-300);
    x.iter_mut().for_each(|v| *v /= nrm);
    let mut y = vec![0.0; n];
    let mut mu = 0.0;
    let mut iters = 0;
    for it in 0..max_iter {
        iters = it + 1;
        comp.apply_normalized_adjacency(&x, &mut y);
        // (M + I) x keeps the spectrum nonnegative: [0, 2]
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += *xi;
        }
        deflate(&mut y, &v1);
        let nrm = norm(&y).max(1e-300);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / nrm;
        }
        let new_mu = nrm - 1.0; // Rayleigh proxy for M
        let converged = (new_mu - mu).abs() < tol * (1.0 + new_mu.abs()) && it > 10;
        mu = new_mu;
        if converged {
            break;
        }
    }
    // refine with exact Rayleigh quotient
    comp.apply_normalized_adjacency(&x, &mut y);
    deflate(&mut y, &v1);
    let mu_r = dot(&x, &y);
    axpy(&mut y, mu_r, &x);
    let residual = norm(&y);
    Some(LanczosResult {
        lambda2: 1.0 - mu_r,
        ritz_vector: x,
        iterations: iters,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_graph::{generators, NodeSet};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Reference recurrence that [`krylov`] must match bit for bit: one
    /// `dot` and one `axpy` pass per projection, and a full
    /// reorthogonalization on the last iteration as well.
    fn krylov_reference(
        comp: &CompactComponent,
        v1: &[f64],
        start: Vec<f64>,
        m_max: usize,
        tol: f64,
    ) -> Krylov {
        let mut basis: Vec<Vec<f64>> = vec![start];
        let mut alphas: Vec<f64> = Vec::new();
        let mut betas: Vec<f64> = Vec::new();
        let mut w = vec![0.0; basis[0].len()];
        for j in 0..m_max {
            comp.apply_normalized_adjacency(&basis[j], &mut w);
            deflate(&mut w, v1);
            let alpha = dot(&basis[j], &w);
            alphas.push(alpha);
            axpy(&mut w, alpha, &basis[j]);
            if j > 0 {
                axpy(&mut w, betas[j - 1], &basis[j - 1]);
            }
            for _ in 0..2 {
                for q in &basis {
                    let c = dot(&w, q);
                    axpy(&mut w, c, q);
                }
                deflate(&mut w, v1);
            }
            let beta = norm(&w);
            if beta < 1e-12 || j + 1 == m_max {
                break;
            }
            betas.push(beta);
            let next: Vec<f64> = w.iter().map(|x| x / beta).collect();
            basis.push(next);
            if j >= 8 && j % 4 == 0 && beta < tol {
                let mu = tridiag_kth_largest(&alphas, &betas[..alphas.len() - 1], 1);
                if mu.is_finite() {
                    break;
                }
            }
        }
        Krylov {
            basis,
            alphas,
            betas,
        }
    }

    /// Inputs for the kernel test: signed zeros, subnormals, and values
    /// from 1e-300 to 1e300, so cancellation, underflow and rounding
    /// all occur.
    fn awkward(n: usize, salt: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(salt);
        (0..n)
            .map(|i| match (i as u64 + salt) % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
                3 => rng.gen_range(-1.0..1.0) * 1e300,
                4 => rng.gen_range(-1.0..1.0) * 1e-300,
                _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(0u32..16) as i32 - 8),
            })
            .collect()
    }

    #[test]
    fn axpy_dot_is_bit_identical_to_axpy_then_dot() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 0..=4 * BLOCK + 1 {
            for salt in 0..6u64 {
                let prev = awkward(n, salt);
                let q = awkward(n, salt + 1);
                let w0 = awkward(n, salt + 2);
                for c in [0.0, -0.0, 0.75, -3.5e-7, 1e300, f64::MIN_POSITIVE] {
                    let mut want = w0.clone();
                    axpy(&mut want, c, &prev);
                    let want_dot = dot(&want, &q);
                    let mut got = w0.clone();
                    let got_dot = axpy_dot(&mut got, c, &prev, &q);
                    assert_eq!(bits(&got), bits(&want), "n={n} salt={salt} c={c}");
                    assert_eq!(
                        got_dot.to_bits(),
                        want_dot.to_bits(),
                        "n={n} salt={salt} c={c}: {got_dot} vs {want_dot}"
                    );
                }
            }
        }
        // an all-zero product chain keeps the sign of the `-0.0` seed
        let ones = [1.0; BLOCK + 3];
        let mut w = [-0.0; BLOCK + 3];
        let r = axpy_dot(&mut w, 0.0, &[0.0; BLOCK + 3], &ones);
        assert!(r == 0.0 && r.is_sign_negative(), "{r}");
        assert_eq!(r.to_bits(), dot(&w, &ones).to_bits());
    }

    #[test]
    fn fused_lanczos_is_bit_identical_to_the_reference_recurrence() {
        let mut faulted = NodeSet::full(400);
        for v in [3, 41, 42, 77, 150, 151, 152, 230, 301, 399] {
            faulted.remove(v);
        }
        let cases: Vec<(&str, fx_graph::CsrGraph, NodeSet)> = vec![
            (
                "torus:12,12",
                generators::torus(&[12, 12]),
                NodeSet::full(144),
            ),
            ("torus:20,20 faulted", generators::torus(&[20, 20]), faulted),
            ("mesh:9,11", generators::mesh(&[9, 11]), NodeSet::full(99)),
            ("hypercube:8", generators::hypercube(8), NodeSet::full(256)),
            (
                "random-regular:300,4",
                generators::random_regular(300, 4, &mut SmallRng::seed_from_u64(5)),
                NodeSet::full(300),
            ),
            ("path:2", generators::path(2), NodeSet::full(2)),
            ("complete:5", generators::complete(5), NodeSet::full(5)),
        ];
        for (name, g, alive) in &cases {
            let comp = CompactComponent::largest(g, alive).unwrap();
            for (max_iter, tol) in [(160, 1e-9), (40, 0.5), (7, 1e-9)] {
                let mut rng = SmallRng::seed_from_u64(17);
                let got = lanczos_lambda2(&comp, max_iter, tol, &mut rng).unwrap();
                let mut rng = SmallRng::seed_from_u64(17);
                let want = lanczos_with(&comp, max_iter, tol, &mut rng, krylov_reference).unwrap();
                let ctx = format!("{name} max_iter={max_iter} tol={tol}");
                assert_eq!(got.iterations, want.iterations, "{ctx}");
                assert_eq!(got.lambda2.to_bits(), want.lambda2.to_bits(), "{ctx}");
                assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{ctx}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.ritz_vector), bits(&want.ritz_vector), "{ctx}");
            }
        }
    }

    fn lambda2_of(g: &fx_graph::CsrGraph) -> f64 {
        let alive = NodeSet::full(g.num_nodes());
        let comp = CompactComponent::largest(g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(12345);
        lanczos_lambda2(&comp, 200, 1e-10, &mut rng)
            .unwrap()
            .lambda2
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n normalized Laplacian: λ₂ = n/(n-1)
        for n in [4usize, 8, 16] {
            let l2 = lambda2_of(&generators::complete(n));
            let expect = n as f64 / (n as f64 - 1.0);
            assert!((l2 - expect).abs() < 1e-8, "K_{n}: {l2} vs {expect}");
        }
    }

    #[test]
    fn cycle_spectrum() {
        // C_n: λ₂ = 1 - cos(2π/n)
        for n in [8usize, 16, 40] {
            let l2 = lambda2_of(&generators::cycle(n));
            let expect = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
            assert!((l2 - expect).abs() < 1e-7, "C_{n}: {l2} vs {expect}");
        }
    }

    #[test]
    fn path2_spectrum() {
        // P_2: eigenvalues {0, 2}
        let l2 = lambda2_of(&generators::path(2));
        assert!((l2 - 2.0).abs() < 1e-9, "{l2}");
    }

    #[test]
    fn complete_bipartite_spectrum() {
        // K_{a,b} normalized Laplacian eigenvalues: 0, 1 (multiplicity
        // a+b-2), 2 → λ₂ = 1
        let l2 = lambda2_of(&generators::complete_bipartite(3, 5));
        assert!((l2 - 1.0).abs() < 1e-8, "{l2}");
    }

    #[test]
    fn hypercube_spectrum() {
        // Q_d: normalized Laplacian eigenvalues 2k/d → λ₂ = 2/d
        for d in [3usize, 5] {
            let l2 = lambda2_of(&generators::hypercube(d));
            let expect = 2.0 / d as f64;
            assert!((l2 - expect).abs() < 1e-8, "Q_{d}: {l2} vs {expect}");
        }
    }

    #[test]
    fn power_iteration_agrees_with_lanczos() {
        let g = generators::torus(&[6, 6]);
        let alive = NodeSet::full(36);
        let comp = CompactComponent::largest(&g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let lan = lanczos_lambda2(&comp, 200, 1e-12, &mut rng).unwrap();
        let pow = power_lambda2(&comp, 20_000, 1e-13, &mut rng).unwrap();
        assert!(
            (lan.lambda2 - pow.lambda2).abs() < 1e-6,
            "lanczos {} vs power {}",
            lan.lambda2,
            pow.lambda2
        );
    }

    #[test]
    fn residuals_are_small() {
        let g = generators::margulis(8);
        let alive = NodeSet::full(64);
        let comp = CompactComponent::largest(&g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        let r = lanczos_lambda2(&comp, 200, 1e-10, &mut rng).unwrap();
        assert!(r.residual < 1e-6, "residual {}", r.residual);
        assert!(r.lambda2 > 0.05, "expander gap {}", r.lambda2);
    }

    #[test]
    fn single_node_returns_none() {
        let g = generators::path(1);
        let alive = NodeSet::full(1);
        let comp = CompactComponent::largest(&g, &alive).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(lanczos_lambda2(&comp, 10, 1e-8, &mut rng).is_none());
    }

    #[test]
    fn sturm_bisection_on_known_tridiagonal() {
        // T = [[2,1],[1,2]] → eigenvalues 1, 3
        let alpha = [2.0, 2.0];
        let beta = [1.0];
        assert!((tridiag_kth_largest(&alpha, &beta, 1) - 3.0).abs() < 1e-10);
        assert!((tridiag_kth_largest(&alpha, &beta, 2) - 1.0).abs() < 1e-10);
    }
}
