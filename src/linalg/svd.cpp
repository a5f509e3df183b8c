#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/eigen_sym.hpp"

namespace ekm {
namespace {

// Gram–Schmidt re-orthonormalization of column j of `m` against columns
// [0, j); used to fill in factor columns for (near-)zero singular values.
void orthonormalize_column(Matrix& m, std::size_t j, Rng& rng) {
  const std::size_t n = m.rows();
  std::normal_distribution<double> dist;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (attempt > 0) {
      for (std::size_t i = 0; i < n; ++i) m(i, j) = dist(rng);
    }
    for (std::size_t c = 0; c < j; ++c) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += m(i, c) * m(i, j);
      for (std::size_t i = 0; i < n; ++i) m(i, j) -= proj * m(i, c);
    }
    double nrm = 0.0;
    for (std::size_t i = 0; i < n; ++i) nrm += m(i, j) * m(i, j);
    nrm = std::sqrt(nrm);
    if (nrm > 1e-12) {
      for (std::size_t i = 0; i < n; ++i) m(i, j) /= nrm;
      return;
    }
  }
  // Degenerate only if j >= rank of the whole space; leave the column zero.
}

// Smallest Gram eigenvalue distinguishable from rounding noise: the
// tred2/tql2 eigensolver resolves eigenvalues to O(dim·eps·λmax), so
// anything below that is noise and its square root must be reported as an
// exact zero (σ below √eps·σmax is unresolvable through A^T A by
// construction).
double gram_noise_floor(double lambda_max, std::size_t dim) {
  return 32.0 * std::numeric_limits<double>::epsilon() *
         static_cast<double>(std::max<std::size_t>(dim, 1)) * lambda_max;
}

// The one Gram-route SVD behind thin_svd, truncated_svd and right_svd.
// Eigendecomposes A^T A (d <= n) or A A^T (n < d), reports the whole
// spectrum with values at or below the noise tolerance as exact zeros,
// and forms the first t columns of V and, when `with_u`, of U. The
// recovered factor (U = A V / sigma, or V = A^T U / sigma) is built for
// those t columns only: column j of the product does not depend on how
// many columns are formed, and orthonormalize_column fills the columns
// in ascending order from one RNG stream, so the t columns are bitwise
// those of the full decomposition.
Svd gram_svd(const Matrix& a, std::size_t t, bool with_u) {
  EKM_EXPECTS_MSG(!a.empty(), "thin_svd of empty matrix");
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  const std::size_t r = std::min(n, d);
  EKM_EXPECTS(t <= r);
  const bool gram_of_columns = d <= n;  // the eigenvectors are V, else U

  const SymmetricEigen eig =
      eigen_symmetric(gram_of_columns ? gram_at_a(a) : gram_a_at(a));
  Svd out;
  out.sigma.resize(r);
  for (std::size_t j = 0; j < r; ++j) {
    out.sigma[j] = std::sqrt(std::max(eig.values[j], 0.0));
  }
  const double smax2 = std::max(eig.values[0], 0.0);
  const double tol = std::max(1e-8 * std::sqrt(smax2),
                              std::sqrt(gram_noise_floor(smax2, r)));

  Matrix eigen_side = eig.vectors.first_cols(t);
  Matrix recovered;
  if (with_u || !gram_of_columns) {
    recovered = gram_of_columns ? matmul(a, eigen_side)
                                : matmul_at_b(a, eigen_side);
    Rng rng = make_rng(0x5bdULL, n * 1315423911ULL + d);
    for (std::size_t j = 0; j < t; ++j) {
      if (out.sigma[j] > tol) {
        const double inv = 1.0 / out.sigma[j];
        for (std::size_t i = 0; i < recovered.rows(); ++i) {
          recovered(i, j) *= inv;
        }
      } else {
        orthonormalize_column(recovered, j, rng);
      }
    }
  }
  for (double& s : out.sigma) {
    if (!(s > tol)) s = 0.0;
  }
  if (gram_of_columns) {
    out.v = std::move(eigen_side);
    out.u = std::move(recovered);
  } else {
    out.v = std::move(recovered);
    if (with_u) out.u = std::move(eigen_side);
  }
  return out;
}

}  // namespace

void Svd::truncate(std::size_t t) {
  EKM_EXPECTS(t <= sigma.size());
  sigma.resize(t);
  u = u.first_cols(t);
  v = v.first_cols(t);
}

Svd thin_svd(const Matrix& a) {
  return gram_svd(a, std::min(a.rows(), a.cols()), true);
}

Svd truncated_svd(const Matrix& a, std::size_t t) {
  const std::size_t rank = std::min({t, a.rows(), a.cols()});
  Svd s = gram_svd(a, rank, true);
  s.sigma.resize(rank);
  return s;
}

RightSvd right_svd(const Matrix& a, std::size_t t) {
  Svd s = gram_svd(a, std::min({t, a.rows(), a.cols()}), false);
  return {std::move(s.sigma), std::move(s.v)};
}

Svd randomized_svd(const Matrix& a, std::size_t rank, Rng& rng,
                   std::size_t oversample, int power_iters) {
  const std::size_t r = std::min(rank + oversample, std::min(a.rows(), a.cols()));
  // Range finder: Y = A Omega, Q = orth(Y), with optional power iterations
  // (A A^T)^q A Omega for spectra with slow decay.
  Matrix omega = Matrix::gaussian(a.cols(), r, rng);
  Matrix y = matmul(a, omega);
  Matrix q = householder_q(y);
  for (int it = 0; it < power_iters; ++it) {
    Matrix z = matmul_at_b(a, q);   // d x r
    Matrix qz = householder_q(z);
    y = matmul(a, qz);              // n x r
    q = householder_q(y);
  }
  // B = Q^T A is small (r x d): exact thin SVD of B.
  Matrix b = matmul_at_b(q, a);
  Svd bs = thin_svd(b);
  Svd out;
  out.u = matmul(q, bs.u);
  out.sigma = std::move(bs.sigma);
  out.v = std::move(bs.v);
  out.truncate(std::min(rank, out.rank()));
  return out;
}

Matrix pseudoinverse(const Matrix& a, double rcond) {
  Svd s = thin_svd(a);
  const double smax = s.sigma.empty() ? 0.0 : s.sigma[0];
  const double tol = rcond * smax;
  // A^+ = V diag(1/sigma) U^T, zeroing tiny components.
  Matrix vs = s.v;  // d x r, scale columns
  for (std::size_t j = 0; j < s.rank(); ++j) {
    const double inv = (s.sigma[j] > tol && s.sigma[j] > 0.0)
                           ? 1.0 / s.sigma[j]
                           : 0.0;
    for (std::size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  return matmul_a_bt(vs, s.u);
}

Matrix householder_q(const Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  const std::size_t r = std::min(n, d);

  // Factorize in place. For each step j the Householder vector is
  // v = (v0s[j], m(j+1..n-1, j)) and H_j = I - betas[j] * v v^T.
  Matrix m = a;
  std::vector<double> betas(r, 0.0);
  std::vector<double> v0s(r, 0.0);
  for (std::size_t j = 0; j < r; ++j) {
    double nrm = 0.0;
    for (std::size_t i = j; i < n; ++i) nrm += m(i, j) * m(i, j);
    nrm = std::sqrt(nrm);
    if (nrm < 1e-300) continue;
    const double alpha = (m(j, j) >= 0.0) ? -nrm : nrm;
    const double v0 = m(j, j) - alpha;
    double vnorm2 = v0 * v0;
    for (std::size_t i = j + 1; i < n; ++i) vnorm2 += m(i, j) * m(i, j);
    if (vnorm2 < 1e-300) continue;
    betas[j] = 2.0 / vnorm2;
    v0s[j] = v0;
    m(j, j) = alpha;  // R diagonal; the tail of column j stays as v's tail
    for (std::size_t c = j + 1; c < d; ++c) {
      double s = v0 * m(j, c);
      for (std::size_t i = j + 1; i < n; ++i) s += m(i, j) * m(i, c);
      s *= betas[j];
      m(j, c) -= s * v0;
      for (std::size_t i = j + 1; i < n; ++i) m(i, c) -= s * m(i, j);
    }
  }

  // Accumulate Q = H_0 H_1 ... H_{r-1} applied to the first r columns of I
  // (backward accumulation touches only the trailing block each step).
  Matrix q(n, r);
  for (std::size_t j = 0; j < r; ++j) q(j, j) = 1.0;
  for (std::size_t j = r; j-- > 0;) {
    if (betas[j] == 0.0) continue;
    const double v0 = v0s[j];
    for (std::size_t c = 0; c < r; ++c) {
      double s = v0 * q(j, c);
      for (std::size_t i = j + 1; i < n; ++i) s += m(i, j) * q(i, c);
      s *= betas[j];
      q(j, c) -= s * v0;
      for (std::size_t i = j + 1; i < n; ++i) q(i, c) -= s * m(i, j);
    }
  }
  return q;
}

void append_pca_summary(Matrix& y, const Matrix& sigma_row, const Matrix& v) {
  if (sigma_row.size() == 0) return;
  EKM_EXPECTS_MSG(sigma_row.rows() == 1 && v.cols() == sigma_row.cols(),
                  "PCA summary shape mismatch");
  const std::size_t d = v.rows();
  Matrix yi(sigma_row.cols(), d);
  for (std::size_t j = 0; j < sigma_row.cols(); ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      yi(j, c) = sigma_row(0, j) * v(c, j);
    }
  }
  y.append_rows(yi);
}

}  // namespace ekm
