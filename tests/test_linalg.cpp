// Tests for src/linalg: matrix algebra, symmetric eigendecomposition,
// SVD, pseudoinverse, QR. Property suites sweep shapes via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "eigen_oracle.hpp"
#include "pca_oracle.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace ekm {
namespace {

double max_abs_diff(const Matrix& a, const Matrix& b) {
  return subtract(a, b).frobenius_norm();
}

// n x d Gaussian entries of rank `rank` (an n x rank by rank x d product).
Matrix low_rank(std::size_t n, std::size_t d, std::size_t rank, Rng& rng) {
  return matmul(Matrix::gaussian(n, rank, rng), Matrix::gaussian(rank, d, rng));
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  EXPECT_THROW((void)m(2, 0), precondition_error);
  EXPECT_THROW((void)m(0, 3), precondition_error);
  EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), precondition_error);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng = make_rng(1);
  const Matrix m = Matrix::gaussian(7, 4, rng);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW((void)matmul(a, Matrix(3, 3)), precondition_error);
}

TEST(Matrix, SymmetricGramEqualsGeneralProductBitwise) {
  // 301 x 203 puts both Gram kernels above the ~4 MFLOP inline cutoff
  // (A^T A ~12 MFLOP, A A^T ~18 MFLOP in the triangle), and 301 is not a
  // multiple of A A^T's four-cell step. Zero entries exercise the
  // zero-factor skip that A^T A shares with matmul_at_b.
  Rng rng = make_rng(4);
  Matrix a = Matrix::gaussian(301, 203, rng);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if ((i * 7 + j * 3) % 5 == 0) a(i, j) = 0.0;
    }
  }
  for (const std::size_t width : {1u, 4u}) {
    set_parallel_threads(width);
    EXPECT_TRUE(test::bits_equal(gram_at_a(a), matmul_at_b(a, a))) << width;
    EXPECT_TRUE(test::bits_equal(gram_a_at(a), matmul_a_bt(a, a))) << width;
  }
  set_parallel_threads(0);
  // Below the cutoff the kernels run inline; same contract.
  const Matrix small = Matrix::gaussian(9, 5, rng);
  EXPECT_TRUE(test::bits_equal(gram_at_a(small), matmul_at_b(small, small)));
  EXPECT_TRUE(test::bits_equal(gram_a_at(small), matmul_a_bt(small, small)));
}

TEST(Matrix, FusedTransposeProductsMatchExplicit) {
  Rng rng = make_rng(2);
  const Matrix a = Matrix::gaussian(6, 3, rng);
  const Matrix b = Matrix::gaussian(6, 4, rng);
  EXPECT_LT(max_abs_diff(matmul_at_b(a, b), matmul(a.transposed(), b)), 1e-12);
  const Matrix c = Matrix::gaussian(5, 3, rng);
  EXPECT_LT(max_abs_diff(matmul_a_bt(a, c), matmul(a, c.transposed())), 1e-12);
}

TEST(Matrix, ProductsThreadCountInvariantBitwise) {
  // Each product is well above the ~4 MFLOP inline cutoff, so the pool
  // splits its output rows; every row keeps one owner and the serial
  // accumulation order, whatever the pool width.
  Rng rng = make_rng(3);
  const Matrix a = Matrix::gaussian(300, 200, rng);
  const Matrix b = Matrix::gaussian(200, 150, rng);
  const Matrix c = Matrix::gaussian(300, 150, rng);
  const Matrix d = Matrix::gaussian(150, 200, rng);
  auto products = [&] {
    return std::vector<Matrix>{matmul(a, b), matmul_at_b(a, c),
                               matmul_a_bt(a, d)};
  };
  set_parallel_threads(1);
  const std::vector<Matrix> one = products();
  set_parallel_threads(4);
  const std::vector<Matrix> four = products();
  set_parallel_threads(0);
  EXPECT_EQ(one, four);
  EXPECT_LT(max_abs_diff(one[1], matmul(a.transposed(), c)), 1e-10);
  EXPECT_LT(max_abs_diff(one[2], matmul(a, d.transposed())), 1e-10);
}

TEST(Matrix, RowRangeAndFirstCols) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const Matrix mid = m.row_range(1, 3);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_DOUBLE_EQ(mid(0, 0), 4.0);
  const Matrix left = m.first_cols(2);
  EXPECT_EQ(left.cols(), 2u);
  EXPECT_DOUBLE_EQ(left(2, 1), 8.0);
  EXPECT_THROW((void)m.first_cols(4), precondition_error);
  EXPECT_THROW((void)m.row_range(2, 1), precondition_error);
}

TEST(Matrix, AppendRows) {
  Matrix m{{1.0, 2.0}};
  m.append_rows(Matrix{{3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  Matrix empty;
  empty.append_rows(Matrix{{9.0}});
  EXPECT_EQ(empty.rows(), 1u);
  EXPECT_THROW(m.append_rows(Matrix(1, 3)), precondition_error);
}

TEST(Matrix, VectorHelpers) {
  const std::vector<double> a{3.0, 4.0};
  const std::vector<double> b{1.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -1.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 4.0 + 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  const Matrix m{{1.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> y = matvec(m, a);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0);
}

TEST(EigenSym, DiagonalMatrix) {
  const Matrix m{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const SymmetricEigen eig = eigen_symmetric(m);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const SymmetricEigen eig = eigen_symmetric(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
}

// ||V^T V - I||_F and ||V diag(values) V^T - A||_F / (1 + ||A||_F).
std::pair<double, double> eigen_residuals(const Matrix& a,
                                          const SymmetricEigen& eig) {
  const std::size_t n = a.rows();
  const Matrix vtv = matmul_at_b(eig.vectors, eig.vectors);
  Matrix vl = eig.vectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vl(i, j) *= eig.values[j];
  }
  const Matrix rec = matmul_a_bt(vl, eig.vectors);
  return {max_abs_diff(vtv, Matrix::identity(n)),
          max_abs_diff(rec, a) / (1.0 + a.frobenius_norm())};
}

class EigenSymProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymProperty, ReconstructionOrthogonalityAndOrdering) {
  const std::size_t n = GetParam();
  Rng rng = make_rng(1000 + n);
  const Matrix a = Matrix::gaussian(n + 3, n, rng);
  const Matrix sym = matmul_at_b(a, a);  // PSD
  const SymmetricEigen eig = eigen_symmetric(sym);

  // Ordering (descending) and non-negativity for PSD input.
  for (std::size_t j = 0; j + 1 < n; ++j) {
    EXPECT_GE(eig.values[j], eig.values[j + 1] - 1e-9);
  }
  EXPECT_GE(eig.values[n - 1], -1e-8 * eig.values[0]);

  // V^T V = I and A = V diag(λ) V^T.
  const auto [orth, rec] = eigen_residuals(sym, eig);
  EXPECT_LT(orth, 1e-9);
  EXPECT_LT(rec, 1e-8);
}

TEST_P(EigenSymProperty, JacobiOracleAgrees) {
  const std::size_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "Jacobi oracle kept small";
  Rng rng = make_rng(2000 + n);
  const Matrix a = Matrix::gaussian(n + 1, n, rng);
  const Matrix sym = matmul_at_b(a, a);
  const SymmetricEigen fast = eigen_symmetric(sym);
  const SymmetricEigen oracle = test::jacobi_eigen(sym);
  const double lmax = std::fabs(oracle.values[0]);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(fast.values[j], oracle.values[j], 1e-10 * lmax) << "j=" << j;
  }
  // Vectors agree up to sign, to within the perturbation bound
  // eps * ||A|| / gap of each eigenvalue's separation from its neighbours.
  for (std::size_t j = 0; j < n; ++j) {
    double gap = lmax;
    if (j > 0) gap = std::min(gap, oracle.values[j - 1] - oracle.values[j]);
    if (j + 1 < n) gap = std::min(gap, oracle.values[j] - oracle.values[j + 1]);
    if (gap < 1e-6 * lmax) continue;
    double dot_fo = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_fo += fast.vectors(i, j) * oracle.vectors(i, j);
    }
    const double sign = dot_fo >= 0.0 ? 1.0 : -1.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dv = fast.vectors(i, j) - sign * oracle.vectors(i, j);
      diff += dv * dv;
    }
    EXPECT_LT(std::sqrt(diff), 1e-10 * lmax / gap + 1e-13) << "j=" << j;
  }
}

TEST_P(EigenSymProperty, ThreadCountInvariantBitwise) {
  const std::size_t n = GetParam();
  Rng rng = make_rng(3000 + n);
  const Matrix a = Matrix::gaussian(n + 7, n, rng);
  const Matrix sym = matmul_at_b(a, a);
  set_parallel_threads(1);
  const SymmetricEigen one = eigen_symmetric(sym);
  set_parallel_threads(4);
  const SymmetricEigen four = eigen_symmetric(sym);
  set_parallel_threads(0);
  EXPECT_EQ(one.values, four.values);
  EXPECT_EQ(one.vectors, four.vectors);
}

TEST_P(EigenSymProperty, ZeroMatrix) {
  const std::size_t n = GetParam();
  const SymmetricEigen eig = eigen_symmetric(Matrix(n, n));
  for (double v : eig.values) EXPECT_EQ(v, 0.0);
  // The transform stays a permutation (ties sort in any order).
  EXPECT_EQ(matmul_at_b(eig.vectors, eig.vectors), Matrix::identity(n));
}

TEST_P(EigenSymProperty, DiagonalInputIsExact) {
  // Every Householder step sees a zero row (the scale == 0 branch), so the
  // transform stays the identity and the values come back untouched.
  const std::size_t n = GetParam();
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = static_cast<double>((7 * i) % n) - 0.5 * static_cast<double>(n);
  }
  const SymmetricEigen eig = eigen_symmetric(m);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(eig.values[j], 0.5 * static_cast<double>(n) - 1.0 -
                                 static_cast<double>(j))
        << "j=" << j;
    std::size_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = eig.vectors(i, j);
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      if (v == 1.0) {
        ++ones;
        EXPECT_EQ(m(i, i), eig.values[j]);
      }
    }
    EXPECT_EQ(ones, 1u);
  }
}

TEST_P(EigenSymProperty, RepeatedEigenvalues) {
  // A = Q diag(5,..,5, 2,..,2, -1,..,-1) Q^T with thirds of the spectrum
  // tied: each eigenspace is recovered as a projector, not as vectors.
  const std::size_t n = GetParam();
  Rng rng = make_rng(5000 + n);
  const Matrix q = householder_q(Matrix::gaussian(n, n, rng));
  const double level[3] = {5.0, 2.0, -1.0};
  auto band = [n](std::size_t j) { return std::min<std::size_t>(3 * j / n, 2); };
  Matrix ql = q;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) ql(i, j) *= level[band(j)];
  }
  const Matrix sym = matmul_a_bt(ql, q);
  const SymmetricEigen eig = eigen_symmetric(sym);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(eig.values[j], level[band(j)], 1e-12 * static_cast<double>(n))
        << "j=" << j;
  }
  for (std::size_t b = 0; b < 3; ++b) {
    Matrix pv(n, n);
    Matrix pq(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      if (band(j) != b) continue;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          pv(r, c) += eig.vectors(r, j) * eig.vectors(c, j);
          pq(r, c) += q(r, j) * q(c, j);
        }
      }
    }
    EXPECT_LT(max_abs_diff(pv, pq), 1e-11 * static_cast<double>(n)) << "band " << b;
  }
  const auto [orth, rec] = eigen_residuals(sym, eig);
  EXPECT_LT(orth, 1e-11);
  EXPECT_LT(rec, 1e-12);
}

TEST_P(EigenSymProperty, RankDeficientGram) {
  // G = B^T B with B of rank n/4: the trailing 3n/4 eigenvalues are zero
  // up to rounding, and the factorization still holds.
  const std::size_t n = GetParam();
  const std::size_t rank = std::max<std::size_t>(1, n / 4);
  Rng rng = make_rng(6000 + n);
  const Matrix b = Matrix::gaussian(rank, n, rng);
  const Matrix gram = matmul_at_b(b, b);
  const SymmetricEigen eig = eigen_symmetric(gram);
  EXPECT_GT(eig.values[rank - 1], 1e-3 * eig.values[0]);
  for (std::size_t j = rank; j < n; ++j) {
    EXPECT_LT(std::fabs(eig.values[j]), 1e-12 * eig.values[0]) << "j=" << j;
  }
  const auto [orth, rec] = eigen_residuals(gram, eig);
  EXPECT_LT(orth, 1e-11);
  EXPECT_LT(rec, 1e-12);
}

// 300 is above the solver's inline threshold (order 128), so its
// pool-parallel loops run as well as the inline ones.
INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 24,
                                                        40, 64, 300));

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_THROW((void)eigen_symmetric(Matrix(2, 3)), precondition_error);
}

struct SvdShape {
  std::size_t rows;
  std::size_t cols;
};

class SvdProperty : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdProperty, ThinSvdAxioms) {
  const auto [n, d] = GetParam();
  Rng rng = make_rng(31 * n + d);
  const Matrix a = Matrix::gaussian(n, d, rng);
  const Svd s = thin_svd(a);
  const std::size_t r = std::min(n, d);
  ASSERT_EQ(s.rank(), r);

  // Reconstruction.
  EXPECT_LT(max_abs_diff(test::reconstruct(s), a),
            1e-9 * (1.0 + a.frobenius_norm()));
  // Orthonormal factors.
  EXPECT_LT(max_abs_diff(matmul_at_b(s.u, s.u), Matrix::identity(r)), 1e-9);
  EXPECT_LT(max_abs_diff(matmul_at_b(s.v, s.v), Matrix::identity(r)), 1e-9);
  // Ordering and non-negativity.
  for (std::size_t j = 0; j + 1 < r; ++j) {
    EXPECT_GE(s.sigma[j], s.sigma[j + 1] - 1e-12);
  }
  EXPECT_GE(s.sigma[r - 1], 0.0);
  // Energy identity: ||A||_F^2 = sum sigma_j^2.
  double energy = 0.0;
  for (double sv : s.sigma) energy += sv * sv;
  EXPECT_NEAR(energy, a.frobenius_norm() * a.frobenius_norm(),
              1e-7 * (1.0 + energy));
}

TEST_P(SvdProperty, PseudoinversePenroseAxioms) {
  const auto [n, d] = GetParam();
  Rng rng = make_rng(77 * n + d);
  const Matrix a = Matrix::gaussian(n, d, rng);
  const Matrix ap = pseudoinverse(a);
  EXPECT_EQ(ap.rows(), d);
  EXPECT_EQ(ap.cols(), n);
  const double scale = 1.0 + a.frobenius_norm();
  // 1) A A+ A = A;  2) A+ A A+ = A+.
  EXPECT_LT(max_abs_diff(matmul(matmul(a, ap), a), a), 1e-8 * scale);
  EXPECT_LT(max_abs_diff(matmul(matmul(ap, a), ap), ap), 1e-8 * scale);
  // 3) (A A+)^T = A A+;  4) (A+ A)^T = A+ A.
  const Matrix aap = matmul(a, ap);
  const Matrix apa = matmul(ap, a);
  EXPECT_LT(max_abs_diff(aap, aap.transposed()), 1e-8 * scale);
  EXPECT_LT(max_abs_diff(apa, apa.transposed()), 1e-8 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(SvdShape{1, 1}, SvdShape{5, 5}, SvdShape{20, 5},
                      SvdShape{5, 20}, SvdShape{40, 17}, SvdShape{17, 40},
                      SvdShape{64, 64}));

TEST(Svd, RankDeficientInput) {
  // Rank-1 matrix: outer product.
  Matrix a(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
    }
  }
  const Svd s = thin_svd(a);
  EXPECT_GT(s.sigma[0], 0.0);
  for (std::size_t j = 1; j < s.rank(); ++j) {
    EXPECT_LT(s.sigma[j], 1e-8 * s.sigma[0]);
  }
  EXPECT_LT(max_abs_diff(test::reconstruct(s), a), 1e-9 * (1.0 + a.frobenius_norm()));
  // Pseudoinverse of rank-deficient input still satisfies A A+ A = A.
  const Matrix ap = pseudoinverse(a);
  EXPECT_LT(max_abs_diff(matmul(matmul(a, ap), a), a),
            1e-8 * (1.0 + a.frobenius_norm()));
}

TEST(Svd, TruncationKeepsTopComponents) {
  Rng rng = make_rng(5);
  const Matrix a = Matrix::gaussian(30, 10, rng);
  const Svd full = thin_svd(a);
  const Svd trunc = truncated_svd(a, 3);
  ASSERT_EQ(trunc.rank(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(trunc.sigma[j], full.sigma[j], 1e-10);
  }
  // Truncated reconstruction is the best rank-3 approximation: its error
  // equals the discarded energy (Eckart–Young).
  double tail = 0.0;
  for (std::size_t j = 3; j < full.rank(); ++j) {
    tail += full.sigma[j] * full.sigma[j];
  }
  const double err = subtract(test::reconstruct(trunc), a).frobenius_norm();
  EXPECT_NEAR(err * err, tail, 1e-6 * (1.0 + tail));
}

TEST(Svd, TopTRoutesEqualThinSvdBitwise) {
  // truncated_svd and right_svd form only the columns they return; they
  // must equal the full decomposition cut to t, bit for bit. The
  // rank-deficient shapes (rank 3 < t) send columns 3..t-1 through the
  // orthonormalize_column fallback and its RNG draws.
  struct Case {
    std::size_t n, d, rank, t;
  };
  Rng rng = make_rng(9);
  for (const Case c : {Case{60, 25, 25, 7}, Case{25, 60, 25, 7},
                       Case{40, 12, 3, 8}, Case{12, 40, 3, 8},
                       Case{300, 200, 200, 20}}) {
    const Matrix a = low_rank(c.n, c.d, c.rank, rng);
    Svd full = thin_svd(a);
    const std::vector<double> spectrum = full.sigma;
    const Matrix v_all = full.v;
    full.truncate(c.t);
    const Svd top = truncated_svd(a, c.t);
    const RightSvd right = right_svd(a, c.t);
    SCOPED_TRACE(std::to_string(c.n) + "x" + std::to_string(c.d));
    EXPECT_TRUE(test::bits_equal(top.sigma, full.sigma));
    EXPECT_TRUE(test::bits_equal(top.u, full.u));
    EXPECT_TRUE(test::bits_equal(top.v, full.v));
    EXPECT_TRUE(test::bits_equal(right.sigma, spectrum));
    EXPECT_TRUE(test::bits_equal(right.v, v_all.first_cols(c.t)));
    if (c.rank < c.t) {
      // The fallback columns are still orthonormal.
      EXPECT_LT(max_abs_diff(matmul_at_b(top.u, top.u), Matrix::identity(c.t)),
                1e-9);
      EXPECT_LT(max_abs_diff(matmul_at_b(top.v, top.v), Matrix::identity(c.t)),
                1e-9);
      EXPECT_EQ(top.sigma[c.rank], 0.0);
    }
  }
  // t beyond min(n, d) clamps, as truncate on the thin SVD would.
  const Matrix a = Matrix::gaussian(6, 4, rng);
  EXPECT_EQ(truncated_svd(a, 10).rank(), 4u);
  EXPECT_EQ(right_svd(a, 10).v.cols(), 4u);
}

TEST(Svd, RandomizedSvdApproximatesDominantSpectrum) {
  Rng rng = make_rng(6);
  // Construct a matrix with fast spectral decay so the sketch is accurate.
  Matrix a = Matrix::gaussian(80, 40, rng);
  const Svd base = thin_svd(a);
  Matrix scaled_u = base.u;
  for (std::size_t i = 0; i < scaled_u.rows(); ++i) {
    for (std::size_t j = 0; j < scaled_u.cols(); ++j) {
      scaled_u(i, j) *= base.sigma[j] * std::pow(0.5, static_cast<double>(j));
    }
  }
  const Matrix decayed = matmul_a_bt(scaled_u, base.v);
  const Svd exact = thin_svd(decayed);
  Rng rng2 = make_rng(7);
  const Svd approx = randomized_svd(decayed, 5, rng2);
  ASSERT_EQ(approx.rank(), 5u);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(approx.sigma[j], exact.sigma[j], 1e-6 * (1.0 + exact.sigma[0]));
  }
}

TEST(Svd, HouseholderQOrthonormal) {
  Rng rng = make_rng(8);
  for (auto [n, d] : {std::pair<std::size_t, std::size_t>{10, 4},
                      {4, 10},
                      {16, 16}}) {
    const Matrix a = Matrix::gaussian(n, d, rng);
    const Matrix q = householder_q(a);
    const std::size_t r = std::min(n, d);
    EXPECT_EQ(q.rows(), n);
    EXPECT_EQ(q.cols(), r);
    EXPECT_LT(max_abs_diff(matmul_at_b(q, q), Matrix::identity(r)), 1e-10);
    // Q spans the column space: Q Q^T A = A when n <= d (full row rank).
    if (n <= d) {
      const Matrix qqta = matmul(q, matmul_at_b(q, a));
      EXPECT_LT(max_abs_diff(qqta, a), 1e-9 * (1.0 + a.frobenius_norm()));
    }
  }
}

TEST(Svd, EmptyMatrixRejected) {
  EXPECT_THROW((void)thin_svd(Matrix()), precondition_error);
}

}  // namespace
}  // namespace ekm
