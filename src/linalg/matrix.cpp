#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <vector>

#include "common/parallel.hpp"

namespace ekm {
namespace {

// Row-parallel driver for the products, on the shared pool
// (common/parallel.hpp): every output row is written by one chunk of a
// grid fixed by the shape, with the serial loop's accumulation order, so
// results are bitwise independent of the pool width. Products under
// ~4 MFLOP run inline; chunks carry at least ~1 MFLOP and there are at
// most 16 of them, since matmul_at_b re-reads its inputs once per chunk.
constexpr std::size_t kSerialFlops = 4u << 20;
constexpr std::size_t kChunkFlops = 1u << 20;
constexpr std::size_t kMaxChunks = 16;

void parallel_rows(std::size_t rows, std::size_t flops_per_row,
                   const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t per_row = std::max<std::size_t>(flops_per_row, 1);
  if (rows * per_row < kSerialFlops) {
    body(0, rows);
    return;
  }
  const std::size_t grain =
      std::max((rows + kMaxChunks - 1) / kMaxChunks,
               (kChunkFlops + per_row - 1) / per_row);
  parallel_for(rows, grain, body);
}

// Upper-triangle driver for the symmetric Gram kernels: row i of an
// order-m output owns cells [i, m), each costing `flops_per_cell`. The
// rows are cut into contiguous ranges of about equal triangle area, on a
// grid fixed by (m, flops_per_cell) with parallel_rows' inline threshold
// and chunk bounds, so the result is bitwise independent of the pool
// width. The caller mirrors the upper triangle afterwards.
void parallel_upper_rows(
    std::size_t m, std::size_t flops_per_cell,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t per_cell = std::max<std::size_t>(flops_per_cell, 1);
  const std::size_t total = m * (m + 1) / 2 * per_cell;
  if (total < kSerialFlops) {
    body(0, m);
    return;
  }
  const std::size_t chunks =
      std::min(kMaxChunks, (total + kChunkFlops - 1) / kChunkFlops);
  std::vector<std::size_t> bounds{0};
  std::size_t done = 0;
  for (std::size_t i = 0; i < m && bounds.size() < chunks; ++i) {
    done += (m - i) * per_cell;
    if (done * chunks >= bounds.size() * total) bounds.push_back(i + 1);
  }
  if (bounds.back() < m) bounds.push_back(m);
  parallel_for(bounds.size() - 1, 1, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) body(bounds[c], bounds[c + 1]);
  });
}

// Copies the strict upper triangle of a square matrix onto the lower, in
// square tiles so neither side is walked with a whole-row stride.
void mirror_upper(Matrix& c) {
  constexpr std::size_t kTile = 32;
  const std::size_t m = c.rows();
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, m);
    for (std::size_t j0 = i0; j0 < m; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, m);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) {
          c.at_unchecked(j, i) = c.at_unchecked(i, j);
        }
      }
    }
  }
}

// ci[j] += x[0]*b[0][j], then x[1]*b[1][j], ... for j in [j0, d): M
// consecutive rank-1 updates of matmul_at_b, fused so ci is loaded and
// stored once per M updates instead of once per update.
template <int M>
void fused_row_updates(double* ci, const double* const* b, const double* x,
                       std::size_t j0, std::size_t d) {
  for (std::size_t j = j0; j < d; ++j) {
    double s = ci[j];
    for (int q = 0; q < M; ++q) s += x[q] * b[q][j];
    ci[j] = s;
  }
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EKM_EXPECTS_MSG(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                        double stddev) {
  Matrix m(rows, cols);
  std::normal_distribution<double> dist(0.0, stddev);
  for (double& v : m.data_) v = dist(rng);
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::first_cols(std::size_t c) const {
  EKM_EXPECTS(c <= cols_);
  Matrix m(rows_, c);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = data_.data() + i * cols_;
    double* dst = m.data_.data() + i * c;
    for (std::size_t j = 0; j < c; ++j) dst[j] = src[j];
  }
  return m;
}

Matrix Matrix::row_range(std::size_t r0, std::size_t r1) const {
  EKM_EXPECTS(r0 <= r1 && r1 <= rows_);
  Matrix m(r1 - r0, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
            m.data_.begin());
  return m;
}

void Matrix::append_rows(const Matrix& other) {
  if (empty() && rows_ == 0) {
    *this = other;
    return;
  }
  EKM_EXPECTS_MSG(other.cols_ == cols_, "column mismatch in append_rows");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

void Matrix::scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::frobenius_norm() const {
  double ss = 0.0;
  for (double v : data_) ss += v * v;
  return std::sqrt(ss);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  parallel_rows(n, 2 * k * m, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      std::span<double> ci = c.row(i);
      std::span<const double> ai = a.row(i);
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = ai[p];
        if (aip == 0.0) continue;
        std::span<const double> bp = b.row(p);
        for (std::size_t j = 0; j < m; ++j) ci[j] += aip * bp[j];
      }
    }
  });
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  // Partition by OUTPUT rows so each cell keeps the serial accumulation
  // order (p ascending) — results are bit-identical to the serial loop.
  parallel_rows(k, 2 * n * m, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t p = 0; p < n; ++p) {
      std::span<const double> ap = a.row(p);
      std::span<const double> bp = b.row(p);
      for (std::size_t i = r0; i < r1; ++i) {
        const double api = ap[i];
        if (api == 0.0) continue;
        std::span<double> ci = c.row(i);
        for (std::size_t j = 0; j < m; ++j) ci[j] += api * bp[j];
      }
    }
  });
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  Matrix c(a.rows(), b.rows());
  parallel_rows(a.rows(), 2 * a.cols() * b.rows(),
                [&](std::size_t r0, std::size_t r1) {
                  for (std::size_t i = r0; i < r1; ++i) {
                    for (std::size_t j = 0; j < b.rows(); ++j) {
                      c(i, j) = dot(a.row(i), b.row(j));
                    }
                  }
                });
  return c;
}

Matrix gram_at_a(const Matrix& a) {
  const std::size_t n = a.rows(), d = a.cols();
  Matrix c(d, d);
  // matmul_at_b(a, a)'s loop restricted to j >= i, taking the rows p four
  // at a time: each cell still sums over p ascending and skips the same
  // zero factors.
  constexpr std::size_t kRows = 4;
  parallel_upper_rows(d, 2 * n, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t p0 = 0; p0 < n; p0 += kRows) {
      const std::size_t p1 = std::min(p0 + kRows, n);
      for (std::size_t i = r0; i < r1; ++i) {
        double x[kRows] = {};
        const double* b[kRows] = {};
        int m = 0;
        for (std::size_t p = p0; p < p1; ++p) {
          const double* ap = a.row_ptr(p);
          if (ap[i] == 0.0) continue;
          x[m] = ap[i];
          b[m] = ap;
          ++m;
        }
        double* ci = c.row_ptr(i);
        switch (m) {
          case 4: fused_row_updates<4>(ci, b, x, i, d); break;
          case 3: fused_row_updates<3>(ci, b, x, i, d); break;
          case 2: fused_row_updates<2>(ci, b, x, i, d); break;
          case 1: fused_row_updates<1>(ci, b, x, i, d); break;
          default: break;
        }
      }
    }
  });
  mirror_upper(c);
  return c;
}

Matrix gram_a_at(const Matrix& a) {
  const std::size_t n = a.rows(), d = a.cols();
  Matrix c(n, n);
  // Each cell is dot(row i, row j) in k order, as in matmul_a_bt(a, a);
  // four cells of a row run side by side so their chains overlap.
  parallel_upper_rows(n, 2 * d, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* ai = a.row_ptr(i);
      double* ci = c.row_ptr(i);
      std::size_t j = i;
      for (; j + 4 <= n; j += 4) {
        const double* b0 = a.row_ptr(j);
        const double* b1 = a.row_ptr(j + 1);
        const double* b2 = a.row_ptr(j + 2);
        const double* b3 = a.row_ptr(j + 3);
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double x = ai[k];
          s0 += x * b0[k];
          s1 += x * b1[k];
          s2 += x * b2[k];
          s3 += x * b3[k];
        }
        ci[j] = s0;
        ci[j + 1] = s1;
        ci[j + 2] = s2;
        ci[j + 3] = s3;
      }
      for (; j < n; ++j) ci[j] = dot(a.row(i), a.row(j));
    }
  });
  mirror_upper(c);
  return c;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  EKM_EXPECTS_MSG(a.cols() == x.size(), "matvec shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

Matrix add(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  auto cf = c.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] += bf[i];
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  auto cf = c.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] -= bf[i];
  return c;
}

double dot(std::span<const double> a, std::span<const double> b) {
  EKM_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  EKM_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double norm2(std::span<const double> a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return std::sqrt(s);
}

}  // namespace ekm
