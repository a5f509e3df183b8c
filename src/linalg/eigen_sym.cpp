#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/parallel.hpp"

namespace ekm {
namespace {

// Matrices of lower order run every loop inline and never reach the pool:
// the fleet's per-site solves (8x8, 16x16) and PCA after a JL map (d <= 96).
constexpr std::size_t kInlineOrder = 128;
// Multiply-adds per chunk that make a pool dispatch worth its cost.
constexpr std::size_t kChunkWork = std::size_t{1} << 15;

// Rotations of the QL sweeps are applied in batches of this many, over
// chunks of this many columns (two cache lines of a row).
constexpr std::size_t kRotationBatch = std::size_t{1} << 15;
constexpr std::size_t kRotationColumns = 16;

// Square work array whose rows start on 64-byte boundaries and span whole
// cache lines, so chunks of rows, or of 8-column groups, that the pool runs
// on different cores never write to the same cache line.
class Square {
 public:
  explicit Square(std::size_t n)
      : n_(n), ld_((n + 7) / 8 * 8), buf_(n * ld_ + 8, 0.0) {
    base_ = buf_.data();
    while (reinterpret_cast<std::uintptr_t>(base_) % 64 != 0) ++base_;
  }
  Square(const Square&) = delete;
  Square& operator=(const Square&) = delete;

  [[nodiscard]] std::size_t order() const { return n_; }
  [[nodiscard]] double* row(std::size_t i) { return base_ + i * ld_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return base_ + i * ld_;
  }

 private:
  std::size_t n_;
  std::size_t ld_;
  std::vector<double> buf_;
  double* base_;
};

// Runs body(begin, end) over the items [0, count) of one step of an
// order-n solve, each item costing `work` multiply-adds. Every item is
// written by exactly one chunk of a grid fixed by (count, work), so the
// result does not depend on the pool width.
template <class Body>
void for_items(std::size_t n, std::size_t count, std::size_t work,
               const Body& body) {
  if (n < kInlineOrder) {
    body(std::size_t{0}, count);
    return;
  }
  const std::size_t grain =
      std::max<std::size_t>(16, kChunkWork / std::max<std::size_t>(work, 1));
  parallel_for(count, grain, body);
}

// y[j] = sum_{k < len} m(j, k) * x[k] for rows j in [j0, j1). Four rows
// share each pass over x; every sum still runs in k order, so the result
// equals one dot product per row.
void row_dots(const Square& m, std::size_t j0, std::size_t j1,
              std::size_t len, const double* x, double* y) {
  std::size_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const double* a0 = m.row(j);
    const double* a1 = m.row(j + 1);
    const double* a2 = m.row(j + 2);
    const double* a3 = m.row(j + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      const double xk = x[k];
      s0 += a0[k] * xk;
      s1 += a1[k] * xk;
      s2 += a2[k] * xk;
      s3 += a3[k] * xk;
    }
    y[j] = s0;
    y[j + 1] = s1;
    y[j + 2] = s2;
    y[j + 3] = s3;
  }
  for (; j < j1; ++j) {
    const double* a = m.row(j);
    double s = 0.0;
    for (std::size_t k = 0; k < len; ++k) s += a[k] * x[k];
    y[j] = s;
  }
}

// hypot without overflow, as used in the EISPACK routines.
double pythag(double a, double b) {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

// Householder reduction of a full symmetric matrix to tridiagonal form
// (tred2). Step i reduces row i against the leading block [0, i), which is
// kept symmetric in both triangles so the matvec and the rank-2 update
// read whole rows. On exit `z` holds Q^T — row j is column j of the
// EISPACK transform — `d` the diagonal and `e` the subdiagonal (e[0]
// unused).
void tred2(Square& z, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = z.order();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;

  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t l = i - 1;
    double* zi = z.row(i);
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(zi[k]);
      if (scale == 0.0) {
        e[i] = zi[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          zi[k] /= scale;
          h += zi[k] * zi[k];
        }
        double f = zi[l];
        const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        zi[l] = f - g;
        // e = A u / h over the block; z(j, i) keeps u_j / h for the
        // back-accumulation.
        for_items(n, l + 1, l + 1, [&](std::size_t j0, std::size_t j1) {
          row_dots(z, j0, j1, l + 1, zi, e.data());
          for (std::size_t j = j0; j < j1; ++j) {
            z.row(j)[i] = zi[j] / h;
            e[j] /= h;
          }
        });
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) f += e[j] * zi[j];
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * zi[j];
        // A -= u e^T + e u^T, row by row.
        for_items(n, l + 1, 2 * (l + 1), [&](std::size_t j0, std::size_t j1) {
          for (std::size_t j = j0; j < j1; ++j) {
            double* zj = z.row(j);
            const double fj = zi[j];
            const double gj = e[j];
            for (std::size_t k = 0; k <= l; ++k) {
              zj[k] -= fj * e[k] + gj * zi[k];
            }
          }
        });
      }
    } else {
      e[i] = zi[l];
    }
    d[i] = h;
  }

  // Back-accumulation, building Q^T in the leading block one order at a
  // time: row j of Q^T takes P_j -= (P_j . u) (u / h) for reflector i.
  d[0] = 0.0;
  e[0] = 0.0;
  std::vector<double> w(n);
  std::vector<double> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* zi = z.row(i);
    if (d[i] != 0.0) {
      for (std::size_t k = 0; k < i; ++k) w[k] = z.row(k)[i];
      for_items(n, i, i, [&](std::size_t j0, std::size_t j1) {
        row_dots(z, j0, j1, i, zi, g.data());
        for (std::size_t j = j0; j < j1; ++j) {
          double* zj = z.row(j);
          const double gj = g[j];
          for (std::size_t k = 0; k < i; ++k) zj[k] -= gj * w[k];
        }
      });
    }
    d[i] = zi[i];
    zi[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z.row(j)[i] = 0.0;
      zi[j] = 0.0;
    }
  }
}

// Plane rotations recorded by the QL sweeps. Rotation t mixes rows
// (lo[t], lo[t] + 1) of Q^T. The scalar iteration never reads the vectors,
// so the rotations can wait and be applied a batch at a time: each column
// still sees them in sweep order, whichever chunk owns it, and a chunk's
// columns stay in one core's cache for the whole batch.
struct RotationLog {
  std::vector<std::size_t> lo;
  std::vector<double> c;
  std::vector<double> s;

  void push(std::size_t row, double ct, double st) {
    lo.push_back(row);
    c.push_back(ct);
    s.push_back(st);
  }

  void apply(Square& zt) {
    const std::size_t n = zt.order();
    auto body = [&](std::size_t c0, std::size_t c1) {
      for (std::size_t t = 0; t < lo.size(); ++t) {
        double* a = zt.row(lo[t]);
        double* b = zt.row(lo[t] + 1);
        const double ct = c[t];
        const double st = s[t];
        for (std::size_t k = c0; k < c1; ++k) {
          const double f = b[k];
          b[k] = st * a[k] + ct * f;
          a[k] = ct * a[k] - st * f;
        }
      }
    };
    if (n < kInlineOrder) {
      body(0, n);
    } else {
      parallel_for(n, kRotationColumns, body);
    }
    lo.clear();
    c.clear();
    s.clear();
  }
};

// Implicit-shift QL with eigenvector accumulation (tql2). `d` in/out:
// diagonal -> eigenvalues; `e`: subdiagonal (destroyed); `zt`: Q^T from
// tred2 -> eigenvectors in rows. Returns false on non-convergence.
bool tql2(Square& zt, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = d.size();
  if (n <= 1) return true;

  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  RotationLog log;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 || std::fabs(e[m]) <= 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iter == 64) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          log.push(i, c, s);
          if (log.lo.size() == kRotationBatch) log.apply(zt);
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  log.apply(zt);
  return true;
}

}  // namespace

SymmetricEigen eigen_symmetric(const Matrix& a) {
  EKM_EXPECTS_MSG(a.rows() == a.cols(), "eigen_symmetric needs a square matrix");
  const std::size_t n = a.rows();

  // Symmetrize from the upper triangle so tiny asymmetries from Gram
  // accumulation cannot push the iteration off the symmetric manifold.
  Square zt(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = 0.5 * (a(i, j) + a(j, i));
      zt.row(i)[j] = v;
      zt.row(j)[i] = v;
    }
  }

  std::vector<double> d, e;
  tred2(zt, d, e);
  EKM_ENSURES_MSG(tql2(zt, d, e), "tql2 failed to converge");

  // Sort descending and hand the vectors back in columns.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  SymmetricEigen eig;
  eig.values.resize(n);
  eig.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    eig.values[j] = d[order[j]];
    const double* v = zt.row(order[j]);
    for (std::size_t i = 0; i < n; ++i) eig.vectors.at_unchecked(i, j) = v[i];
  }
  return eig;
}

}  // namespace ekm
