// Independent oracle for the library's symmetric eigensolver
// (linalg/eigen_sym.hpp), shared by the linalg tests.
//
// Cyclic Jacobi: every sweep rotates away each off-diagonal entry in turn
// until the off-diagonal mass is negligible. O(d^3) per sweep and far
// slower than tred2/tql2, but it shares no code or algorithm with it and
// has good relative accuracy on small matrices, which is what an oracle
// needs. Same contract as eigen_symmetric: symmetrized from the upper
// triangle, values descending, vectors in columns.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"

namespace ekm::test {

[[nodiscard]] inline SymmetricEigen jacobi_eigen(const Matrix& a,
                                                 int max_sweeps = 64) {
  EKM_EXPECTS_MSG(a.rows() == a.cols(), "eigen needs a square matrix");
  const std::size_t n = a.rows();

  Matrix m = a;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    }
    if (off < 1e-24 * (1.0 + m.frobenius_norm())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return m(x, x) > m(y, y); });
  SymmetricEigen eig;
  eig.values.resize(n);
  eig.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    eig.values[j] = m(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) eig.vectors(i, j) = v(i, order[j]);
  }
  return eig;
}

}  // namespace ekm::test
