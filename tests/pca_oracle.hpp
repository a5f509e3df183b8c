// Test-only oracles for the SVD and PCA layers (linalg/svd.hpp,
// dr/pca.hpp), shared by the linalg and dr tests. No library code calls
// these; they state in the plainest form what the library's faster
// routes must reproduce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#include "data/dataset.hpp"
#include "dr/linear_map.hpp"
#include "dr/pca.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace ekm::test {

/// Same length and the same bytes: stricter than operator==, which lets
/// -0 equal +0.
[[nodiscard]] inline bool bits_equal(std::span<const double> a,
                                     std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

[[nodiscard]] inline bool bits_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         bits_equal(a.flat(), b.flat());
}

/// U diag(sigma) V^T.
[[nodiscard]] inline Matrix reconstruct(const Svd& s) {
  Matrix us = s.u;
  for (std::size_t i = 0; i < us.rows(); ++i) {
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s.sigma[j];
  }
  return matmul_a_bt(us, s.v);
}

/// Ā = A V_t V_t^T in the ambient space (rows still d-dimensional): the
/// coordinates lifted back by the basis itself (V_t is orthonormal, so
/// V_t^T is its pseudoinverse). The form of Theorem 5.1.
[[nodiscard]] inline Dataset project_within(const PcaProjection& pca) {
  Matrix ambient = matmul_a_bt(pca.coords.points(), pca.map.projection());
  return pca.coords.is_weighted()
             ? Dataset(std::move(ambient), *pca.coords.weights())
             : Dataset(std::move(ambient));
}

/// pca_project composed from the full decomposition: thin_svd, the
/// residual over sigma[t:], truncate(t), then the coordinates A V_t. The
/// library skips U and the unread columns; it must match this bit for bit.
[[nodiscard]] inline PcaProjection pca_by_thin_svd(const Dataset& data,
                                                   std::size_t t) {
  const std::size_t r = std::min({t, data.size(), data.dim()});
  Svd svd = thin_svd(data.points());
  PcaProjection out;
  for (std::size_t j = r; j < svd.rank(); ++j) {
    out.residual_sq += svd.sigma[j] * svd.sigma[j];
  }
  svd.truncate(r);
  out.map = LinearMap(svd.v);
  Matrix coords = matmul(data.points(), svd.v);
  out.coords = data.is_weighted() ? Dataset(std::move(coords), *data.weights())
                                  : Dataset(std::move(coords));
  return out;
}

}  // namespace ekm::test
