#include "dr/pca.hpp"

#include <algorithm>
#include <cmath>

namespace ekm {

PcaProjection pca_project(const Dataset& data, std::size_t t) {
  EKM_EXPECTS(!data.empty());
  const std::size_t r = std::min({t, data.size(), data.dim()});
  EKM_EXPECTS_MSG(r >= 1, "PCA target dimension must be >= 1");

  RightSvd svd = right_svd(data.points(), r);
  PcaProjection out;
  // Residual energy = sum of squared singular values beyond t.
  for (std::size_t j = r; j < svd.sigma.size(); ++j) {
    out.residual_sq += svd.sigma[j] * svd.sigma[j];
  }
  out.map = LinearMap(svd.v);  // d x r
  Matrix coords = matmul(data.points(), svd.v);
  out.coords = data.is_weighted() ? Dataset(std::move(coords), *data.weights())
                                  : Dataset(std::move(coords));
  return out;
}

std::size_t fss_intrinsic_dim(std::size_t k, double epsilon, std::size_t n,
                              std::size_t d) {
  EKM_EXPECTS(epsilon > 0.0);
  const double t = static_cast<double>(k) +
                   std::ceil(4.0 * static_cast<double>(k) / (epsilon * epsilon)) -
                   1.0;
  const auto bound = std::min(n, d);
  return std::max<std::size_t>(1,
                               std::min(static_cast<std::size_t>(t), bound));
}

}  // namespace ekm
