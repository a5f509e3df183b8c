// Tests for the exact 1-D k-means dynamic program, the oracle the
// production Lloyd solver is checked against.
#include <gtest/gtest.h>

#include <random>

#include "kmeans/cost.hpp"
#include "kmeans/kmeans1d.hpp"
#include "kmeans/lloyd.hpp"

namespace ekm {
namespace {

TEST(KMeans1d, KnownOptimum) {
  // {0, 1, 10, 11}, k=2: split {0,1} | {10,11}, cost 0.5 + 0.5 = 1.
  const std::vector<double> xs{10.0, 0.0, 11.0, 1.0};  // unsorted on purpose
  const KMeansResult res = kmeans_1d_exact(xs, 2);
  EXPECT_NEAR(res.cost, 1.0, 1e-12);
  EXPECT_NEAR(res.centers(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(res.centers(1, 0), 10.5, 1e-12);
  // Assignment is reported in ORIGINAL input order.
  EXPECT_EQ(res.assignment[0], res.assignment[2]);  // 10 with 11
  EXPECT_EQ(res.assignment[1], res.assignment[3]);  // 0 with 1
  EXPECT_NE(res.assignment[0], res.assignment[1]);
}

TEST(KMeans1d, WeightsShiftTheOptimum) {
  // With weight 10 on the value 2, the single center moves toward 2.
  const std::vector<double> xs{0.0, 2.0};
  const std::vector<double> ws{1.0, 10.0};
  const KMeansResult res = kmeans_1d_exact(xs, ws, 1);
  EXPECT_NEAR(res.centers(0, 0), 20.0 / 11.0, 1e-12);
}

TEST(KMeans1d, MatchesBruteForceOnRandomInstances) {
  Rng rng = make_rng(330);
  std::uniform_real_distribution<double> unif(-5.0, 5.0);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8;
    Matrix pts(n, 1);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = unif(rng);
      pts(i, 0) = xs[i];
    }
    const KMeansResult dp = kmeans_1d_exact(xs, 3);
    const KMeansResult bf = kmeans_brute_force(Dataset(std::move(pts)), 3);
    EXPECT_NEAR(dp.cost, bf.cost, 1e-9) << "trial " << trial;
  }
}

TEST(KMeans1d, KGreaterEqualNIsZeroCost) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const KMeansResult res = kmeans_1d_exact(xs, 5);
  EXPECT_NEAR(res.cost, 0.0, 1e-15);
  EXPECT_EQ(res.centers.rows(), 3u);
}

TEST(KMeans1d, IsTheOracleLloydCannotBeat) {
  Rng rng = make_rng(331);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<double> xs(200);
  Matrix pts(200, 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = unif(rng) < 0.5 ? unif(rng) : 5.0 + unif(rng) * 0.1;
    pts(i, 0) = xs[i];
  }
  const KMeansResult dp = kmeans_1d_exact(xs, 4);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 10;
  opts.seed = 12;
  const KMeansResult heur = kmeans(Dataset(std::move(pts)), opts);
  EXPECT_GE(heur.cost + 1e-9, dp.cost);
}

}  // namespace
}  // namespace ekm
