// Exact 1-D k-means by dynamic programming (Wang & Song, R Journal 2011
// style, O(k n²) with prefix sums). One-dimensional projections appear
// throughout the paper's substrate (e.g. sanity checks for coresets and
// quantizers), and an exact polynomial-time oracle in 1-D is invaluable
// for testing the heuristic solvers: the general problem is NP-hard
// (§1 of the paper, refs [8][9]) but the line is easy.
// No pipeline calls it: it is the oracle the solver tests compare against.
#pragma once

#include <span>
#include <vector>

#include "kmeans/lloyd.hpp"

namespace ekm {

/// Exact optimal k-means of weighted scalars. Returns optimal centers
/// (ascending), the optimal cost, and the assignment (by sorted order of
/// the input: contiguous clusters). O(k n²) time, O(k n) memory.
[[nodiscard]] KMeansResult kmeans_1d_exact(std::span<const double> values,
                                           std::span<const double> weights,
                                           std::size_t k);

/// Unweighted convenience overload.
[[nodiscard]] KMeansResult kmeans_1d_exact(std::span<const double> values,
                                           std::size_t k);

}  // namespace ekm
