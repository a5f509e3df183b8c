// Symmetric eigendecomposition.
//
// PCA for FSS (§3.3 / Theorem 3.2) and disPCA (§5.1) reduce to the
// eigendecomposition of a Gram matrix A^T A (or A A^T, whichever is
// smaller). We implement the classic dense symmetric pipeline:
// Householder tridiagonalization followed by implicit-shift QL with
// eigenvector accumulation (tred2/tql2). O(d^3), deterministic — this is
// exactly the "exact SVD" cost profile the paper charges FSS and BKLW
// with (complexity O(nd * min(n, d)) in Table 2).
//
// Layout. The solver works on Q^T, eigenvectors stored as rows, in a work
// array whose rows are cache-line aligned, so every hot loop runs over
// contiguous memory: the reduction keeps both triangles of the active
// block and reads whole rows for its matvec and rank-2 update, the
// back-accumulation builds Q^T row by row, and each plane rotation of the
// QL sweeps mixes two rows. The result is transposed once, on the way
// out, into the column convention below.
//
// Parallelism. From order 128 up, the matvec, the rank-2 update and the
// back-accumulation run on the thread pool (common/parallel.hpp) split by
// rows, and the QL rotations, recorded by the scalar iteration and applied
// in batches, split by 16-column groups. The chunk grid depends only on
// the matrix order and step, every row (or column) is written by exactly
// one chunk in the serial operation order, and the reduction's scalar
// folds stay serial. Values and vectors are therefore bitwise identical
// for any EKM_THREADS / set_parallel_threads width. Smaller matrices run
// every loop inline.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace ekm {

/// Eigendecomposition of a symmetric matrix: A = V diag(values) V^T.
/// `values` are sorted in DESCENDING order; column j of `vectors` is the
/// unit eigenvector for values[j].
struct SymmetricEigen {
  std::vector<double> values;
  Matrix vectors;  // d x d, eigenvectors in columns
};

/// Computes all eigenpairs of a symmetric matrix. The strictly lower
/// triangle is ignored (the matrix is symmetrized from the upper part).
/// Throws invariant_error if the QL iteration fails to converge (does not
/// happen for well-formed symmetric input).
[[nodiscard]] SymmetricEigen eigen_symmetric(const Matrix& a);

}  // namespace ekm
