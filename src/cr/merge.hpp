// Shared associative-merge layer for summaries.
//
// Every summary in the library is built from associative operators: the
// weighted coreset union (disSS's server union, the streaming
// merge-and-reduce carry) and the PCA summary stack (disPCA's Y-matrix
// append). Associativity is what lets an
// intermediate gateway (net/tree_fabric.hpp) reduce its children's
// frames in flight and forward one merged frame without changing the
// final model — but only if the gateway runs the *same* merge code the
// server runs. This header is that single implementation: the star path
// and the tree path both call through here, so "star ≡ flattened tree"
// is a property of one function, not a coincidence of three copies.
//
// Determinism contract: merges are folds over an explicit operand
// order. A fixed order (the protocols use ascending site/child index)
// gives bitwise-stable output; permuting the operands permutes rows of
// the result but preserves the weighted point multiset exactly, which
// is the order-invariance the tree relies on (tests/test_tree.cpp).
#pragma once

#include <vector>

#include "cr/coreset.hpp"

namespace ekm {

/// Weighted union of two coresets: points of `a` then points of `b`,
/// weights carried through unchanged. The associative operator behind
/// the streaming merge-and-reduce tree and the gateway in-flight
/// reduce. Ignores delta/basis (both are 0/absent on every coreset that
/// crosses this merge — disSS and streaming summaries are ambient).
[[nodiscard]] Dataset merge_weighted(const Coreset& a, const Coreset& b);

/// Ordered weighted union of many summary pieces: concatenation in
/// operand order, empty pieces skipped. This is disSS's server union —
/// and, applied to per-gateway merges of per-site pieces, exactly the
/// same row order as the flat star union, which is what the star-vs-tree
/// bitwise parity test pins down. Returns an empty Dataset when every
/// piece is empty (callers enforce their own non-empty invariants).
[[nodiscard]] Dataset merge_union(std::vector<Dataset> pieces);

}  // namespace ekm
