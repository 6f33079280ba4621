#pragma once

#include <cstdint>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/lanczos.hpp"

/// \file fiedler.hpp
/// Second-smallest eigenpair of a graph Laplacian Q = D - A (the "Fiedler"
/// eigenpair).  Theorem 1 of the paper (Hagen-Kahng) ties its eigenvalue to
/// a lower bound on the optimal ratio cut, c >= lambda_2 / n, and its
/// eigenvector — sorted — is the linear ordering every spectral algorithm
/// in this library starts from.  That one eigenpair is all of the spectrum
/// the library computes; fiedler_pair_block (block_lanczos.hpp) is the
/// block-solver variant of the same computation.

namespace netpart::linalg {

/// Result of a Fiedler computation.
struct FiedlerResult {
  double lambda2 = 0.0;             ///< second-smallest eigenvalue of Q
  std::vector<double> vector;       ///< corresponding unit eigenvector
  std::int32_t lanczos_iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Compute the Fiedler eigenpair of the Laplacian `q` (which must be
/// symmetric with zero row sums; this is checked loosely).  The trivial
/// all-ones eigenvector is deflated analytically.  For dim() == 1 the
/// result is lambda2 = 0 with a zero vector.
[[nodiscard]] FiedlerResult fiedler_pair(const CsrMatrix& q,
                                         const LanczosOptions& options = {});

/// Indices 0..n-1 sorted by ascending eigenvector component, ties broken by
/// index so the ordering is fully deterministic.
[[nodiscard]] std::vector<std::int32_t> sorted_order(
    const std::vector<double>& vector);

}  // namespace netpart::linalg
