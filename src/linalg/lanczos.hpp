#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

/// \file lanczos.hpp
/// Lanczos iteration with full reorthogonalization for the smallest
/// eigenpair of a symmetric sparse matrix, with optional deflation of known
/// eigenvectors.  This is the workhorse behind the Fiedler-vector
/// computation: the paper (footnote 1) uses the block Lanczos code of [13];
/// sparsity of the netlist representation is exactly what makes this
/// practical, and the intersection graph's extra sparsity is one of the
/// paper's claims.
///
/// Full (rather than selective) reorthogonalization costs O(k^2 n) over k
/// iterations but is unconditionally robust against ghost eigenvalues; for
/// the benchmark sizes here (n <= ~3300, k <= kLanczosMaxIterations = 400)
/// that is well under a second.  The step cap and the Ritz-check cadence
/// are fixed constants; the options carry only the tolerance and the seed.
///
/// Every run starts from the seeded random direction, so a solve is a pure
/// function of the matrix and the options.  Incremental repartitioning
/// relies on that: a warm session's flat answer is bit-identical to a cold
/// IG-Match run on the same netlist (repart/session.hpp).

namespace netpart::linalg {

/// Lanczos steps per run; a run that has not converged by then reports
/// converged = false.
inline constexpr std::int32_t kLanczosMaxIterations = 400;
/// The tridiagonal Ritz problem is solved every this many steps.
inline constexpr std::int32_t kLanczosCheckInterval = 8;

/// Options for the Lanczos solver.
struct LanczosOptions {
  /// Converged when ||A x - theta x|| <= tolerance * max(inf_norm(A), 1).
  double tolerance = 1e-9;
  /// Seed of the deterministic starting vector.
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

/// Result of a Lanczos run.
struct LanczosResult {
  double eigenvalue = 0.0;
  std::vector<double> eigenvector;  ///< unit norm, orthogonal to deflation
  std::int32_t iterations = 0;
  double residual = 0.0;  ///< ||A x - theta x||
  bool converged = false;
};

/// Compute the smallest eigenpair of symmetric `a` restricted to the
/// orthogonal complement of the (orthonormal) `deflation` vectors.
///
/// Preconditions: a.dim() >= 1; each deflation vector has length a.dim()
/// and unit norm; the deflation set is mutually orthogonal.
/// Throws std::invalid_argument on size mismatches.
[[nodiscard]] LanczosResult smallest_eigenpair(
    const CsrMatrix& a, std::span<const std::vector<double>> deflation,
    const LanczosOptions& options = {});

}  // namespace netpart::linalg
