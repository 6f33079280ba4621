#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/fiedler.hpp"
#include "linalg/lanczos.hpp"

/// \file block_lanczos.hpp
/// Block Lanczos / Rayleigh-Ritz for the smallest eigenpair of a symmetric
/// sparse matrix — the solver family the paper actually used ("we use an
/// existing [block] Lanczos implementation [13]", citing Golub-Van Loan
/// [12]).  Working with b directions per iteration converges reliably in
/// the presence of (nearly) degenerate small eigenvalues, which single-
/// vector Lanczos resolves only slowly — exactly the spectrum shape that
/// hierarchical netlists produce.
///
/// Implementation notes: the basis is kept globally orthonormal (full
/// reorthogonalization, two Gram-Schmidt passes), A·v is cached per basis
/// column, and the projected matrix T = Vᵀ A V is maintained explicitly —
/// with full reorthogonalization this is algebraically the block
/// tridiagonal matrix of the classic formulation, but stays exactly
/// correct when rank-deficient blocks are refilled with fresh random
/// directions.

namespace netpart::linalg {

/// Ritz vectors kept across a thick restart.
inline constexpr std::int32_t kBlockLanczosRestartKeep = 16;
/// Restarts before giving up (honest converged = false).
inline constexpr std::int32_t kBlockLanczosMaxRestarts = 24;
/// The projected eigenproblem is solved every this many block steps.
inline constexpr std::int32_t kBlockLanczosCheckInterval = 2;

/// Options for the block solver.
struct BlockLanczosOptions {
  std::int32_t block_size = 4;
  /// Basis dimension at which a thick restart compresses the subspace.
  std::int32_t max_basis = 96;
  /// Converged when ||A x - theta x|| <= tolerance * max(inf_norm(A), 1).
  double tolerance = 1e-9;
  std::uint64_t seed = 0xB10CB10CULL;
};

/// Compute the smallest eigenpair of symmetric `a` restricted to the
/// orthogonal complement of the (orthonormal) `deflation` vectors.
/// Same contract as smallest_eigenpair (lanczos.hpp); `iterations` in the
/// result counts basis columns consumed.
[[nodiscard]] LanczosResult block_lanczos_smallest(
    const CsrMatrix& a, std::span<const std::vector<double>> deflation,
    const BlockLanczosOptions& options = {});

/// Fiedler pair via the block solver (ones vector deflated analytically).
[[nodiscard]] FiedlerResult fiedler_pair_block(
    const CsrMatrix& q, const BlockLanczosOptions& options = {});

}  // namespace netpart::linalg
