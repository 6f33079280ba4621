#include "linalg/block_lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/jacobi.hpp"
#include "linalg/vector_ops.hpp"

namespace netpart::linalg {

namespace {

/// Orthogonalize one column against the deflation set and the whole basis
/// (two passes), returning its remaining norm without normalizing.  The
/// dot/axpy kernels underneath parallelize on the shared pool with
/// deterministic reductions, so block iterations are thread-count
/// independent bit for bit.
double orthogonalize_column(std::vector<double>& column,
                            std::span<const std::vector<double>> deflation,
                            const std::vector<std::vector<double>>& basis) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : deflation) orthogonalize_against(column, q);
    for (const auto& q : basis) orthogonalize_against(column, q);
  }
  return norm(column);
}

}  // namespace

LanczosResult block_lanczos_smallest(
    const CsrMatrix& a, std::span<const std::vector<double>> deflation,
    const BlockLanczosOptions& options) {
  const std::int32_t n = a.dim();
  if (n < 1)
    throw std::invalid_argument("block_lanczos_smallest: empty matrix");
  if (options.block_size < 1)
    throw std::invalid_argument("block_lanczos_smallest: block_size < 1");
  for (const auto& q : deflation)
    if (static_cast<std::int32_t>(q.size()) != n)
      throw std::invalid_argument(
          "block_lanczos_smallest: deflation size mismatch");

  const std::int32_t free_dim =
      n - static_cast<std::int32_t>(deflation.size());
  const std::int32_t basis_cap =
      std::min(options.max_basis, std::max(free_dim, 1));
  const double anorm = std::max(a.inf_norm(), 1.0);
  const double bound = options.tolerance * anorm;

  LanczosResult result;
  result.eigenvector.assign(static_cast<std::size_t>(n), 0.0);
  if (free_dim <= 0) {
    result.converged = true;
    return result;
  }

  std::vector<std::vector<double>> basis;   // orthonormal columns v_i
  std::vector<std::vector<double>> a_basis; // cached A v_i
  std::vector<double> t;                    // projected T, row-major k x k
  std::uint64_t seed = options.seed;

  // Append one orthonormalized column (and its A-image and T row/column).
  // Returns false when the direction vanished inside the existing span.
  const auto append_column = [&](std::vector<double> column) {
    const double remaining =
        orthogonalize_column(column, deflation, basis);
    if (remaining <= 1e-10) return false;
    scale(column, 1.0 / remaining);
    std::vector<double> image(static_cast<std::size_t>(n));
    a.multiply(column, image);

    const std::size_t k = basis.size();
    // Grow T from k x k to (k+1) x (k+1).
    std::vector<double> grown((k + 1) * (k + 1), 0.0);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        grown[i * (k + 1) + j] = t[i * k + j];
    for (std::size_t i = 0; i < k; ++i) {
      const double entry = dot(basis[i], image);
      grown[i * (k + 1) + k] = entry;
      grown[k * (k + 1) + i] = entry;
    }
    grown[k * (k + 1) + k] = dot(column, image);
    t = std::move(grown);
    basis.push_back(std::move(column));
    a_basis.push_back(std::move(image));
    return true;
  };

  const auto fresh_column = [&] {
    std::vector<double> column(static_cast<std::size_t>(n));
    for (int attempt = 0; attempt < 8; ++attempt) {
      fill_random(column, seed);
      seed += 0xB10C;
      std::vector<double> copy = column;
      if (append_column(std::move(copy))) return true;
    }
    return false;
  };

  // Seed block: random directions.
  for (std::int32_t i = 0;
       i < options.block_size &&
       static_cast<std::int32_t>(basis.size()) < basis_cap;
       ++i)
    if (!fresh_column()) break;

  // Thick restart: compress the basis to the `keep` smallest Ritz vectors.
  // Ritz vectors of an orthonormal basis are orthonormal, their A-images
  // are the same linear combinations of the cached images, and the
  // projected matrix collapses to diag(theta) exactly.
  const auto thick_restart = [&](const DenseEigen& eig) {
    const std::size_t k = basis.size();
    const auto keep = static_cast<std::size_t>(std::clamp(
        kBlockLanczosRestartKeep, 1,
        static_cast<std::int32_t>(k) - 1));
    std::vector<std::vector<double>> new_basis;
    std::vector<std::vector<double>> new_images;
    for (std::size_t j = 0; j < keep; ++j) {
      std::vector<double> v(static_cast<std::size_t>(n), 0.0);
      std::vector<double> av(static_cast<std::size_t>(n), 0.0);
      for (std::size_t i = 0; i < k; ++i) {
        const double c = eig.vectors[j * k + i];
        if (c == 0.0) continue;
        axpy(c, basis[i], v);
        axpy(c, a_basis[i], av);
      }
      new_basis.push_back(std::move(v));
      new_images.push_back(std::move(av));
    }
    basis = std::move(new_basis);
    a_basis = std::move(new_images);
    t.assign(keep * keep, 0.0);
    for (std::size_t j = 0; j < keep; ++j) t[j * keep + j] = eig.values[j];
  };

  std::int32_t steps_since_check = 0;
  std::int32_t restarts = 0;
  while (true) {
    result.iterations = static_cast<std::int32_t>(basis.size());
    const bool full = static_cast<std::int32_t>(basis.size()) >= basis_cap;
    ++steps_since_check;
    if (full || steps_since_check >= kBlockLanczosCheckInterval) {
      steps_since_check = 0;
      const std::size_t k = basis.size();
      const DenseEigen eig = jacobi_eigen(t, k);
      // Assemble the smallest Ritz pair.
      std::fill(result.eigenvector.begin(), result.eigenvector.end(), 0.0);
      for (std::size_t i = 0; i < k; ++i)
        axpy(eig.vectors[i], basis[i], result.eigenvector);
      normalize(result.eigenvector);
      result.eigenvalue = eig.values[0];
      std::vector<double> residual_vec(static_cast<std::size_t>(n));
      a.multiply(result.eigenvector, residual_vec);
      axpy(-result.eigenvalue, result.eigenvector, residual_vec);
      result.residual = norm(residual_vec);
      if (result.residual <= bound) {
        result.converged = true;
        return result;
      }
      if (full) {
        if (restarts >= kBlockLanczosMaxRestarts ||
            static_cast<std::int32_t>(k) >= free_dim)
          return result;  // honest: out of budget or space, not converged
        ++restarts;
        thick_restart(eig);
      }
    }

    // Expand: next block = A applied to the newest block's columns (their
    // images are cached), orthogonalized into fresh directions; deficient
    // directions are refilled randomly.
    const std::size_t before = basis.size();
    const std::size_t first_of_last_block =
        before >= static_cast<std::size_t>(options.block_size)
            ? before - static_cast<std::size_t>(options.block_size)
            : 0;
    for (std::size_t i = first_of_last_block;
         i < before &&
         static_cast<std::int32_t>(basis.size()) < basis_cap;
         ++i) {
      if (!append_column(a_basis[i])) fresh_column();
    }
    if (basis.size() == before) {
      // Space exhausted: the Ritz pair at the next check is exact.
      const std::size_t k = basis.size();
      const DenseEigen eig = jacobi_eigen(t, k);
      std::fill(result.eigenvector.begin(), result.eigenvector.end(), 0.0);
      for (std::size_t i = 0; i < k; ++i)
        axpy(eig.vectors[i], basis[i], result.eigenvector);
      normalize(result.eigenvector);
      result.eigenvalue = eig.values[0];
      std::vector<double> residual_vec(static_cast<std::size_t>(n));
      a.multiply(result.eigenvector, residual_vec);
      axpy(-result.eigenvalue, result.eigenvector, residual_vec);
      result.residual = norm(residual_vec);
      result.converged = result.residual <= bound;
      return result;
    }
  }
}

FiedlerResult fiedler_pair_block(const CsrMatrix& q,
                                 const BlockLanczosOptions& options) {
  const std::int32_t n = q.dim();
  if (n < 1) throw std::invalid_argument("fiedler_pair_block: empty");
  FiedlerResult out;
  if (n == 1) {
    out.vector.assign(1, 0.0);
    out.converged = true;
    return out;
  }
  const std::vector<std::vector<double>> deflation{std::vector<double>(
      static_cast<std::size_t>(n),
      1.0 / std::sqrt(static_cast<double>(n)))};
  const LanczosResult r = block_lanczos_smallest(q, deflation, options);
  out.lambda2 = r.eigenvalue;
  out.vector = r.eigenvector;
  out.lanczos_iterations = r.iterations;
  out.residual = r.residual;
  out.converged = r.converged;
  return out;
}

}  // namespace netpart::linalg
