#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/tridiagonal.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace netpart::linalg {

namespace {

/// Orthogonalize `w` against the deflation set and the Lanczos basis.
/// Two passes ("twice is enough", Parlett) keep orthogonality to machine
/// precision even when cancellation is severe.  The inner dot/axpy kernels
/// run on the shared thread pool with fixed-chunk deterministic reductions,
/// so the recurrence is bit-identical for any worker count.
void reorthogonalize(std::span<double> w,
                     std::span<const std::vector<double>> deflation,
                     const std::vector<std::vector<double>>& basis) {
  NETPART_COUNTER_ADD("lanczos.reorthogonalizations", 1);
  // Pipeline the modified Gram-Schmidt chain with axpy_dot: subtracting the
  // projection onto vector k-1 and measuring the projection onto vector k
  // share one pass over w.  The arithmetic sequence (dot, axpy, dot, ...)
  // and its chunked summation order are exactly those of the plain
  // orthogonalize_against loop, so the result is bit-identical — only the
  // number of sweeps over w is halved, which is most of the solver's time
  // once the basis grows.
  std::vector<const std::vector<double>*> vecs;
  vecs.reserve(deflation.size() + basis.size());
  for (const auto& q : deflation) vecs.push_back(&q);
  for (const auto& q : basis) vecs.push_back(&q);
  if (vecs.empty()) return;
  for (int pass = 0; pass < 2; ++pass) {
    double proj = dot(w, *vecs.front());
    for (std::size_t k = 1; k < vecs.size(); ++k)
      proj = axpy_dot(-proj, *vecs[k - 1], w, *vecs[k]);
    axpy(-proj, *vecs.back(), w);
  }
}

/// Draw a fresh unit vector orthogonal to everything seen so far.  Returns
/// false if the space is exhausted (norm collapses repeatedly).
bool fresh_direction(std::vector<double>& v, std::uint64_t& seed,
                     std::span<const std::vector<double>> deflation,
                     const std::vector<std::vector<double>>& basis) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    fill_random(v, seed);
    seed += 0x1234567;
    reorthogonalize(v, deflation, basis);
    if (normalize(v) > 1e-8) return true;
  }
  return false;
}

}  // namespace

LanczosResult smallest_eigenpair(
    const CsrMatrix& a, std::span<const std::vector<double>> deflation,
    const LanczosOptions& options) {
  NETPART_SPAN("lanczos");
  NETPART_COUNTER_ADD("lanczos.runs", 1);
  const std::int32_t n = a.dim();
  if (n < 1) throw std::invalid_argument("smallest_eigenpair: empty matrix");
  for (const auto& q : deflation)
    if (static_cast<std::int32_t>(q.size()) != n)
      throw std::invalid_argument(
          "smallest_eigenpair: deflation vector size mismatch");

  const std::int32_t free_dim =
      n - static_cast<std::int32_t>(deflation.size());
  const std::int32_t max_steps =
      std::min(options.max_iterations, std::max(free_dim, 1));
  const double anorm = std::max(a.inf_norm(), 1.0);
  const double convergence_bound = options.tolerance * anorm;

  LanczosResult result;
  result.eigenvector.assign(static_cast<std::size_t>(n), 0.0);

  // Flush per-run accounting on every exit path.
  struct Flush {
    const LanczosResult& r;
    ~Flush() {
      NETPART_COUNTER_ADD("lanczos.iterations", r.iterations);
      NETPART_GAUGE_SET("lanczos.residual", r.residual);
      NETPART_GAUGE_SET("lanczos.converged", r.converged ? 1.0 : 0.0);
    }
  } flush{result};

  std::vector<std::vector<double>> basis;
  std::vector<double> alpha;  // tridiagonal diagonal
  std::vector<double> beta;   // subdiagonal; beta[j] couples v_j, v_{j+1}
  std::uint64_t seed = options.seed;

  std::vector<double> v(static_cast<std::size_t>(n));
  if (!fresh_direction(v, seed, deflation, basis)) {
    // Deflation spans the whole space: report the zero vector, eigenvalue 0.
    result.converged = free_dim <= 0;
    return result;
  }
  basis.push_back(v);

  std::vector<double> w(static_cast<std::size_t>(n));
  std::vector<double> scratch(static_cast<std::size_t>(n));
  const auto assemble_ritz = [&](const TridiagonalEigen& eig) {
    NETPART_COUNTER_ADD("lanczos.ritz_assemblies", 1);
    const std::size_t k = basis.size();
    std::fill(result.eigenvector.begin(), result.eigenvector.end(), 0.0);
    for (std::size_t i = 0; i < k; ++i)
      axpy(eig.vectors[i], basis[i], result.eigenvector);
    normalize(result.eigenvector);
    result.eigenvalue = eig.values[0];
    // True residual ||A x - theta x||.  Uses its own scratch buffer: `w`
    // still holds the next Lanczos vector at this point.
    a.multiply(result.eigenvector, scratch);
    axpy(-result.eigenvalue, result.eigenvector, scratch);
    result.residual = norm(scratch);
  };

  double previous_theta = std::numeric_limits<double>::infinity();
  for (std::int32_t j = 0; j < max_steps; ++j) {
    const std::vector<double>& vj = basis.back();
    a.multiply(vj, w);
    alpha.push_back(dot(w, vj));
    // w -= alpha_j v_j + beta_{j-1} v_{j-1}, then clean up residual
    // non-orthogonality against the whole basis.
    axpy(-alpha.back(), vj, w);
    if (j > 0 && beta.back() != 0.0)
      axpy(-beta.back(), basis[basis.size() - 2], w);
    reorthogonalize(w, deflation, basis);
    const double beta_j = normalize(w);

    result.iterations = j + 1;
    const bool last_step = j + 1 == max_steps;
    const bool breakdown = beta_j <= 1e-12 * anorm;
    const bool check = last_step || breakdown ||
                       (j + 1) % options.check_interval == 0;
    if (check) {
      // Cheap gate first: only assemble the (O(k^3)) Ritz vector once the
      // smallest Ritz value has stopped moving between checks.
      const double theta = tridiagonal_eigenvalues(alpha, beta).front();
      const bool theta_stable =
          std::abs(theta - previous_theta) <=
          options.tolerance * std::max(std::abs(theta), 1.0);
      previous_theta = theta;
      if (theta_stable || last_step || breakdown) {
        assemble_ritz(solve_tridiagonal(alpha, beta));
        NETPART_EVENT("lanczos.iteration",
                      {"j", static_cast<double>(j + 1)}, {"theta", theta},
                      {"residual", result.residual});
        if (result.residual <= convergence_bound) {
          result.converged = true;
          return result;
        }
      } else {
        // Ritz vector not assembled at this check: no residual yet.
        NETPART_EVENT("lanczos.iteration",
                      {"j", static_cast<double>(j + 1)}, {"theta", theta});
      }
    }
    if (last_step) break;

    if (breakdown) {
      // Invariant subspace found but not converged (can happen when the
      // start vector misses the target eigenvector's component); extend the
      // basis with a fresh direction.  beta = 0 keeps T block-diagonal.
      if (!fresh_direction(w, seed, deflation, basis)) {
        result.converged = true;  // searched the entire deflated space
        return result;
      }
      NETPART_COUNTER_ADD("lanczos.restarts", 1);
      beta.push_back(0.0);
    } else {
      beta.push_back(beta_j);
    }
    basis.push_back(w);
  }

  // Max iterations reached: the final Ritz pair was already assembled at
  // the last check; report convergence state honestly.
  result.converged = result.residual <= convergence_bound;
  return result;
}

}  // namespace netpart::linalg
