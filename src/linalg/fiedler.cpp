#include "linalg/fiedler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "linalg/block_lanczos.hpp"
#include "obs/metrics.hpp"

namespace netpart::linalg {

FiedlerResult fiedler_pair(const CsrMatrix& q, const LanczosOptions& options) {
  NETPART_SPAN("fiedler");
  NETPART_COUNTER_ADD("fiedler.runs", 1);
  const std::int32_t n = q.dim();
  if (n < 1) throw std::invalid_argument("fiedler_pair: empty Laplacian");

  FiedlerResult out;
  if (n == 1) {
    out.vector.assign(1, 0.0);
    out.converged = true;
    return out;
  }

  const std::vector<double> ones(
      static_cast<std::size_t>(n),
      1.0 / std::sqrt(static_cast<double>(n)));
  const std::vector<std::vector<double>> deflation{ones};

  LanczosResult lr = smallest_eigenpair(q, deflation, options);
  if (!lr.converged) {
    // Single-vector Lanczos resolves (nearly) degenerate small eigenvalues
    // slowly — the spectrum shape hierarchical netlists produce, and the
    // reason the paper used a block solver.  Fall back to it exactly where
    // the single-vector run stalls; converged runs are untouched, so their
    // eigenvectors (and every golden derived from them) keep their bits.
    BlockLanczosOptions block;
    block.tolerance = options.tolerance;
    block.seed = options.seed;
    LanczosResult blr = block_lanczos_smallest(q, deflation, block);
    NETPART_COUNTER_ADD("fiedler.block_fallbacks", 1);
    if (blr.converged || blr.residual < lr.residual) lr = std::move(blr);
  }
  out.lambda2 = lr.eigenvalue;
  out.vector = lr.eigenvector;
  out.lanczos_iterations = lr.iterations;
  out.residual = lr.residual;
  out.converged = lr.converged;
  NETPART_GAUGE_SET("fiedler.lambda2", out.lambda2);
  return out;
}

std::vector<std::int32_t> sorted_order(const std::vector<double>& vector) {
  std::vector<std::int32_t> order(vector.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return vector[static_cast<std::size_t>(a)] <
                            vector[static_cast<std::size_t>(b)];
                   });
  return order;
}

}  // namespace netpart::linalg
