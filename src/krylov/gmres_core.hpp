// Restarted GMRES(m) with left preconditioning, written once over a vector
// space policy: ptilu::gmres instantiates it with host loops over whole
// vectors, gmres_dist with supersteps on the simulated machine. Both share
// the cycle logic, Arnoldi, Givens, least squares and stopping by
// construction (DESIGN.md §17). A Space holds x, b, A and M and provides
// residual(r): r = M^{-1}(b - A x); precond_matvec(v, w): w = M^{-1} A v;
// dot, axpy, scale (w *= alpha), start_into (v0 = r / beta),
// update_x(V, y): x += V y; and orthog_scope(), an RAII guard held across
// one Gram-Schmidt step.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "ptilu/krylov/gmres.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::krylov_detail {

/// orthog_scope() of a Space with no phase tagging.
struct NoScope {};

template <class Space>
GmresResult gmres_core(Space& space, idx n, const GmresOptions& opts) {
  PTILU_CHECK(opts.restart >= 1 && opts.rtol > 0.0, "invalid GMRES options");
  const int krylov = opts.restart;
  GmresResult result;
  const auto stop = [&](GmresStop why) {
    result.stop = why;
    result.converged = why == GmresStop::kConverged;
    return std::move(result);
  };
  const auto norm2 = [&](const RealVec& u) { return std::sqrt(space.dot(u, u)); };

  RealVec r(n);
  space.residual(r);
  real beta = norm2(r);
  result.initial_residual = result.final_residual = beta;
  if (!std::isfinite(beta)) return stop(GmresStop::kNonFinite);
  if (beta == 0.0) return stop(GmresStop::kConverged);
  const real target = opts.rtol * beta;

  // Arnoldi basis (krylov+1 vectors) and Hessenberg in Givens-rotated form.
  std::vector<RealVec> v(krylov + 1, RealVec(n, 0.0));
  std::vector<RealVec> h(krylov + 1, RealVec(krylov, 0.0));
  RealVec cs(krylov, 0.0), sn(krylov, 0.0), g(krylov + 1, 0.0);

  while (result.matvecs < opts.max_matvecs) {
    // Start a cycle from the current residual.
    space.residual(r);
    beta = norm2(r);
    result.final_residual = beta;
    if (!std::isfinite(beta)) return stop(GmresStop::kNonFinite);
    if (beta <= target) return stop(GmresStop::kConverged);
    space.start_into(beta, r, v[0]);
    g.assign(g.size(), 0.0);
    g[0] = beta;

    int steps = 0;
    for (int j = 0; j < krylov && result.matvecs < opts.max_matvecs; ++j) {
      RealVec& w = v[j + 1];
      space.precond_matvec(v[j], w);
      ++result.matvecs;

      real hnext = 0.0;
      {
        [[maybe_unused]] const auto scope = space.orthog_scope();
        for (int i = 0; i <= j; ++i) {  // modified Gram-Schmidt
          h[i][j] = space.dot(w, v[i]);
          space.axpy(-h[i][j], v[i], w);
        }
        hnext = norm2(w);
        h[j + 1][j] = hnext;
        if (hnext > 0.0) space.scale(1.0 / hnext, w);
      }

      // Givens rotations are O(krylov) scalar work, replicated on every
      // rank in a distributed run — negligible, uncharged.
      for (int i = 0; i < j; ++i) {
        const real temp = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
        h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
        h[i][j] = temp;
      }
      // New rotation to annihilate h[j+1][j].
      const real denom = std::hypot(h[j][j], h[j + 1][j]);
      cs[j] = denom == 0.0 ? 1.0 : h[j][j] / denom;
      sn[j] = denom == 0.0 ? 0.0 : h[j + 1][j] / denom;
      h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
      h[j + 1][j] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      steps = j + 1;
      const real rho = std::abs(g[j + 1]);
      result.residual_history.push_back(rho);
      result.final_residual = rho;
      // x keeps the last completed cycle's iterate.
      if (!std::isfinite(rho)) return stop(GmresStop::kNonFinite);
      if (rho <= target || hnext == 0.0) break;  // converged or lucky breakdown
    }

    // Solve the triangular least-squares system and update x.
    RealVec y(steps, 0.0);
    for (int i = steps - 1; i >= 0; --i) {
      real acc = g[i];
      for (int k = i + 1; k < steps; ++k) acc -= h[i][k] * y[k];
      PTILU_CHECK(h[i][i] != 0.0, "GMRES Hessenberg breakdown at step " << i);
      y[i] = acc / h[i][i];
    }
    space.update_x(v, y);
    ++result.restarts;

    if (result.final_residual <= target) {
      // Verify with a fresh residual (the next cycle re-checks on entry).
      space.residual(r);
      result.final_residual = norm2(r);
      if (!std::isfinite(result.final_residual)) return stop(GmresStop::kNonFinite);
      if (result.final_residual <= target) return stop(GmresStop::kConverged);
    }
  }
  return stop(GmresStop::kBudget);
}

}  // namespace ptilu::krylov_detail
