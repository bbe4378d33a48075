// Restarted GMRES(m) with left preconditioning [Saad & Schultz 86] — the
// iterative solver the paper uses to evaluate preconditioner quality
// (Table 3). Modified-Gram-Schmidt Arnoldi with Givens rotations.
#pragma once

#include <span>

#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

struct GmresOptions {
  int restart = 20;          ///< Krylov subspace dimension per cycle
  int max_matvecs = 20000;   ///< total matrix-vector product budget
  real rtol = 1e-5;          ///< stop when ||M^{-1}r|| drops by this factor
};

/// Why a solve stopped. A non-finite residual norm (NaN or Inf in b, x0,
/// A or M^{-1}) stops at once; x keeps the last completed cycle's iterate.
enum class GmresStop { kConverged, kBudget, kNonFinite };

struct GmresResult {
  bool converged = false;      ///< stop == kConverged
  GmresStop stop = GmresStop::kBudget;
  int matvecs = 0;             ///< NMV in the paper's Table 3
  int restarts = 0;
  real initial_residual = 0;   ///< preconditioned residual norms
  real final_residual = 0;
  RealVec residual_history;    ///< one entry per inner iteration
};

/// Solve A x = b with left-preconditioned restarted GMRES. x holds the
/// initial guess on entry and the solution on exit.
GmresResult gmres(const Csr& a, const Preconditioner& m, std::span<const real> b,
                  std::span<real> x, const GmresOptions& opts = {});

}  // namespace ptilu
