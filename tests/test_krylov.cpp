// Tests for GMRES and the preconditioner stack.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ptilu/ilu/ilut.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

/// Relative true-residual check.
real true_relres(const Csr& a, const RealVec& x, const RealVec& b) {
  RealVec r(a.n_rows);
  residual(a, x, b, r);
  return norm2(r) / norm2(b);
}

TEST(Preconditioners, IdentityCopies) {
  IdentityPreconditioner p;
  const RealVec b = {1.0, -2.0, 3.0};
  RealVec x(3);
  p.apply(b, x);
  EXPECT_EQ(x, b);
}

TEST(Preconditioners, JacobiDividesByDiagonal) {
  const Csr a = workloads::convection_diffusion_2d(4, 4);
  JacobiPreconditioner p(a);
  const RealVec b(16, 8.0);
  RealVec x(16);
  p.apply(b, x);
  for (const real v : x) EXPECT_DOUBLE_EQ(v, 2.0);  // diagonal is 4
}

TEST(Preconditioners, JacobiRejectsZeroDiagonal) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  EXPECT_THROW(JacobiPreconditioner p(b.to_csr()), Error);
}

TEST(Gmres, SolvesLaplacianUnpreconditioned) {
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, IdentityPreconditioner{}, b, x, {.restart = 30});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(true_relres(a, x, b), 1e-4);
}

TEST(Gmres, ExactIluConvergesInOneIteration) {
  const Csr a = workloads::convection_diffusion_2d(10, 10, 6.0, 3.0);
  const IluFactors f = ilut(a, {.m = a.n_rows, .tau = 0.0});
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, IluPreconditioner(f), b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.matvecs, 2);
  EXPECT_LT(true_relres(a, x, b), 1e-6);
}

TEST(Gmres, IlutBeatsJacobiOnIterations) {
  const Csr a = workloads::convection_diffusion_2d(32, 32, 10.0, 5.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);

  RealVec x_jacobi(a.n_rows, 0.0);
  const GmresResult jacobi =
      gmres(a, JacobiPreconditioner(a), b, x_jacobi, {.restart = 20});
  RealVec x_ilut(a.n_rows, 0.0);
  const GmresResult ilut_res =
      gmres(a, IluPreconditioner(ilut(a, {.m = 10, .tau = 1e-4})), b, x_ilut,
            {.restart = 20});

  EXPECT_TRUE(ilut_res.converged);
  EXPECT_LT(ilut_res.matvecs * 2, jacobi.matvecs);
}

TEST(Gmres, TighterDropToleranceFewerIterations) {
  const Csr a = workloads::jump_coefficient_2d(24, 24, 4.0, 3);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  int prev_nmv = 1 << 30;
  for (const real tau : {1e-1, 1e-3, 1e-5}) {
    RealVec x(a.n_rows, 0.0);
    const GmresResult res =
        gmres(a, IluPreconditioner(ilut(a, {.m = 20, .tau = tau})), b, x);
    EXPECT_TRUE(res.converged) << "tau=" << tau;
    EXPECT_LE(res.matvecs, prev_nmv) << "tau=" << tau;
    prev_nmv = res.matvecs;
  }
}

TEST(Gmres, ZeroRhsConvergesImmediately) {
  const Csr a = workloads::convection_diffusion_2d(6, 6);
  const RealVec b(a.n_rows, 0.0);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, IdentityPreconditioner{}, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.stop, GmresStop::kConverged);
  EXPECT_EQ(res.matvecs, 0);
}

TEST(Gmres, StartingAtSolutionConvergesImmediately) {
  const Csr a = workloads::convection_diffusion_2d(6, 6);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 1.0);
  const GmresResult res = gmres(a, IdentityPreconditioner{}, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.matvecs, 0);
}

TEST(Gmres, RespectsMatvecBudget) {
  const Csr a = workloads::anisotropic_2d(40, 40, 1e-4);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res =
      gmres(a, IdentityPreconditioner{}, b, x, {.restart = 10, .max_matvecs = 25});
  EXPECT_LE(res.matvecs, 25);
}

TEST(Gmres, BudgetNotMultipleOfRestartEndsExactlyAtBudget) {
  const Csr a = workloads::anisotropic_2d(40, 40, 1e-4);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res =
      gmres(a, IdentityPreconditioner{}, b, x, {.restart = 10, .max_matvecs = 25});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.stop, GmresStop::kBudget);
  EXPECT_EQ(res.matvecs, 25);
  EXPECT_EQ(res.restarts, 3);
}

TEST(Gmres, NanRhsStopsBeforeAnyMatvec) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 4.0, 2.0);
  RealVec b = workloads::rhs_all_ones_solution(a);
  b[37] = std::numeric_limits<real>::quiet_NaN();
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, IdentityPreconditioner{}, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.stop, GmresStop::kNonFinite);
  EXPECT_EQ(res.matvecs, 0);
  EXPECT_TRUE(std::isnan(res.final_residual));
}

/// Identity until its k-th apply (1-based), NaN from that apply on.
class NanFromApply final : public Preconditioner {
 public:
  explicit NanFromApply(int k) : k_(k) {}
  void apply(std::span<const real> b, std::span<real> x) const override {
    const bool poison = ++applies_ >= k_;
    for (std::size_t i = 0; i < b.size(); ++i) {
      x[i] = poison ? std::numeric_limits<real>::quiet_NaN() : b[i];
    }
  }

 private:
  int k_;
  mutable int applies_ = 0;
};

TEST(Gmres, PreconditionerTurningNanStopsWithinItsApplies) {
  // Applies 1 and 2 are the initial and cycle-start residuals, 3..12 the
  // first cycle's matvecs, 13 the second cycle's start, and so on.
  const Csr a = workloads::convection_diffusion_2d(16, 16, 4.0, 2.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  for (const int k : {1, 2, 3, 7, 12, 13, 14, 30}) {
    RealVec x(a.n_rows, 0.0);
    const GmresResult res = gmres(a, NanFromApply(k), b, x, {.restart = 10});
    EXPECT_EQ(res.stop, GmresStop::kNonFinite) << "k=" << k;
    EXPECT_FALSE(res.converged) << "k=" << k;
    EXPECT_LE(res.matvecs, k) << "k=" << k;
    // x keeps the last completed cycle's iterate.
    for (const real v : x) ASSERT_TRUE(std::isfinite(v)) << "k=" << k;
  }
}

TEST(Gmres, ResidualHistoryMonotoneWithinCycle) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 4.0, 0.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, JacobiPreconditioner(a), b, x, {.restart = 50});
  // GMRES residuals are non-increasing within a cycle.
  for (std::size_t i = 1; i < std::min<std::size_t>(res.residual_history.size(), 50); ++i) {
    EXPECT_LE(res.residual_history[i], res.residual_history[i - 1] * (1 + 1e-12));
  }
}

TEST(Gmres, LargerRestartNoWorse) {
  const Csr a = workloads::anisotropic_2d(24, 24, 1e-2);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x20(a.n_rows, 0.0), x50(a.n_rows, 0.0);
  const auto r20 = gmres(a, JacobiPreconditioner(a), b, x20,
                         {.restart = 20, .max_matvecs = 5000});
  const auto r50 = gmres(a, JacobiPreconditioner(a), b, x50,
                         {.restart = 50, .max_matvecs = 5000});
  if (r20.converged && r50.converged) {
    EXPECT_LE(r50.matvecs, r20.matvecs * 3 / 2);
  } else {
    EXPECT_TRUE(r50.converged || !r20.converged);
  }
}

TEST(Gmres, SolvesTorsoWithIlut) {
  workloads::TorsoOptions opts;
  opts.nx = opts.ny = 12;
  opts.nz = 16;
  const Csr a = workloads::fem_torso_3d(opts).a;
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res =
      gmres(a, IluPreconditioner(ilut(a, {.m = 10, .tau = 1e-4})), b, x,
            {.restart = 50, .max_matvecs = 2000});
  EXPECT_TRUE(res.converged);
  RealVec ones(a.n_rows, 1.0);
  EXPECT_LT(max_abs_diff(x, ones), 1e-2);
}

TEST(Gmres, ReportedResidualTracksTrueResidual) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 2.0, 2.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres(a, IdentityPreconditioner{}, b, x, {.restart = 30});
  ASSERT_TRUE(res.converged);
  // With identity preconditioning, final_residual is the true residual norm.
  RealVec r(a.n_rows);
  residual(a, x, b, r);
  EXPECT_NEAR(res.final_residual, norm2(r), 1e-8 * norm2(b));
}

}  // namespace
}  // namespace ptilu
