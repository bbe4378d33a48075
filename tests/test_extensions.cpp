// Tests for the library extensions: distributed GMRES, equilibration
// scaling, and RCM reordering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/graph/rcm.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sparse/scaling.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

// ------------------------------------------------------ distributed GMRES

struct DistSolveFixture {
  Csr a;
  DistCsr dist;
  Halo halo;
  PilutResult factorization;
  sim::Machine machine;

  DistSolveFixture(const Csr& matrix, int nranks, const PilutOptions& opts)
      : a(matrix),
        dist(DistCsr::create(a, partition_kway(graph_from_pattern(a), nranks))),
        halo(Halo::build(dist)),
        factorization(),
        machine(nranks) {
    factorization = pilut_factor(machine, dist, opts);
  }
};

TEST(GmresDist, MatchesSerialIterationCounts) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 8.0, 4.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  for (const int nranks : {1, 4, 8}) {
    DistSolveFixture fx(a, nranks, {.m = 8, .tau = 1e-4});
    RealVec x_dist(a.n_rows, 0.0), x_serial(a.n_rows, 0.0);
    const GmresResult par =
        gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x_dist,
                   {.restart = 20});
    const GmresResult ser =
        gmres(a, IluPreconditioner(fx.factorization.factors,
                                   fx.factorization.schedule.newnum),
              b, x_serial, {.restart = 20});
    ASSERT_TRUE(par.converged) << "nranks=" << nranks;
    ASSERT_TRUE(ser.converged);
    // Identical arithmetic up to reduction order: counts match (allow one
    // iteration of roundoff slack).
    EXPECT_NEAR(par.matvecs, ser.matvecs, 1) << "nranks=" << nranks;
    EXPECT_LT(max_abs_diff(x_dist, x_serial), 1e-6) << "nranks=" << nranks;
  }
}

TEST(GmresDist, SolvesToTrueResidual) {
  const Csr a = workloads::jump_coefficient_2d(16, 16, 3.0, 5);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  DistSolveFixture fx(a, 4, {.m = 10, .tau = 1e-5});
  RealVec x(a.n_rows, 0.0);
  const GmresResult result =
      gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x,
                 {.restart = 30, .rtol = 1e-8});
  ASSERT_TRUE(result.converged);
  RealVec r(a.n_rows);
  residual(a, x, b, r);
  EXPECT_LT(norm2(r) / norm2(b), 1e-6);
}

TEST(GmresDist, ModeledTimeIsPositiveAndScalesDown) {
  const Csr a = workloads::convection_diffusion_2d(48, 48, 6.0, 3.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  double prev = 1e300;
  for (const int nranks : {2, 8}) {
    DistSolveFixture fx(a, nranks, {.m = 10, .tau = 1e-4, .cap_k = 2});
    RealVec x(a.n_rows, 0.0);
    const GmresResult result =
        gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x, {.restart = 20});
    ASSERT_TRUE(result.converged);
    EXPECT_GT(fx.machine.modeled_time(), 0.0);
    EXPECT_LT(fx.machine.modeled_time(), prev) << "nranks=" << nranks;
    prev = fx.machine.modeled_time();
  }
}

TEST(GmresDist, EveryDotIsASynchronization) {
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  DistSolveFixture fx(a, 2, {.m = 5, .tau = 1e-3});
  RealVec x(a.n_rows, 0.0);
  (void)gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x, {.restart = 20});
  // MGS inside GMRES costs at least one superstep per projection.
  EXPECT_GT(fx.machine.supersteps(), 50u);
}

TEST(GmresDist, NanRhsStopsBeforeAnyMatvec) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 4.0, 2.0);
  RealVec b = workloads::rhs_all_ones_solution(a);
  b[37] = std::numeric_limits<real>::quiet_NaN();
  DistSolveFixture fx(a, 4, {.m = 8, .tau = 1e-4});
  RealVec x(a.n_rows, 0.0);
  const GmresResult res =
      gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.stop, GmresStop::kNonFinite);
  EXPECT_EQ(res.matvecs, 0);
  EXPECT_TRUE(std::isnan(res.final_residual));
}

TEST(GmresDist, BudgetNotMultipleOfRestartEndsExactlyAtBudget) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 8.0, 4.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  DistSolveFixture fx(a, 4, {.m = 2, .tau = 1e-1});
  RealVec x(a.n_rows, 0.0);
  const GmresResult res = gmres_dist(fx.machine, fx.dist, fx.halo, fx.factorization, b, x,
                                     {.restart = 10, .max_matvecs = 25, .rtol = 1e-14});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.stop, GmresStop::kBudget);
  EXPECT_EQ(res.matvecs, 25);
  EXPECT_EQ(res.restarts, 3);
}

// ------------------------------------------------------------- scaling --

TEST(Scaling, RowEquilibrationUnitInfNorms) {
  const Csr a = workloads::jump_coefficient_2d(12, 12, 5.0, 3);
  const Equilibration eq = equilibrate_rows(a);
  const RealVec norms = row_norms(eq.scaled, 0);
  for (const real norm : norms) EXPECT_NEAR(norm, 1.0, 1e-12);
}

TEST(Scaling, RuizSweepsBalanceRowsAndColumns) {
  const Csr a = workloads::jump_coefficient_2d(16, 16, 6.0, 9);
  const Equilibration eq = equilibrate(a, 4);
  const RealVec rn = row_norms(eq.scaled, 0);
  const RealVec cn = row_norms(transpose(eq.scaled), 0);
  for (idx i = 0; i < a.n_rows; ++i) {
    EXPECT_NEAR(rn[i], 1.0, 0.1) << "row " << i;
    EXPECT_NEAR(cn[i], 1.0, 0.1) << "col " << i;
  }
}

TEST(Scaling, SolutionMapsBack) {
  // Solve D_r A D_c y = D_r b exactly, map back, check A x = b.
  const Csr a = workloads::jump_coefficient_2d(10, 10, 4.0, 2);
  const Equilibration eq = equilibrate(a);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const RealVec b_scaled = eq.scale_rhs(b);
  const IluFactors f = ilut(eq.scaled, {.m = a.n_rows, .tau = 0.0});
  RealVec y(a.n_rows);
  ilu_apply(f, b_scaled, y);
  const RealVec x = eq.unscale_solution(y);
  RealVec r(a.n_rows);
  residual(a, x, b, r);
  EXPECT_LT(norm_inf(r) / norm_inf(b), 1e-9);
}

TEST(Scaling, HelpsIlutOnExtremeJumps) {
  // The workload where plain ILUT's relative threshold misfires (strong
  // coefficient contrast): equilibration restores its advantage.
  const Csr a = workloads::jump_coefficient_2d(24, 24, 6.0, 7);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const auto nmv = [&](const Csr& matrix, const RealVec& rhs) {
    RealVec x(matrix.n_rows, 0.0);
    const GmresResult r =
        gmres(matrix, IluPreconditioner(ilut(matrix, {.m = 10, .tau = 1e-3})), rhs, x,
              {.restart = 30, .max_matvecs = 10000});
    return r.converged ? r.matvecs : 10000;
  };
  const Equilibration eq = equilibrate(a);
  EXPECT_LT(nmv(eq.scaled, eq.scale_rhs(b)), nmv(a, b));
}

TEST(Scaling, RejectsZeroRow) {
  Csr a(2, 2);
  a.row_ptr = {0, 1, 1};
  a.col_idx = {0};
  a.values = {1.0};
  EXPECT_THROW(equilibrate_rows(a), Error);
  EXPECT_THROW(equilibrate(a), Error);
}

// ----------------------------------------------------------------- RCM --

TEST(Rcm, IsAPermutation) {
  const Csr a = workloads::convection_diffusion_2d(15, 17);
  const IdxVec order = rcm_ordering(graph_from_pattern(a));
  EXPECT_TRUE(is_permutation(order, a.n_rows));
}

TEST(Rcm, ReducesBandwidthOfShuffledMatrix) {
  // Shuffle a banded matrix, then RCM must reduce the bandwidth back down.
  const Csr banded = workloads::convection_diffusion_2d(20, 20);
  Rng rng(5);
  IdxVec shuffle(banded.n_rows);
  for (idx i = 0; i < banded.n_rows; ++i) shuffle[i] = i;
  for (idx i = banded.n_rows - 1; i > 0; --i) {
    std::swap(shuffle[i], shuffle[rng.next_index(i + 1)]);
  }
  const Csr shuffled = permute_symmetric(banded, shuffle);
  const idx before = bandwidth(shuffled);
  const Csr reordered = permute_symmetric(shuffled, rcm_ordering(graph_from_pattern(shuffled)));
  const idx after = bandwidth(reordered);
  EXPECT_LT(after * 4, before);
  EXPECT_LE(after, 40);  // grid bandwidth is ~n_side
}

TEST(Rcm, HandlesDisconnectedGraphs) {
  const Graph g = graph_from_edges(7, {{0, 1}, {1, 2}, {4, 5}});
  const IdxVec order = rcm_ordering(g);
  EXPECT_TRUE(is_permutation(order, 7));
}

TEST(Rcm, PreservesSolvability) {
  const Csr a = workloads::convection_diffusion_2d(12, 12, 4.0, 2.0);
  const IdxVec order = rcm_ordering(graph_from_pattern(a));
  const Csr pa = permute_symmetric(a, order);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec pb(a.n_rows), px(a.n_rows, 0.0), x(a.n_rows);
  for (idx i = 0; i < a.n_rows; ++i) pb[order[i]] = b[i];
  const GmresResult result =
      gmres(pa, IluPreconditioner(ilut(pa, {.m = 8, .tau = 1e-4})), pb, px);
  ASSERT_TRUE(result.converged);
  for (idx i = 0; i < a.n_rows; ++i) x[i] = px[order[i]];
  RealVec ones(a.n_rows, 1.0);
  EXPECT_LT(max_abs_diff(x, ones), 1e-3);
}

TEST(Rcm, BandwidthHelper) {
  CooBuilder b(4, 4);
  b.add(0, 0, 1.0);
  b.add(0, 3, 1.0);
  b.add(2, 1, 1.0);
  EXPECT_EQ(bandwidth(b.to_csr()), 3);
}

}  // namespace
}  // namespace ptilu
