// Tests for the parallel ILUT/ILUT* factorization and the parallel
// triangular solves — the paper's core contribution.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/trisolve.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sparse/dense.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"

namespace ptilu {
namespace {

DistCsr make_dist(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

TEST(Pilut, SingleRankMatchesSerialIlutExactly) {
  const Csr a = workloads::convection_diffusion_2d(16, 16, 6.0, 3.0);
  const DistCsr dist = make_dist(a, 1);
  sim::Machine machine(1);
  const PilutResult result = pilut_factor(machine, dist, {.m = 5, .tau = 1e-3});
  IlutStats serial_stats;
  const IluFactors serial = ilut(a, {.m = 5, .tau = 1e-3}, &serial_stats);
  // One rank => no interface nodes, natural ordering, identical arithmetic.
  EXPECT_EQ(result.stats.interface_nodes, 0);
  EXPECT_EQ(result.stats.levels, 0);
  EXPECT_TRUE(equal(result.factors.l, serial.l));
  EXPECT_TRUE(equal(result.factors.u, serial.u));
  // Same arithmetic must also mean the same flop ledger, so the simulated
  // Mflop rates are comparable against the serial baseline.
  EXPECT_EQ(result.stats.flops, serial_stats.flops);
}

TEST(Pilut, FamilyNamesNonFiniteEntry) {
  // Row 300 of G0 24^2 is an interface row at p=4. Without the shared
  // check, a NaN there left pilut_factor returning finite factors (row 300's
  // L row emptied) while the other two drivers blamed a "zero or subnormal
  // pivot", and an Inf passed all three drivers unreported.
  const Csr clean = workloads::convection_diffusion_2d(24, 24, 10.0, 20.0);
  const nnz_t slot = clean.row_ptr[300] + 1;
  ASSERT_EQ(clean.col_idx[slot], 299);
  using Driver = std::function<void(sim::Machine&, const DistCsr&)>;
  const std::vector<std::pair<const char*, Driver>> drivers = {
      {"pilut", [](sim::Machine& m, const DistCsr& d) { (void)pilut_factor(m, d); }},
      {"pilu0", [](sim::Machine& m, const DistCsr& d) { (void)pilu0_factor(m, d); }},
      {"nested",
       [](sim::Machine& m, const DistCsr& d) { (void)pilut_factor_nested(m, d, {}); }}};
  for (const real bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Csr a = clean;
    a.values[slot] = bad;
    const DistCsr dist = make_dist(a, 4);
    ASSERT_TRUE(dist.interface[300]);
    std::ostringstream expected;
    expected << "row 300 of A has a non-finite entry (" << bad << ") in column 299";
    for (const auto& [name, factor] : drivers) {
      sim::Machine machine(4);
      std::string what = "no error";
      try {
        factor(machine, dist);
      } catch (const Error& e) {
        what = e.what();
      }
      EXPECT_NE(what.find(expected.str()), std::string::npos) << name << ": " << what;
    }
  }
}

TEST(Pilut, MatchesSerialIlutOnPermutedMatrix) {
  // The load-bearing equivalence: parallel ILUT (uncapped) on p ranks must
  // produce exactly the factors serial ILUT produces on P A P^T, where P is
  // the ordering the parallel algorithm chose. Same dropping decisions,
  // same floating-point operation order.
  const Csr a = workloads::convection_diffusion_2d(20, 20, 8.0, 4.0);
  for (const int nranks : {2, 4, 7}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    const PilutOptions opts{.m = 5, .tau = 1e-3};
    const PilutResult par = pilut_factor(machine, dist, opts);
    const Csr pa = permute_symmetric(a, par.schedule.newnum);
    const IluFactors serial = ilut(pa, {.m = opts.m, .tau = opts.tau});
    EXPECT_TRUE(equal(par.factors.l, serial.l)) << "nranks=" << nranks;
    EXPECT_TRUE(equal(par.factors.u, serial.u)) << "nranks=" << nranks;
  }
}

TEST(Pilut, MatchesSerialOnJumpCoefficients) {
  // Strong coefficient jumps exercise both dropping rules heavily.
  const Csr a = workloads::jump_coefficient_2d(18, 18, 5.0, 11);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult par = pilut_factor(machine, dist, {.m = 8, .tau = 1e-2});
  const Csr pa = permute_symmetric(a, par.schedule.newnum);
  const IluFactors serial = ilut(pa, {.m = 8, .tau = 1e-2});
  EXPECT_TRUE(equal(par.factors.l, serial.l));
  EXPECT_TRUE(equal(par.factors.u, serial.u));
}

TEST(Pilut, NoDroppingGivesExactFactorization) {
  const Csr a = workloads::convection_diffusion_2d(8, 8, 3.0, 1.0);
  const idx n = a.n_rows;
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult result = pilut_factor(machine, dist, {.m = n, .tau = 0.0});
  // L*U must equal P A P^T exactly (up to roundoff).
  const Csr pa = permute_symmetric(a, result.schedule.newnum);
  Dense l = Dense::from_csr(result.factors.l);
  Dense u = Dense::from_csr(result.factors.u);
  const Dense target = Dense::from_csr(pa);
  for (idx i = 0; i < n; ++i) l(i, i) = 1.0;
  for (idx i = 0; i < n; ++i) {
    for (idx j = 0; j < n; ++j) {
      real acc = 0.0;
      for (idx k = 0; k < n; ++k) acc += l(i, k) * u(k, j);
      EXPECT_NEAR(acc, target(i, j), 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Pilut, ScheduleStructureIsSound) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult result = pilut_factor(machine, dist, {.m = 5, .tau = 1e-4});
  const PilutSchedule& sched = result.schedule;
  sched.validate();
  EXPECT_GT(result.stats.levels, 0);
  EXPECT_EQ(sched.levels(), result.stats.levels);
  // Interior rows come first, grouped by rank.
  for (int r = 0; r < 4; ++r) {
    const auto [begin, end] = sched.interior_range[r];
    for (idx i = begin; i < end; ++i) EXPECT_EQ(sched.owner_new[i], r);
  }
  // Interface nodes counted consistently.
  EXPECT_EQ(sched.n_interior + result.stats.interface_nodes, a.n_rows);
}

TEST(Pilut, RowCapsRespected) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 5.0, 5.0);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const idx m = 4;
  const PilutResult result = pilut_factor(machine, dist, {.m = m, .tau = 1e-8});
  for (idx i = 0; i < a.n_rows; ++i) {
    EXPECT_LE(result.factors.l.row_nnz(i), m);
    EXPECT_LE(result.factors.u.row_nnz(i), m + 1);  // + diagonal
  }
}

TEST(Pilut, IlutStarCapsReducedRows) {
  const Csr a = workloads::convection_diffusion_2d(24, 24, 6.0, 2.0);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const idx m = 5, k = 2;
  const PilutResult star = pilut_factor(machine, dist, {.m = m, .tau = 1e-6, .cap_k = k});
  EXPECT_LE(star.stats.max_reduced_row, static_cast<nnz_t>(k * m + 1));  // + diagonal
  const PilutResult plain = pilut_factor(machine, dist, {.m = m, .tau = 1e-6});
  EXPECT_GE(plain.stats.max_reduced_row, star.stats.max_reduced_row);
}

TEST(Pilut, IlutStarNeedsFewerOrEqualLevels) {
  const Csr a = workloads::convection_diffusion_2d(32, 32, 4.0, 4.0);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const PilutResult plain = pilut_factor(machine, dist, {.m = 10, .tau = 1e-6});
  const PilutResult star = pilut_factor(machine, dist, {.m = 10, .tau = 1e-6, .cap_k = 2});
  EXPECT_LE(star.stats.levels, plain.stats.levels);
}

TEST(Pilut, DeterministicForFixedSeed) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult r1 = pilut_factor(machine, dist, {.m = 5, .tau = 1e-4, .seed = 7});
  const PilutResult r2 = pilut_factor(machine, dist, {.m = 5, .tau = 1e-4, .seed = 7});
  EXPECT_TRUE(equal(r1.factors.l, r2.factors.l));
  EXPECT_TRUE(equal(r1.factors.u, r2.factors.u));
  EXPECT_EQ(r1.schedule.newnum, r2.schedule.newnum);
  EXPECT_DOUBLE_EQ(r1.stats.time_total, r2.stats.time_total);
}

TEST(Pilut, CommunicationHappensOnlyWithMultipleRanks) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  sim::Machine solo(1);
  const PilutResult alone = pilut_factor(solo, make_dist(a, 1), {.m = 5, .tau = 1e-4});
  EXPECT_EQ(alone.stats.messages, 0u);
  sim::Machine quad(4);
  const PilutResult four = pilut_factor(quad, make_dist(a, 4), {.m = 5, .tau = 1e-4});
  EXPECT_GT(four.stats.messages, 0u);
}

TEST(Pilut, ModeledTimeScalesDown) {
  // The headline claim: more processors, less modeled factorization time.
  const Csr a = workloads::convection_diffusion_2d(64, 64, 5.0, 5.0);
  double prev = 1e300;
  for (const int nranks : {1, 4, 16}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    const PilutResult result = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4, .cap_k = 2});
    EXPECT_LT(result.stats.time_total, prev) << "nranks=" << nranks;
    prev = result.stats.time_total;
  }
}

TEST(Pilut, PivotGuardWorksThroughPipeline) {
  // A matrix engineered to produce a zero pivot on an interface row: the
  // guard must recover instead of dividing by zero.
  CooBuilder b(4, 4);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 2.0);
  b.add(2, 3, 1.0);
  b.add(3, 2, 1.0);
  b.add(2, 2, 2.0);
  b.add(0, 3, 0.5);
  b.add(3, 0, 0.5);
  const Csr a = b.to_csr();
  Partition p;
  p.nparts = 2;
  p.part = {0, 0, 1, 1};
  const DistCsr dist = DistCsr::create(a, p);
  sim::Machine machine(2);
  const PilutResult result =
      pilut_factor(machine, dist, {.m = 4, .tau = 0.0, .pivot_rel = 1e-10});
  result.factors.validate();
  EXPECT_GE(result.stats.pivots_guarded, 1u);
}

// --- Parallel triangular solves ---------------------------------------

TEST(DistTrisolve, MatchesSerialSolves) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 6.0, 3.0);
  for (const int nranks : {1, 2, 4, 8}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    const PilutResult result = pilut_factor(machine, dist, {.m = 8, .tau = 1e-4});
    DistTriangularSolver solver(result.factors, result.schedule);

    const RealVec b = workloads::random_vector(a.n_rows, 5);
    RealVec y_par(a.n_rows), y_ser(a.n_rows), x_par(a.n_rows), x_ser(a.n_rows);
    machine.reset();
    solver.forward(machine, b, y_par);
    forward_solve(result.factors.l, b, y_ser);
    EXPECT_LT(max_abs_diff(y_par, y_ser), 1e-14) << "nranks=" << nranks;

    solver.backward(machine, y_par, x_par);
    backward_solve(result.factors.u, y_ser, x_ser);
    EXPECT_LT(max_abs_diff(x_par, x_ser), 1e-12) << "nranks=" << nranks;
  }
}

TEST(DistTrisolve, ApplyEqualsSerialApply) {
  const Csr a = workloads::jump_coefficient_2d(16, 16, 3.0, 2);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult result = pilut_factor(machine, dist, {.m = 10, .tau = 1e-5});
  DistTriangularSolver solver(result.factors, result.schedule);
  const RealVec b = workloads::random_vector(a.n_rows, 8);
  RealVec x_par(a.n_rows), x_ser(a.n_rows);
  machine.reset();
  solver.apply(machine, b, x_par);
  ilu_apply(result.factors, b, x_ser);
  EXPECT_LT(max_abs_diff(x_par, x_ser), 1e-12);
}

TEST(DistTrisolve, SyncPointsMatchLevelCount) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult result = pilut_factor(machine, dist, {.m = 5, .tau = 1e-4});
  DistTriangularSolver solver(result.factors, result.schedule);
  machine.reset();
  RealVec y(a.n_rows);
  solver.forward(machine, RealVec(a.n_rows, 1.0), y);
  // interior step + q level steps + drain step.
  EXPECT_EQ(machine.supersteps(),
            static_cast<std::uint64_t>(result.stats.levels) + 2);
}

TEST(DistTrisolve, ExactFactorsSolveSystemThroughSchedule) {
  const Csr a = workloads::convection_diffusion_2d(10, 10);
  const DistCsr dist = make_dist(a, 4);
  sim::Machine machine(4);
  const PilutResult result = pilut_factor(machine, dist, {.m = a.n_rows, .tau = 0.0});
  DistTriangularSolver solver(result.factors, result.schedule);

  // Solve P A P^T x' = P b through the parallel solver; undo the ordering.
  const RealVec b = workloads::rhs_all_ones_solution(a);
  RealVec pb(a.n_rows), px(a.n_rows), x(a.n_rows);
  for (idx i = 0; i < a.n_rows; ++i) pb[result.schedule.newnum[i]] = b[i];
  machine.reset();
  solver.apply(machine, pb, px);
  for (idx i = 0; i < a.n_rows; ++i) x[i] = px[result.schedule.newnum[i]];
  RealVec ones(a.n_rows, 1.0);
  EXPECT_LT(max_abs_diff(x, ones), 1e-8);
}

TEST(DistTrisolve, IlutStarSolvesFasterInModeledTime) {
  // Fewer levels => fewer synchronization points => faster modeled solves.
  const Csr a = workloads::convection_diffusion_2d(48, 48, 4.0, 4.0);
  const DistCsr dist = make_dist(a, 16);
  sim::Machine machine(16);
  const PilutResult plain = pilut_factor(machine, dist, {.m = 10, .tau = 1e-6});
  const PilutResult star = pilut_factor(machine, dist, {.m = 10, .tau = 1e-6, .cap_k = 2});
  if (star.stats.levels < plain.stats.levels) {
    DistTriangularSolver splain(plain.factors, plain.schedule);
    DistTriangularSolver sstar(star.factors, star.schedule);
    const RealVec b(a.n_rows, 1.0);
    RealVec x(a.n_rows);
    machine.reset();
    splain.apply(machine, b, x);
    const double t_plain = machine.modeled_time();
    machine.reset();
    sstar.apply(machine, b, x);
    EXPECT_LT(machine.modeled_time(), t_plain);
  } else {
    GTEST_SKIP() << "level counts equal at this size";
  }
}

// --- End-to-end: PILUT preconditioner inside GMRES ---------------------

TEST(PilutGmres, ConvergesAndMatchesQuality) {
  const Csr a = workloads::convection_diffusion_2d(32, 32, 10.0, 5.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const PilutResult result = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});

  RealVec x(a.n_rows, 0.0);
  const GmresResult par =
      gmres(a, IluPreconditioner(result.factors, result.schedule.newnum), b, x);
  EXPECT_TRUE(par.converged);

  RealVec xs(a.n_rows, 0.0);
  const GmresResult ser = gmres(a, IluPreconditioner(ilut(a, {.m = 10, .tau = 1e-4})), b, xs);
  // Reordered ILUT is a different (but comparable) preconditioner.
  EXPECT_TRUE(ser.converged);
  EXPECT_LT(par.matvecs, ser.matvecs * 3);
}

TEST(PilutGmres, IlutStarComparableQuality) {
  // The paper's claim (§6, Table 3): ILUT*(m, t, 2) preconditions about as
  // well as ILUT(m, t).
  const Csr a = workloads::convection_diffusion_2d(32, 32, 6.0, 3.0);
  const RealVec b = workloads::rhs_all_ones_solution(a);
  const DistCsr dist = make_dist(a, 8);
  sim::Machine machine(8);
  const PilutResult plain = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});
  const PilutResult star = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4, .cap_k = 2});

  RealVec x1(a.n_rows, 0.0), x2(a.n_rows, 0.0);
  const GmresResult g1 =
      gmres(a, IluPreconditioner(plain.factors, plain.schedule.newnum), b, x1);
  const GmresResult g2 =
      gmres(a, IluPreconditioner(star.factors, star.schedule.newnum), b, x2);
  EXPECT_TRUE(g1.converged);
  EXPECT_TRUE(g2.converged);
  EXPECT_LT(g2.matvecs, g1.matvecs * 2 + 10);
}

}  // namespace
}  // namespace ptilu
