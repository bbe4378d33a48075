// Solve-side communication plans (DistTriangularSolver, Halo/dist_spmv).
//
// ModeledChargePins replays tiny sequential runs of every distributed solve
// entry point and compares a canonical digest of what the simulated machine
// observed against values recorded before the solves moved onto
// precomputed plans: the modeled time as an exact hexfloat, supersteps,
// messages and bytes sent, the trace rollup of every trisolve/* and spmv
// phase, and an FNV-1a hash over the solution bits. Any change to what the
// model charges, or to a single output bit, shows up as a digest diff.
//
// StalePlan checks that a halo or solver built for a different matrix,
// factor or rank count is rejected up front rather than read through.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

using Digest = std::vector<std::string>;

DistCsr make_dist(const Csr& a, int nranks) {
  const Graph g = graph_from_pattern(a);
  return DistCsr::create(a, partition_kway(g, nranks, {.seed = 1}));
}

Csr g0_small() { return workloads::convection_diffusion_2d(24, 24, 10.0, 20.0); }

Csr torso_small() {
  workloads::TorsoOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 10;
  return workloads::fem_torso_3d(opts).a;
}

sim::Machine::Options sequential() {
  sim::Machine::Options opts;
  opts.backend = sim::Backend::kSequential;
  return opts;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hash_bits(const RealVec& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Everything the machine and trace observed, one line per item.
Digest digest(const sim::Machine& machine, const sim::Trace& trace, const RealVec& out) {
  const sim::RankCounters c = machine.total_counters();
  Digest d{"modeled=" + hex(machine.modeled_time()),
           "supersteps=" + std::to_string(machine.supersteps()),
           "messages=" + std::to_string(c.messages_sent),
           "bytes=" + std::to_string(c.bytes_sent),
           "flops=" + std::to_string(c.flops),
           "out=" + hash_bits(out)};
  for (const auto& row : trace.phase_rollup()) {
    if (row.name.find("trisolve") == std::string::npos &&
        row.name.find("spmv") == std::string::npos) {
      continue;
    }
    const sim::PhaseStats& s = row.stats;
    d.push_back(row.name);
    d.push_back("  elapsed=" + hex(s.elapsed) + " busy=" + hex(s.busy_total()));
    d.push_back("  flops=" + std::to_string(s.flops) +
                " sent=" + std::to_string(s.bytes_sent) +
                " recv=" + std::to_string(s.bytes_recv) +
                " msgs=" + std::to_string(s.messages));
  }
  return d;
}

struct Fixture {
  DistCsr dist;
  Halo halo;
  PilutResult fact;

  Fixture(const Csr& a, int nranks, bool nested)
      : dist(make_dist(a, nranks)), halo(Halo::build(dist)), fact(factor(nested)) {}

  PilutResult factor(bool nested) const {
    sim::Machine machine(dist.nranks, sequential());
    const PilutOptions opts{.m = 10, .tau = 1e-4};
    return nested ? pilut_factor_nested(machine, dist, opts)
                  : pilut_factor(machine, dist, opts);
  }

  /// Run `body` on a fresh traced sequential machine and digest it.
  template <typename Body>
  Digest run(Body&& body) const {
    sim::Machine machine(dist.nranks, sequential());
    sim::Trace trace;
    machine.attach_trace(&trace);
    const RealVec out = body(machine);
    machine.attach_trace(nullptr);
    return digest(machine, trace, out);
  }

  Digest gmres() const {
    return run([&](sim::Machine& machine) {
      const RealVec b = workloads::rhs_all_ones_solution(dist.a);
      RealVec x(b.size(), 0.0);
      const GmresResult g = gmres_dist(machine, dist, halo, fact, b, x,
                                       {.restart = 20, .max_matvecs = 60, .rtol = 1e-8});
      x.push_back(static_cast<real>(g.matvecs));
      return x;
    });
  }

  Digest apply() const {
    const DistTriangularSolver solver(fact.factors, fact.schedule);
    return run([&](sim::Machine& machine) {
      const RealVec b = workloads::random_vector(dist.n(), 7);
      RealVec x(b.size());
      solver.apply(machine, b, x);
      return x;
    });
  }

  Digest apply_block() const {
    const DistTriangularSolver solver(fact.factors, fact.schedule);
    return run([&](sim::Machine& machine) {
      DenseRhsBlock b(dist.n(), 4), x(dist.n(), 4);
      for (int c = 0; c < 4; ++c) {
        b.set_col(c, workloads::random_vector(dist.n(), 11 + c));
      }
      solver.apply(machine, b, x);
      return x.data;
    });
  }

  Digest spmv() const {
    return run([&](sim::Machine& machine) {
      const RealVec v = workloads::random_vector(dist.n(), 3);
      RealVec y(v.size());
      dist_spmv(machine, dist, halo, v, y);
      return y;
    });
  }
};

TEST(ModeledChargePins, G0) {
  const Fixture f(g0_small(), 4, false);
  EXPECT_EQ(f.gmres(), (Digest{
      "modeled=0x1.c67e2d71412ep-7",
      "supersteps=984",
      "messages=4070",
      "bytes=33396",
      "flops=397062",
      "out=38b5860ae39767af",
      "gmres/residual/spmv",
      "  elapsed=0x1.d07b07513ada4p-13 busy=0x1.d07b07513ada4p-11",
      "  flops=16704 sent=2304 recv=2304 msgs=30",
      "gmres/residual/trisolve/forward/interior",
      "  elapsed=0x1.d08fa4f91e3aap-13 busy=0x1.d08fa4f91e3aap-11",
      "  flops=18540 sent=0 recv=0 msgs=0",
      "gmres/residual/trisolve/forward/levels",
      "  elapsed=0x1.3188ab632f559p-10 busy=0x1.3188ab632f55bp-8",
      "  flops=5160 sent=3600 recv=3600 msgs=552",
      "gmres/residual/trisolve/backward/levels",
      "  elapsed=0x1.64af5a8ab5e46p-10 busy=0x1.64af5a8ab5e48p-8",
      "  flops=5406 sent=3204 recv=3204 msgs=528",
      "gmres/residual/trisolve/backward/interior",
      "  elapsed=0x1.6b44c7853a3dcp-12 busy=0x1.6b44c7853a3dcp-10",
      "  flops=32004 sent=0 recv=0 msgs=0",
      "gmres/spmv",
      "  elapsed=0x1.35a75a36273cp-11 busy=0x1.35a75a36273cp-9",
      "  flops=44544 sent=6144 recv=6144 msgs=80",
      "gmres/precond/trisolve/forward/interior",
      "  elapsed=0x1.35b518a61426p-11 busy=0x1.35b518a61426p-9",
      "  flops=49440 sent=0 recv=0 msgs=0",
      "gmres/precond/trisolve/forward/levels",
      "  elapsed=0x1.9760e4843f123p-9 busy=0x1.9760e4843f123p-7",
      "  flops=13760 sent=9600 recv=9600 msgs=1472",
      "gmres/precond/trisolve/backward/levels",
      "  elapsed=0x1.db9478b8f28a5p-9 busy=0x1.db9478b8f28a5p-7",
      "  flops=14416 sent=8544 recv=8544 msgs=1408",
      "gmres/precond/trisolve/backward/interior",
      "  elapsed=0x1.e45bb4b1a2fc8p-11 busy=0x1.e45bb4b1a2fc8p-9",
      "  flops=85344 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.apply(), (Digest{
      "modeled=0x1.0e5e6424c7d3fp-10",
      "supersteps=77",
      "messages=360",
      "bytes=2268",
      "flops=20370",
      "out=1e8e85d35e842dc1",
      "trisolve/forward/interior",
      "  elapsed=0x1.35b518a614265p-14 busy=0x1.35b518a614265p-12",
      "  flops=6180 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.9760e4843f0e6p-12 busy=0x1.9760e4843f0eap-10",
      "  flops=1720 sent=1200 recv=1200 msgs=184",
      "trisolve/backward/levels",
      "  elapsed=0x1.db9478b8f2791p-12 busy=0x1.db9478b8f2792p-10",
      "  flops=1802 sent=1068 recv=1068 msgs=176",
      "trisolve/backward/interior",
      "  elapsed=0x1.e45bb4b1a2fbp-14 busy=0x1.e45bb4b1a2fbp-12",
      "  flops=10668 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.apply_block(), (Digest{
      "modeled=0x1.da9b8d26d407dp-10",
      "supersteps=77",
      "messages=360",
      "bytes=6804",
      "flops=81480",
      "out=77dc032b29a92214",
      "trisolve/forward/interior",
      "  elapsed=0x1.291fdeed8bb42p-12 busy=0x1.291fdeed8bb42p-10",
      "  flops=24720 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.089e43a94b5ccp-11 busy=0x1.089e43a94b5cap-9",
      "  flops=6880 sent=3600 recv=3600 msgs=184",
      "trisolve/backward/levels",
      "  elapsed=0x1.2c25a9b109947p-11 busy=0x1.2c25a9b109947p-9",
      "  flops=7208 sent=3204 recv=3204 msgs=176",
      "trisolve/backward/interior",
      "  elapsed=0x1.d7c67af91a88cp-12 busy=0x1.d7c67af91a88cp-10",
      "  flops=42672 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.spmv(), (Digest{
      "modeled=0x1.35a75a36273a7p-14",
      "supersteps=2",
      "messages=10",
      "bytes=768",
      "flops=5568",
      "out=95efaed0d50b4974",
      "spmv",
      "  elapsed=0x1.35a75a36273a7p-14 busy=0x1.35a75a36273a7p-12",
      "  flops=5568 sent=768 recv=768 msgs=10"}));
}

TEST(ModeledChargePins, Torso) {
  const Fixture f(torso_small(), 4, false);
  EXPECT_EQ(f.gmres(), (Digest{
      "modeled=0x1.22811c1f4561bp-4",
      "supersteps=5997",
      "messages=23150",
      "bytes=234600",
      "flops=1284912",
      "out=7125f76c9621e739",
      "gmres/residual/spmv",
      "  elapsed=0x1.bef481788ed9bp-11 busy=0x1.bef481788ed9ap-9",
      "  flops=70280 sent=12192 recv=12192 msgs=48",
      "gmres/residual/trisolve/forward/interior",
      "  elapsed=0x1.b2dd8d64570bep-14 busy=0x1.b2dd8d64570bep-12",
      "  flops=7504 sent=0 recv=0 msgs=0",
      "gmres/residual/trisolve/forward/levels",
      "  elapsed=0x1.eb3b3f1eb827ap-9 busy=0x1.eb3b3f1eb8278p-7",
      "  flops=19416 sent=12048 recv=12048 msgs=1488",
      "gmres/residual/trisolve/backward/levels",
      "  elapsed=0x1.60b632b359ae4p-8 busy=0x1.60b632b359ae5p-6",
      "  flops=25012 sent=13296 recv=13296 msgs=2168",
      "gmres/residual/trisolve/backward/interior",
      "  elapsed=0x1.6301820b3286p-13 busy=0x1.6301820b3286p-11",
      "  flops=14192 sent=0 recv=0 msgs=0",
      "gmres/spmv",
      "  elapsed=0x1.255074f71db9cp-8 busy=0x1.255074f71db9cp-6",
      "  flops=368970 sent=64008 recv=64008 msgs=252",
      "gmres/precond/trisolve/forward/interior",
      "  elapsed=0x1.1d6164c9d9278p-11 busy=0x1.1d6164c9d9278p-9",
      "  flops=39396 sent=0 recv=0 msgs=0",
      "gmres/precond/trisolve/forward/levels",
      "  elapsed=0x1.425ee16c28fa6p-6 busy=0x1.425ee16c28fa6p-4",
      "  flops=101934 sent=63252 recv=63252 msgs=7812",
      "gmres/precond/trisolve/backward/levels",
      "  elapsed=0x1.ceef228b65f8bp-6 busy=0x1.ceef228b66069p-4",
      "  flops=131313 sent=69804 recv=69804 msgs=11382",
      "gmres/precond/trisolve/backward/interior",
      "  elapsed=0x1.d1f1faaeb2568p-11 busy=0x1.d1f1faaeb2568p-9",
      "  flops=74508 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.apply(), (Digest{
      "modeled=0x1.341baa4450804p-9",
      "supersteps=217",
      "messages=914",
      "bytes=6336",
      "flops=16531",
      "out=2022636d114bdedd",
      "trisolve/forward/interior",
      "  elapsed=0x1.b2dd8d6457179p-16 busy=0x1.b2dd8d6457179p-14",
      "  flops=1876 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.eb3b3f1eb8781p-11 busy=0x1.eb3b3f1eb879cp-9",
      "  flops=4854 sent=3012 recv=3012 msgs=372",
      "trisolve/backward/levels",
      "  elapsed=0x1.60b632b359d39p-10 busy=0x1.60b632b359d39p-8",
      "  flops=6253 sent=3324 recv=3324 msgs=542",
      "trisolve/backward/interior",
      "  elapsed=0x1.6301820b329p-15 busy=0x1.6301820b329p-13",
      "  flops=3548 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.apply_block(), (Digest{
      "modeled=0x1.aa1bea38bad5cp-9",
      "supersteps=217",
      "messages=914",
      "bytes=19008",
      "flops=66124",
      "out=16543e2f0204f40f",
      "trisolve/forward/interior",
      "  elapsed=0x1.8088a682354efp-14 busy=0x1.8088a682354efp-12",
      "  flops=7504 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.4ac68e1e8535cp-10 busy=0x1.4ac68e1e8535ap-8",
      "  flops=19416 sent=9036 recv=9036 msgs=372",
      "trisolve/backward/levels",
      "  elapsed=0x1.c82dda1788eb9p-10 busy=0x1.c82dda1788ebfp-8",
      "  flops=25012 sent=9972 recv=9972 msgs=542",
      "trisolve/backward/interior",
      "  elapsed=0x1.49d70e9a21aap-13 busy=0x1.49d70e9a21aap-11",
      "  flops=14192 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.spmv(), (Digest{
      "modeled=0x1.bef481788ed2bp-13",
      "supersteps=2",
      "messages=12",
      "bytes=3048",
      "flops=17570",
      "out=2733d4992fbc3753",
      "spmv",
      "  elapsed=0x1.bef481788ed2bp-13 busy=0x1.bef481788ed2ap-11",
      "  flops=17570 sent=3048 recv=3048 msgs=12"}));
}

TEST(ModeledChargePins, G0Nested) {
  // The nested variant migrates interface rows, so interior rows read
  // remote columns in the backward solve.
  const Fixture f(g0_small(), 4, true);
  EXPECT_EQ(f.apply(), (Digest{
      "modeled=0x1.662de6ab0ad44p-12",
      "supersteps=5",
      "messages=6",
      "bytes=792",
      "flops=19922",
      "out=91701b4f09f61112",
      "trisolve/forward/interior",
      "  elapsed=0x1.35b518a614265p-14 busy=0x1.35b518a614265p-12",
      "  flops=6180 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.1ce08b708c041p-14 busy=0x1.1ce08b708c041p-12",
      "  flops=1498 sent=0 recv=0 msgs=0",
      "trisolve/backward/levels",
      "  elapsed=0x1.61c641e3e82bep-14 busy=0x1.61c641e3e82bep-12",
      "  flops=1576 sent=792 recv=792 msgs=6",
      "trisolve/backward/interior",
      "  elapsed=0x1.e45bb4b1a2facp-14 busy=0x1.e45bb4b1a2facp-12",
      "  flops=10668 sent=0 recv=0 msgs=0"}));
  EXPECT_EQ(f.apply_block(), (Digest{
      "modeled=0x1.4b9f57f7f8447p-10",
      "supersteps=5",
      "messages=6",
      "bytes=2376",
      "flops=79688",
      "out=8a0fac0ef3051709",
      "trisolve/forward/interior",
      "  elapsed=0x1.291fdeed8bb42p-12 busy=0x1.291fdeed8bb42p-10",
      "  flops=24720 sent=0 recv=0 msgs=0",
      "trisolve/forward/levels",
      "  elapsed=0x1.03b617ff7b1fep-12 busy=0x1.03b617ff7b1fep-10",
      "  flops=5992 sent=0 recv=0 msgs=0",
      "trisolve/backward/levels",
      "  elapsed=0x1.29e0edf9bfb52p-12 busy=0x1.29e0edf9bfb52p-10",
      "  flops=6304 sent=2376 recv=2376 msgs=6",
      "trisolve/backward/interior",
      "  elapsed=0x1.d7c67af91a88ap-12 busy=0x1.d7c67af91a88ap-10",
      "  flops=42672 sent=0 recv=0 msgs=0"}));
}

/// The text of the Error `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(StalePlan, HaloForAnotherMatrixOrRankCountIsRejected) {
  const DistCsr g0 = make_dist(g0_small(), 4);
  const DistCsr torso = make_dist(torso_small(), 4);
  const DistCsr g0_8 = make_dist(g0_small(), 8);
  const Halo halo = Halo::build(g0);
  const RealVec x = workloads::random_vector(torso.n(), 1);
  RealVec y(x.size());

  sim::Machine four(4, sequential());
  const std::string matrix = error_of([&] { dist_spmv(four, torso, halo, x, y); });
  EXPECT_NE(matrix.find("stale solve plan"), std::string::npos) << matrix;
  for (const nnz_t nnz : {g0.a.nnz(), torso.a.nnz()}) {
    EXPECT_NE(matrix.find("nnz=" + std::to_string(nnz)), std::string::npos) << matrix;
  }

  sim::Machine eight(8, sequential());
  const RealVec xg = workloads::random_vector(g0.n(), 1);
  RealVec yg(xg.size());
  const std::string ranks = error_of([&] { dist_spmv(eight, g0_8, halo, xg, yg); });
  EXPECT_NE(ranks.find("stale solve plan: halo built for 4 ranks"), std::string::npos)
      << ranks;

  // The matching halo still works after the rejections.
  EXPECT_EQ(error_of([&] { dist_spmv(four, g0, halo, xg, yg); }), "");
}

TEST(StalePlan, SolverForAnotherFactorOrRankCountIsRejected) {
  Fixture f(g0_small(), 4, false);
  const DistTriangularSolver solver(f.fact.factors, f.fact.schedule);
  const RealVec b = workloads::random_vector(f.dist.n(), 5);
  RealVec x(b.size());

  sim::Machine eight(8, sequential());
  const std::string ranks = error_of([&] { solver.apply(eight, b, x); });
  EXPECT_NE(ranks.find("stale solve plan: solver built for 4 ranks"), std::string::npos)
      << ranks;

  // Refactoring in place with a different fill leaves the plan stale.
  const std::size_t built_l = static_cast<std::size_t>(f.fact.factors.l.nnz());
  {
    sim::Machine machine(4, sequential());
    f.fact = pilut_factor(machine, f.dist, {.m = 3, .tau = 1e-2});
  }
  ASSERT_NE(static_cast<std::size_t>(f.fact.factors.l.nnz()), built_l);
  sim::Machine four(4, sequential());
  const std::string forward = error_of([&] { solver.forward(four, b, x); });
  EXPECT_NE(forward.find("stale solve plan"), std::string::npos) << forward;
  EXPECT_NE(forward.find("nnz(L)=" + std::to_string(built_l)), std::string::npos)
      << forward;
  const std::string backward = error_of([&] { solver.backward(four, b, x); });
  EXPECT_NE(backward.find("stale solve plan"), std::string::npos) << backward;
  DenseRhsBlock bb(f.dist.n(), 2), xb(f.dist.n(), 2);
  EXPECT_NE(error_of([&] { solver.apply(four, bb, xb); }).find("stale solve plan"),
            std::string::npos);

  // A solver built for the new factor runs.
  const DistTriangularSolver fresh(f.fact.factors, f.fact.schedule);
  EXPECT_EQ(error_of([&] { fresh.apply(four, b, x); }), "");
}

}  // namespace
}  // namespace ptilu
