// Modeled-charge pins for the distributed solves and the factor drivers,
// plus the solve-side plan staleness checks.
//
// ModeledChargePins replays tiny sequential runs of every distributed solve
// entry point and compares a canonical digest of what the simulated machine
// observed against values recorded before the solves moved onto
// precomputed plans: the modeled time as an exact hexfloat, supersteps,
// messages and bytes sent, the trace rollup of every trisolve/* and spmv
// phase, and an FNV-1a hash over the solution bits. Any change to what the
// model charges, or to a single output bit, shows up as a digest diff.
//
// ModeledChargePins.Factor{G0,Torso} do the same for the factor drivers
// (pilut_factor plain and ILUT*, pilu0_factor, pilut_factor_nested): the
// machine totals, every factor/* phase rollup, PilutStats' levels,
// max_reduced_row and pivots_guarded, the factor/* metric counter totals,
// and an FNV-1a hash over L, U, newnum and level_start. The values were
// recorded before the drivers were rebuilt from shared pieces.
// ModeledChargePins.FactorNestedStages adds a nested run large enough to
// pass through partitioned stages, recorded from the same code.
// ModeledChargePins.FactorPivotGuard pins pilut_factor and pilu0_factor on
// a matrix whose interface pivots need the safeguard (pivots_guarded=1).
//
// StalePlan checks that a halo or solver built for a different matrix,
// factor or rank count is rejected up front rather than read through.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/pilut_nested.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sim/metrics.hpp"
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

/// FNV-1a over the bytes of every element, chained from `h`.
template <typename T>
std::uint64_t fnv(const std::vector<T>& v, std::uint64_t h = 1469598103934665603ULL) {
  for (const T& x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof x);
    for (std::size_t b = 0; b < sizeof x; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hash_bits(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string hash_bits(const RealVec& v) { return hash_bits(fnv(v)); }

/// Everything the machine and trace observed, one line per item. Only the
/// phases whose name contains one of `phases` are rolled up.
Digest digest(const sim::Machine& machine, const sim::Trace& trace, const std::string& out,
              std::initializer_list<const char*> phases = {"trisolve", "spmv"}) {
  const sim::RankCounters c = machine.total_counters();
  Digest d{"modeled=" + hex(machine.modeled_time()),
           "supersteps=" + std::to_string(machine.supersteps()),
           "messages=" + std::to_string(c.messages_sent),
           "bytes=" + std::to_string(c.bytes_sent),
           "flops=" + std::to_string(c.flops),
           "out=" + out};
  for (const auto& row : trace.phase_rollup()) {
    if (std::none_of(phases.begin(), phases.end(), [&](const char* p) {
          return row.name.find(p) != std::string::npos;
        })) {
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
    return digest(machine, trace, hash_bits(out));
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

/// Run one factor driver on a fresh traced sequential machine with metrics
/// on, and digest what it charged and what it produced.
template <typename Factor>
Digest factor_digest(const DistCsr& dist, Factor&& factor) {
  sim::Machine::Options mopts = sequential();
  mopts.metrics = true;
  sim::Machine machine(dist.nranks, mopts);
  sim::Trace trace;
  machine.attach_trace(&trace);
  const PilutResult res = factor(machine);
  machine.attach_trace(nullptr);

  const IluFactors& f = res.factors;
  std::uint64_t h = fnv(f.l.row_ptr);
  h = fnv(f.l.col_idx, h);
  h = fnv(f.l.values, h);
  h = fnv(f.u.row_ptr, h);
  h = fnv(f.u.col_idx, h);
  h = fnv(f.u.values, h);
  h = fnv(res.schedule.newnum, h);
  h = fnv(res.schedule.level_start, h);
  Digest d = digest(machine, trace, hash_bits(h), {"factor/"});
  d.push_back("levels=" + std::to_string(res.stats.levels) +
              " max_reduced_row=" + std::to_string(res.stats.max_reduced_row) +
              " pivots_guarded=" + std::to_string(res.stats.pivots_guarded));
  for (const char* name : {"factor/fill", "factor/dropped", "factor/pivots_guarded"}) {
    std::uint64_t total = 0;
    for (int r = 0; r < dist.nranks; ++r) total += machine.metrics()->counter_value(name, r);
    d.push_back(std::string(name) + "=" + std::to_string(total));
  }
  return d;
}

/// The four factor drivers the pins cover, in a fixed order.
std::vector<Digest> factor_digests(const DistCsr& dist) {
  const PilutOptions opts{.m = 10, .tau = 1e-4};
  PilutOptions capped = opts;
  capped.cap_k = 2;
  return {
      factor_digest(dist, [&](sim::Machine& m) { return pilut_factor(m, dist, opts); }),
      factor_digest(dist, [&](sim::Machine& m) { return pilut_factor(m, dist, capped); }),
      factor_digest(dist, [&](sim::Machine& m) {
        return pilu0_factor(m, dist, {.pivot_rel = 1e-12});
      }),
      factor_digest(dist, [&](sim::Machine& m) {
        return pilut_factor_nested(m, dist, opts);
      })};
}

TEST(ModeledChargePins, FactorG0) {
  const std::vector<Digest> d = factor_digests(make_dist(g0_small(), 4));
  EXPECT_EQ(d[0], (Digest{  // pilut_factor
      "modeled=0x1.98318f9a115e1p-8",
      "supersteps=424",
      "messages=1748",
      "bytes=99828",
      "flops=161636",
      "out=909b0ccb2cb305e9",
      "factor/interior",
      "  elapsed=0x1.801d46b7ca5c3p-11 busy=0x1.801d46b7ca5c2p-9",
      "  flops=63430 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.79319a2be5b72p-12 busy=0x1.79319a2be5b72p-10",
      "  flops=29179 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.c8c4f4490f26ep-11 busy=0x1.c8c4f4490f26ep-9",
      "  flops=0 sent=68704 recv=68704 msgs=373",
      "factor/interface/mis/setup",
      "  elapsed=0x1.72cc255d06b9p-12 busy=0x1.72cc255d06b9p-10",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.fdd42a03f78ebp-10 busy=0x1.fdd42a03f78ecp-8",
      "  flops=52286 sent=10124 recv=10124 msgs=632",
      "factor/interface/mis/drain",
      "  elapsed=0x1.2dfd694ccaa6p-13 busy=0x1.2dfd694ccaa6p-11",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.3d1f78c9c8edp-13 busy=0x1.3d1f78c9c8edp-11",
      "  flops=0 sent=960 recv=0 msgs=296",
      "factor/interface/factor",
      "  elapsed=0x1.711947cfa25ep-13 busy=0x1.711947cfa25ep-11",
      "  flops=1326 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.bd2cb3cca77dap-11 busy=0x1.bd2cb3cca77dap-9",
      "  flops=0 sent=20040 recv=20040 msgs=447",
      "factor/interface/reduce",
      "  elapsed=0x1.52c8cfbd171e2p-11 busy=0x1.52c8cfbd171e2p-9",
      "  flops=15415 sent=0 recv=0 msgs=0",
      "levels=37 max_reduced_row=32 pivots_guarded=0",
      "factor/fill=12859",
      "factor/dropped=5746",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[1], (Digest{  // pilut_factor, cap_k=2
      "modeled=0x1.6dd399cfdd393p-8",
      "supersteps=388",
      "messages=1673",
      "bytes=81112",
      "flops=150428",
      "out=eef621ff84571519",
      "factor/interior",
      "  elapsed=0x1.801d46b7ca5c3p-11 busy=0x1.801d46b7ca5c2p-9",
      "  flops=63430 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.79319a2be5b72p-12 busy=0x1.79319a2be5b72p-10",
      "  flops=29179 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.87a323bb58f2ap-11 busy=0x1.87a323bb58f2ap-9",
      "  flops=0 sent=52976 recv=52976 msgs=359",
      "factor/interface/mis/setup",
      "  elapsed=0x1.32b0008e454e4p-12 busy=0x1.32b0008e454e4p-10",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.b2fef21848b7bp-10 busy=0x1.b2fef21848b7bp-8",
      "  flops=41446 sent=8648 recv=8648 msgs=622",
      "factor/interface/mis/drain",
      "  elapsed=0x1.14d2f5dbb9c6p-13 busy=0x1.14d2f5dbb9c6p-11",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.239eb129afdc8p-13 busy=0x1.239eb129afdc8p-11",
      "  flops=0 sent=912 recv=0 msgs=272",
      "factor/interface/factor",
      "  elapsed=0x1.503725054809p-13 busy=0x1.503725054809p-11",
      "  flops=1210 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.a27b16561599ep-11 busy=0x1.a27b16561599ep-9",
      "  flops=0 sent=18576 recv=18576 msgs=420",
      "factor/interface/reduce",
      "  elapsed=0x1.264869255d83ep-11 busy=0x1.264869255d83ep-9",
      "  flops=15163 sent=0 recv=0 msgs=0",
      "levels=34 max_reduced_row=21 pivots_guarded=0",
      "factor/fill=13060",
      "factor/dropped=5956",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[2], (Digest{  // pilu0_factor, pivot_rel=1e-12
      "modeled=0x1.e1012451caccp-13",
      "supersteps=26",
      "messages=116",
      "bytes=3728",
      "flops=3947",
      "out=7c04d1d6646a9e72",
      "factor/interior",
      "  elapsed=0x1.0106e623350e5p-15 busy=0x1.0106e623350e5p-13",
      "  flops=2604 sent=0 recv=0 msgs=0",
      "factor/color/setup",
      "  elapsed=0x1.b185f476340fp-18 busy=0x1.b185f476340fp-16",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/setup",
      "  elapsed=0x1.c902e8bd9927cp-17 busy=0x1.c902e8bd9927cp-15",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/rounds",
      "  elapsed=0x1.1c941821f6241p-14 busy=0x1.1c941821f6241p-12",
      "  flops=635 sent=432 recv=432 msgs=50",
      "factor/color/mis/drain",
      "  elapsed=0x1.92a737110e45p-17 busy=0x1.92a737110e45p-15",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/number",
      "  elapsed=0x1.c16a25e024c9p-17 busy=0x1.c16a25e024c9p-15",
      "  flops=0 sent=416 recv=0 msgs=24",
      "factor/interface/exchange",
      "  elapsed=0x1.0e1b41670d06p-14 busy=0x1.0e1b41670d06p-12",
      "  flops=0 sent=2880 recv=2880 msgs=42",
      "factor/interface/factor",
      "  elapsed=0x1.6052502eec7c8p-16 busy=0x1.6052502eec7c8p-14",
      "  flops=708 sent=0 recv=0 msgs=0",
      "levels=3 max_reduced_row=0 pivots_guarded=0",
      "factor/fill=0",
      "factor/dropped=1316",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[3], (Digest{  // pilut_factor_nested
      "modeled=0x1.e6581882c941ap-10",
      "supersteps=5",
      "messages=76",
      "bytes=18860",
      "flops=108097",
      "out=5049719634683e26",
      "factor/interior",
      "  elapsed=0x1.801d46b7ca5c3p-11 busy=0x1.801d46b7ca5c2p-9",
      "  flops=63430 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.79319a2be5b72p-12 busy=0x1.79319a2be5b72p-10",
      "  flops=29179 sent=0 recv=0 msgs=0",
      "factor/nested/graph",
      "  elapsed=0x1.057f140900c8p-16 busy=0x1.057f140900c8p-14",
      "  flops=0 sent=384 recv=0 msgs=8",
      "factor/nested/sequential",
      "  elapsed=0x1.87ce24978d454p-11 busy=0x1.87ce24978d454p-9",
      "  flops=15488 sent=18476 recv=18476 msgs=68",
      "levels=1 max_reduced_row=23 pivots_guarded=0",
      "factor/fill=12767",
      "factor/dropped=5116",
      "factor/pivots_guarded=0"}));
}

TEST(ModeledChargePins, FactorTorso) {
  const std::vector<Digest> d = factor_digests(make_dist(torso_small(), 4));
  EXPECT_EQ(d[0], (Digest{  // pilut_factor
      "modeled=0x1.f1e0d2f891a8ap-5",
      "supersteps=1255",
      "messages=6026",
      "bytes=2409156",
      "flops=1839902",
      "out=9226041dfc14034c",
      "factor/interior",
      "  elapsed=0x1.0e27b5fc7bbc1p-12 busy=0x1.0e27b5fc7bbc1p-10",
      "  flops=21947 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.53e80994286b9p-10 busy=0x1.53e80994286b9p-8",
      "  flops=93046 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.9e42db22cf19ep-7 busy=0x1.9e42db22cf19dp-5",
      "  flops=0 sent=2221120 recv=2221120 msgs=1244",
      "factor/interface/mis/setup",
      "  elapsed=0x1.9163144c6828ep-8 busy=0x1.9163144c6828ep-6",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.952011872ab3p-6 busy=0x1.952011872ab32p-4",
      "  flops=1498542 sent=96320 recv=96320 msgs=2276",
      "factor/interface/mis/drain",
      "  elapsed=0x1.bc98a222d41p-12 busy=0x1.bc98a222d41p-10",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.cadd73081761p-12 busy=0x1.cadd73081761p-10",
      "  flops=0 sent=2868 recv=0 msgs=856",
      "factor/interface/factor",
      "  elapsed=0x1.66ed74e300614p-11 busy=0x1.66ed74e300614p-9",
      "  flops=13289 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.7cabd402151a2p-9 busy=0x1.7cabd402151a2p-7",
      "  flops=0 sent=88848 recv=88848 msgs=1650",
      "factor/interface/reduce",
      "  elapsed=0x1.718b07b0787abp-7 busy=0x1.718b07b0787abp-5",
      "  flops=213078 sent=0 recv=0 msgs=0",
      "levels=107 max_reduced_row=111 pivots_guarded=0",
      "factor/fill=27180",
      "factor/dropped=27924",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[1], (Digest{  // pilut_factor, cap_k=2
      "modeled=0x1.afb4a768c4838p-7",
      "supersteps=597",
      "messages=3129",
      "bytes=323872",
      "flops=413484",
      "out=85a029203a678a15",
      "factor/interior",
      "  elapsed=0x1.0e27b5fc7bbc1p-12 busy=0x1.0e27b5fc7bbc1p-10",
      "  flops=21947 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.3b467d11f97ccp-10 busy=0x1.3b467d11f97cdp-8",
      "  flops=93046 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.e007c3ecf503dp-10 busy=0x1.e007c3ecf503dp-8",
      "  flops=0 sent=228168 recv=228168 msgs=524",
      "factor/interface/mis/setup",
      "  elapsed=0x1.bc0d0c0216e28p-11 busy=0x1.bc0d0c0216e28p-9",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.31dbdb8da3dd2p-8 busy=0x1.31dbdb8da3dd2p-6",
      "  flops=198880 sent=25244 recv=25244 msgs=1346",
      "factor/interface/mis/drain",
      "  elapsed=0x1.92a737110e68p-13 busy=0x1.92a737110e68p-11",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.a8abd2a39dcd8p-13 busy=0x1.a8abd2a39dcd8p-11",
      "  flops=0 sent=1940 recv=0 msgs=392",
      "factor/interface/factor",
      "  elapsed=0x1.26a65cf67b37p-12 busy=0x1.26a65cf67b37p-10",
      "  flops=5569 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.704862507471bp-10 busy=0x1.704862507471cp-8",
      "  flops=0 sent=68520 recv=68520 msgs=867",
      "factor/interface/reduce",
      "  elapsed=0x1.2bfd5ee5e9805p-9 busy=0x1.2bfd5ee5e9805p-7",
      "  flops=94042 sent=0 recv=0 msgs=0",
      "levels=49 max_reduced_row=21 pivots_guarded=0",
      "factor/fill=29915",
      "factor/dropped=30546",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[2], (Digest{  // pilu0_factor, pivot_rel=1e-12
      "modeled=0x1.8ff0dc1d3825ap-9",
      "supersteps=135",
      "messages=927",
      "bytes=150348",
      "flops=95424",
      "out=c6c3ab6c8ff40313",
      "factor/interior",
      "  elapsed=0x1.124eb71d381f2p-13 busy=0x1.124eb71d381f2p-11",
      "  flops=11256 sent=0 recv=0 msgs=0",
      "factor/color/setup",
      "  elapsed=0x1.44a39dff59e7cp-15 busy=0x1.44a39dff59e7cp-13",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/setup",
      "  elapsed=0x1.5db897e1889dep-13 busy=0x1.5db897e1889dep-11",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/rounds",
      "  elapsed=0x1.eaf7105f771f6p-11 busy=0x1.eaf7105f771f5p-9",
      "  flops=32552 sent=8024 recv=8024 msgs=465",
      "factor/color/mis/drain",
      "  elapsed=0x1.f75104d551dfp-15 busy=0x1.f75104d551dfp-13",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/number",
      "  elapsed=0x1.0f45f86fae5dp-14 busy=0x1.0f45f86fae5dp-12",
      "  flops=0 sent=1396 recv=0 msgs=120",
      "factor/interface/exchange",
      "  elapsed=0x1.d5a95e4079af8p-11 busy=0x1.d5a95e4079af8p-9",
      "  flops=0 sent=140928 recv=140928 msgs=342",
      "factor/interface/factor",
      "  elapsed=0x1.8d7924d9ff106p-11 busy=0x1.8d7924d9ff106p-9",
      "  flops=51616 sent=0 recv=0 msgs=0",
      "levels=15 max_reduced_row=0 pivots_guarded=0",
      "factor/fill=0",
      "factor/dropped=25246",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(d[3], (Digest{  // pilut_factor_nested
      "modeled=0x1.64945ef228d1cp-7",
      "supersteps=5",
      "messages=225",
      "bytes=126336",
      "flops=325366",
      "out=699d1b31ab003f97",
      "factor/interior",
      "  elapsed=0x1.0e27b5fc7bbc1p-12 busy=0x1.0e27b5fc7bbc1p-10",
      "  flops=21947 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.53e80994286b9p-10 busy=0x1.53e80994286b9p-8",
      "  flops=93046 sent=0 recv=0 msgs=0",
      "factor/nested/graph",
      "  elapsed=0x1.2636e8a2d5d4p-14 busy=0x1.2636e8a2d5d4p-12",
      "  flops=0 sent=1172 recv=0 msgs=8",
      "factor/nested/sequential",
      "  elapsed=0x1.2f59b23e7a3acp-7 busy=0x1.2f59b23e7a3acp-5",
      "  flops=210373 sent=125164 recv=125164 msgs=217",
      "levels=1 max_reduced_row=65 pivots_guarded=0",
      "factor/fill=26447",
      "factor/dropped=24602",
      "factor/pivots_guarded=0"}));
}

TEST(ModeledChargePins, FactorNestedStages) {
  // On the matrices above the nested driver goes straight to its
  // sequential tail (levels=1). On G0 32^2 it runs two partitioned stages,
  // with row migration, before the tail.
  const DistCsr dist = make_dist(workloads::convection_diffusion_2d(32, 32, 10.0, 20.0), 4);
  const Digest d = factor_digest(dist, [&](sim::Machine& m) {
    return pilut_factor_nested(m, dist, {.m = 10, .tau = 1e-4});
  });
  EXPECT_EQ(d, (Digest{
      "modeled=0x1.1cd011c820e2cp-8",
      "supersteps=13",
      "messages=356",
      "bytes=94424",
      "flops=224474",
      "out=e817b86c82a3b7c4",
      "factor/interior",
      "  elapsed=0x1.c2b59caf78a91p-10 busy=0x1.c2b59caf78a91p-8",
      "  flops=131510 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.ed3aab779288ep-11 busy=0x1.ed3aab779288fp-9",
      "  flops=64308 sent=0 recv=0 msgs=0",
      "factor/nested/graph",
      "  elapsed=0x1.07835555342p-14 busy=0x1.07835555342p-12",
      "  flops=0 sent=1584 recv=0 msgs=24",
      "factor/nested/migrate",
      "  elapsed=0x0p+0 busy=0x1.78e00d31c6eaap-10",
      "  flops=0 sent=70572 recv=70572 msgs=246",
      "factor/nested/number",
      "  elapsed=0x1.d05202fb33c58p-12 busy=0x1.5dc7d725b36b8p-12",
      "  flops=0 sent=232 recv=0 msgs=16",
      "factor/nested/stage",
      "  elapsed=0x1.0e62c44569c18p-12 busy=0x1.0e62c44569c18p-10",
      "  flops=9389 sent=0 recv=0 msgs=0",
      "factor/nested/sequential",
      "  elapsed=0x1.e38fdb1f8df38p-11 busy=0x1.e38fdb1f8df38p-9",
      "  flops=19267 sent=22036 recv=22036 msgs=70",
      "levels=3 max_reduced_row=26 pivots_guarded=0",
      "factor/fill=25475",
      "factor/dropped=11321",
      "factor/pivots_guarded=0"}));
}

TEST(ModeledChargePins, FactorManyRanks) {
  // The pins above run p=4. At p=96 on G0 24^2 (six rows a rank, nearly
  // all of them interface) the MIS peer routing crosses more ranks than a
  // 64-bit mask holds, and PILU0 strips many colour classes from its graph.
  const DistCsr dist = make_dist(g0_small(), 96);
  const Digest pilut = factor_digest(dist, [&](sim::Machine& m) {
    return pilut_factor(m, dist, {.m = 10, .tau = 1e-4});
  });
  const Digest pilu0 = factor_digest(dist, [&](sim::Machine& m) {
    return pilu0_factor(m, dist, {.pivot_rel = 1e-12});
  });
  EXPECT_EQ(pilut, (Digest{
      "modeled=0x1.03dbfb8990b6ep-5",
      "supersteps=786",
      "messages=151838",
      "bytes=1498024",
      "flops=420425",
      "out=880680d171b3c779",
      "factor/interior",
      "  elapsed=0x1.df284416db38dp-17 busy=0x1.675e3311246a2p-10",
      "  flops=42 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.3b69629a290bap-16 busy=0x1.d91e13e73d91ap-10",
      "  flops=689 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.38eedb80c9d6p-8 busy=0x1.d56649412ee9ap-2",
      "  flops=0 sent=677920 recv=677920 msgs=39957",
      "factor/interface/mis/setup",
      "  elapsed=0x1.0cf3029688437p-10 busy=0x1.936c83e1cc6cep-4",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.e9a0089cd218dp-7 busy=0x1.6f3806759d62cp+0",
      "  flops=320641 sent=309264 recv=309264 msgs=57908",
      "factor/interface/mis/drain",
      "  elapsed=0x1.ce6c093d9667bp-11 busy=0x1.5ad106ee30cdfp-4",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.dc5a18005024ap-11 busy=0x1.654392003be4cp-4",
      "  flops=0 sent=25728 recv=0 msgs=43008",
      "factor/interface/factor",
      "  elapsed=0x1.f436732ea0d86p-11 busy=0x1.7728d662f896ep-4",
      "  flops=7006 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.c540a7c016cfep-8 busy=0x1.53f07dd0112cap-1",
      "  flops=0 sent=485112 recv=485112 msgs=10965",
      "factor/interface/reduce",
      "  elapsed=0x1.50a3dc68a12dcp-10 busy=0x1.f8f5ca9cf1bcdp-4",
      "  flops=92047 sent=0 recv=0 msgs=0",
      "levels=64 max_reduced_row=50 pivots_guarded=0",
      "factor/fill=10713",
      "factor/dropped=6411",
      "factor/pivots_guarded=0"}));
  EXPECT_EQ(pilu0, (Digest{
      "modeled=0x1.aaf17b6ff25d9p-11",
      "supersteps=44",
      "messages=5648",
      "bytes=36816",
      "flops=8980",
      "out=cf28c18713ded166",
      "factor/interior",
      "  elapsed=0x1.d9c9e05e4f15cp-17 busy=0x1.63576846bb505p-10",
      "  flops=18 sent=0 recv=0 msgs=0",
      "factor/color/setup",
      "  elapsed=0x1.ed4009db4b14cp-17 busy=0x1.71f00764784f5p-10",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/setup",
      "  elapsed=0x1.298b3eb7f6a7p-14 busy=0x1.be50de13f1fa8p-8",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/rounds",
      "  elapsed=0x1.14104a7e680aep-12 busy=0x1.9e186fbd9c10bp-6",
      "  flops=5668 sent=4536 recv=4536 msgs=1049",
      "factor/color/mis/drain",
      "  elapsed=0x1.2599ed7c6fbd6p-14 busy=0x1.b866e43aa79fp-8",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/number",
      "  elapsed=0x1.2daaa0369d9fp-14 busy=0x1.c47ff051ec6c9p-8",
      "  flops=0 sent=3936 recv=0 msgs=3360",
      "factor/interface/exchange",
      "  elapsed=0x1.ebae7584f88a4p-13 busy=0x1.70c2d823ba6d8p-6",
      "  flops=0 sent=28344 recv=28344 msgs=1239",
      "factor/interface/factor",
      "  elapsed=0x1.3a3cbcc9ca64p-14 busy=0x1.d75b1b2eaf934p-8",
      "  flops=3294 sent=0 recv=0 msgs=0",
      "levels=5 max_reduced_row=0 pivots_guarded=0",
      "factor/fill=0",
      "factor/dropped=2536",
      "factor/pivots_guarded=0"}));
}

TEST(ModeledChargePins, FactorPivotGuard) {
  // The 4x4, p=2 matrix of Pilut.PivotGuardWorksThroughPipeline: its
  // interface rows reach a zero pivot, so pilut and pilu0 run the pivot
  // safeguard, which the digests above never do (pivots_guarded=0).
  CooBuilder b(4, 4);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 2.0);
  b.add(2, 3, 1.0);
  b.add(3, 2, 1.0);
  b.add(2, 2, 2.0);
  b.add(0, 3, 0.5);
  b.add(3, 0, 0.5);
  Partition p;
  p.nparts = 2;
  p.part = {0, 0, 1, 1};
  const DistCsr dist = DistCsr::create(b.to_csr(), p);
  const Digest pilut = factor_digest(dist, [&](sim::Machine& m) {
    return pilut_factor(m, dist, {.m = 4, .tau = 0.0, .pivot_rel = 1e-10});
  });
  const Digest pilu0 = factor_digest(dist, [&](sim::Machine& m) {
    return pilu0_factor(m, dist, {.pivot_rel = 1e-10});
  });
  EXPECT_EQ(pilut, (Digest{
      "modeled=0x1.bef7152d8b3fp-15",
      "supersteps=20",
      "messages=11",
      "bytes=84",
      "flops=20",
      "out=c564b13220b1b633",
      "factor/interior",
      "  elapsed=0x1.0c6f7a0b5ed8dp-19 busy=0x1.0c6f7a0b5ed8dp-18",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/form_reduced",
      "  elapsed=0x1.2ca5d05ea7ab3p-19 busy=0x1.2ca5d05ea7ab3p-18",
      "  flops=6 sent=0 recv=0 msgs=0",
      "factor/interface/setup",
      "  elapsed=0x1.53cffc5049cedp-17 busy=0x1.53cffc5049cecp-16",
      "  flops=0 sent=16 recv=16 msgs=2",
      "factor/interface/mis/setup",
      "  elapsed=0x1.11cdddc3eafbcp-19 busy=0x1.11cdddc3eafbcp-18",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/mis/rounds",
      "  elapsed=0x1.14f1e2578ee26p-17 busy=0x1.14f1e2578ee26p-16",
      "  flops=8 sent=8 recv=8 msgs=2",
      "factor/interface/mis/drain",
      "  elapsed=0x1.0c6f7a0b5ed9p-19 busy=0x1.0c6f7a0b5ed9p-18",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/interface/number",
      "  elapsed=0x1.11d4bcfbe172p-18 busy=0x1.11d4bcfbe172p-17",
      "  flops=0 sent=24 recv=0 msgs=4",
      "factor/interface/factor",
      "  elapsed=0x1.147d0fa0310d8p-18 busy=0x1.147d0fa0310d8p-17",
      "  flops=3 sent=0 recv=0 msgs=0",
      "factor/interface/exchange",
      "  elapsed=0x1.dddaf9fca9e0ep-17 busy=0x1.dddaf9fca9e0ep-16",
      "  flops=0 sent=36 recv=36 msgs=3",
      "factor/interface/reduce",
      "  elapsed=0x1.1883da6a9a28p-18 busy=0x1.1883da6a9a28p-17",
      "  flops=3 sent=0 recv=0 msgs=0",
      "levels=2 max_reduced_row=2 pivots_guarded=1",
      "factor/fill=0",
      "factor/dropped=0",
      "factor/pivots_guarded=1"}));
  EXPECT_EQ(pilu0, (Digest{
      "modeled=0x1.78c6a854fa2bap-15",
      "supersteps=17",
      "messages=9",
      "bytes=68",
      "flops=14",
      "out=c564b13220b1b633",
      "factor/interior",
      "  elapsed=0x1.0c6f7a0b5ed8dp-19 busy=0x1.0c6f7a0b5ed8dp-18",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/setup",
      "  elapsed=0x1.11cdddc3eafbfp-19 busy=0x1.11cdddc3eafbfp-18",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/setup",
      "  elapsed=0x1.0dc712f981e1ap-18 busy=0x1.0dc712f981e1ap-17",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/color/mis/rounds",
      "  elapsed=0x1.555e8efe2086fp-17 busy=0x1.555e8efe2086fp-16",
      "  flops=5 sent=8 recv=8 msgs=2",
      "factor/color/mis/drain",
      "  elapsed=0x1.0c6f7a0b5ed8ep-18 busy=0x1.0c6f7a0b5ed8ep-17",
      "  flops=0 sent=0 recv=0 msgs=0",
      "factor/number",
      "  elapsed=0x1.11d4bcfbe172p-18 busy=0x1.11d4bcfbe172p-17",
      "  flops=0 sent=24 recv=0 msgs=4",
      "factor/interface/exchange",
      "  elapsed=0x1.dddaf9fca9e1p-17 busy=0x1.dddaf9fca9e1p-16",
      "  flops=0 sent=36 recv=36 msgs=3",
      "factor/interface/factor",
      "  elapsed=0x1.24983ac9d5764p-18 busy=0x1.24983ac9d5764p-17",
      "  flops=9 sent=0 recv=0 msgs=0",
      "levels=2 max_reduced_row=0 pivots_guarded=1",
      "factor/fill=0",
      "factor/dropped=0",
      "factor/pivots_guarded=1"}));
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
