// Heap allocations on the distributed solve path.
//
// This executable replaces the global operator new with a counting one, so
// it is built apart from ptilu_tests: the counter must see every
// allocation in the process and nothing else may replace the operator.
//
// The message plane reuses per-rank send slabs and the delivered-message
// index across supersteps, and step bodies are passed by reference, so a
// warmed-up DistTriangularSolver::apply or dist_spmv allocates only its
// per-call state: the intermediate vector y, a ghost region and the scratch
// lanes of each sweep (5 allocations per apply, 2 per dist_spmv). The
// bounds below leave a little room over those constants; a cost that
// scales with messages or supersteps cannot fit under them: the TORSO
// apply below runs 217 supersteps and sends 914 messages.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/part/partition.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The pointers come from the malloc above; GCC cannot see that through the
// replaced operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ptilu {
namespace {

/// Heap allocations made while `body` runs, on any thread.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

/// TORSO 8x8x10 on 4 ranks, factored once.
struct TorsoP4 {
  DistCsr dist;
  Halo halo;
  PilutResult fact;

  TorsoP4() : dist(make_dist()), halo(Halo::build(dist)), fact(factor(dist)) {}

  static DistCsr make_dist() {
    workloads::TorsoOptions opts;
    opts.nx = 8;
    opts.ny = 8;
    opts.nz = 10;
    const Csr a = workloads::fem_torso_3d(opts).a;
    return DistCsr::create(a, partition_kway(graph_from_pattern(a), 4, {.seed = 1}));
  }

  static PilutResult factor(const DistCsr& dist) {
    sim::Machine machine(dist.nranks);
    return pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});
  }
};

const TorsoP4& torso() {
  static const TorsoP4 fixture;
  return fixture;
}

/// Checking and metrics off (each keeps per-message records by design);
/// the backend is the parameter.
sim::Machine::Options plain(sim::Backend backend) {
  return {.check = false, .backend = backend, .threads = 2, .metrics = false};
}

class AllocationFree : public ::testing::TestWithParam<sim::Backend> {};

TEST_P(AllocationFree, WarmTrisolveApplyAllocatesOnlyPerCallState) {
  const TorsoP4& f = torso();
  const DistTriangularSolver solver(f.fact.factors, f.fact.schedule);
  sim::Machine machine(f.dist.nranks, plain(GetParam()));
  const RealVec b = workloads::random_vector(f.dist.n(), 7);
  RealVec x(b.size());
  solver.apply(machine, b, x);  // warm-up: slabs, inbox index, worker pool
  solver.apply(machine, b, x);

  const std::uint64_t steps_before = machine.supersteps();
  const std::uint64_t sent_before = machine.total_counters().messages_sent;
  const std::uint64_t one = allocations_in([&] { solver.apply(machine, b, x); });
  const std::uint64_t steps = machine.supersteps() - steps_before;
  const std::uint64_t sent = machine.total_counters().messages_sent - sent_before;
  ASSERT_GT(steps, 50u);
  ASSERT_GT(sent, 200u);
  EXPECT_LE(one, 8u) << "over " << steps << " supersteps and " << sent << " messages";
  const std::uint64_t three = allocations_in([&] {
    for (int i = 0; i < 3; ++i) solver.apply(machine, b, x);
  });
  EXPECT_EQ(three, 3 * one);
}

TEST_P(AllocationFree, WarmDistSpmvAllocatesOnlyPerCallState) {
  const TorsoP4& f = torso();
  sim::Machine machine(f.dist.nranks, plain(GetParam()));
  const RealVec x = workloads::random_vector(f.dist.n(), 3);
  RealVec y(x.size());
  dist_spmv(machine, f.dist, f.halo, x, y);
  dist_spmv(machine, f.dist, f.halo, x, y);

  const std::uint64_t sent_before = machine.total_counters().messages_sent;
  const std::uint64_t one = allocations_in([&] { dist_spmv(machine, f.dist, f.halo, x, y); });
  ASSERT_GT(machine.total_counters().messages_sent - sent_before, 4u);
  EXPECT_LE(one, 4u);
  const std::uint64_t three = allocations_in([&] {
    for (int i = 0; i < 3; ++i) dist_spmv(machine, f.dist, f.halo, x, y);
  });
  EXPECT_EQ(three, 3 * one);
}

TEST_P(AllocationFree, StepWithCapturingBodyAllocatesNothing) {
  sim::Machine machine(4, plain(GetParam()));
  RealVec payload(32, 1.0);
  const auto body = [&, big = payload](sim::RankContext& ctx) {
    (void)ctx.recv_all();
    ctx.send_reals((ctx.rank() + 1) % ctx.nranks(), 0, big);
    ctx.charge_flops(payload.size());
  };
  machine.step(body);
  machine.step(body);
  EXPECT_EQ(allocations_in([&] {
    for (int i = 0; i < 10; ++i) machine.step(body, "alloc/step");
  }), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, AllocationFree,
                         ::testing::Values(sim::Backend::kSequential,
                                           sim::Backend::kThreads),
                         [](const ::testing::TestParamInfo<sim::Backend>& backend) {
                           return std::string(sim::backend_name(backend.param));
                         });

}  // namespace
}  // namespace ptilu
