// Tests for the distributed substrate: DistCsr, halo exchange, parallel
// SpMV, and the distributed Luby MIS.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/graph/graph.hpp"
#include "ptilu/graph/mis.hpp"
#include "ptilu/pilut/pilu0.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/workloads/grids.hpp"
#include "ptilu/workloads/rhs.hpp"
#include "ptilu/workloads/torso.hpp"

namespace ptilu {
namespace {

DistCsr make_dist(const Csr& a, int nranks, std::uint64_t seed = 1) {
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, nranks, {.seed = seed});
  return DistCsr::create(a, p);
}

TEST(DistCsr, OwnershipCoversAllRows) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr dist = make_dist(a, 4);
  idx total = 0;
  for (int r = 0; r < 4; ++r) {
    total += static_cast<idx>(dist.owned_rows[r].size());
    for (const idx row : dist.owned_rows[r]) EXPECT_EQ(dist.owner[row], r);
  }
  EXPECT_EQ(total, a.n_rows);
}

TEST(DistCsr, InteriorNodesHaveOnlyLocalNeighbors) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const DistCsr dist = make_dist(a, 4);
  for (idx v = 0; v < dist.n(); ++v) {
    if (dist.interface[v]) continue;
    for (nnz_t k = a.row_ptr[v]; k < a.row_ptr[v + 1]; ++k) {
      EXPECT_EQ(dist.owner[a.col_idx[k]], dist.owner[v])
          << "interior node " << v << " references a remote column";
    }
  }
}

TEST(DistCsr, InterfaceFractionReasonable) {
  const Csr a = workloads::convection_diffusion_2d(48, 48);
  const DistCsr dist = make_dist(a, 8);
  const idx interface_total = dist.interface_count_total();
  EXPECT_GT(interface_total, 0);
  EXPECT_LT(interface_total, dist.n() / 3);
  idx interior_sum = 0;
  for (int r = 0; r < 8; ++r) interior_sum += dist.interior_count(r);
  EXPECT_EQ(interior_sum + interface_total, dist.n());
}

TEST(DistCsr, SingleRankHasNoInterface) {
  const Csr a = workloads::convection_diffusion_2d(10, 10);
  const DistCsr dist = make_dist(a, 1);
  EXPECT_EQ(dist.interface_count_total(), 0);
}

TEST(Halo, ListsAreMirrored) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  // Every recv entry (r needs X from peer) must match a send entry on peer.
  for (int r = 0; r < 4; ++r) {
    for (const auto& [peer, indices] : halo.recv_lists[r]) {
      bool found = false;
      for (const auto& [to, sent] : halo.send_lists[peer]) {
        if (to == r) {
          EXPECT_EQ(sent, indices);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "no send list on rank " << peer << " for rank " << r;
    }
  }
}

TEST(Halo, SendsOnlyOwnedIndices) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 6);
  const Halo halo = Halo::build(dist);
  for (int r = 0; r < 6; ++r) {
    for (const auto& [peer, indices] : halo.send_lists[r]) {
      for (const idx v : indices) EXPECT_EQ(dist.owner[v], r);
    }
  }
}

TEST(Halo, OnlyInterfaceNodesExchanged) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  for (int r = 0; r < 4; ++r) {
    for (const auto& [peer, indices] : halo.send_lists[r]) {
      for (const idx v : indices) EXPECT_TRUE(dist.interface[v]);
    }
  }
}

TEST(DistSpmv, MatchesSerial) {
  const Csr a = workloads::convection_diffusion_2d(20, 20, 7.0, 3.0);
  for (const int nranks : {1, 2, 4, 8}) {
    const DistCsr dist = make_dist(a, nranks);
    const Halo halo = Halo::build(dist);
    sim::Machine machine(nranks);
    const RealVec x = workloads::random_vector(a.n_rows, 42);
    RealVec y_dist(a.n_rows, 0.0), y_serial(a.n_rows, 0.0);
    dist_spmv(machine, dist, halo, x, y_dist);
    spmv(a, x, y_serial);
    EXPECT_LT(max_abs_diff(y_dist, y_serial), 1e-14) << "nranks=" << nranks;
  }
}

TEST(DistSpmv, CommunicatesOnlyWithMultipleRanks) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const DistCsr solo = make_dist(a, 1);
  sim::Machine machine(1);
  RealVec y(a.n_rows);
  dist_spmv(machine, solo, Halo::build(solo), workloads::random_vector(a.n_rows, 1), y);
  EXPECT_EQ(machine.total_counters().messages_sent, 0u);

  const DistCsr quad = make_dist(a, 4);
  sim::Machine machine4(4);
  dist_spmv(machine4, quad, Halo::build(quad), workloads::random_vector(a.n_rows, 1), y);
  EXPECT_GT(machine4.total_counters().messages_sent, 0u);
}

TEST(DistSpmv, ModeledTimeDropsWithMoreRanks) {
  const Csr a = workloads::convection_diffusion_2d(64, 64);
  RealVec y(a.n_rows);
  const RealVec x = workloads::random_vector(a.n_rows, 3);
  double prev = 1e300;
  for (const int nranks : {1, 4, 16}) {
    const DistCsr dist = make_dist(a, nranks);
    sim::Machine machine(nranks);
    dist_spmv(machine, dist, Halo::build(dist), x, y);
    EXPECT_LT(machine.modeled_time(), prev) << "nranks=" << nranks;
    prev = machine.modeled_time();
  }
}

// --- Distributed MIS ---------------------------------------------------

/// Build a DistGraph over all vertices of g with a given partition.
struct DistGraphFixture {
  IdxVec owner;
  DistGraph dist;
  DistGraphFixture(const Graph& g, const Partition& p) {
    owner = p.part;
    dist.n_global = g.n;
    dist.owner = &owner;
    dist.verts_of.resize(p.nparts);
    dist.adj.resize(p.nparts);
    for (idx v = 0; v < g.n; ++v) dist.verts_of[p.part[v]].push_back(v);
    for (int r = 0; r < p.nparts; ++r) {
      dist.adj[r].resize(dist.verts_of[r].size());
      for (std::size_t i = 0; i < dist.verts_of[r].size(); ++i) {
        const idx v = dist.verts_of[r][i];
        const auto nbrs = g.neighbors(v);
        dist.adj[r][i].assign(nbrs.begin(), nbrs.end());
      }
    }
    dist.derive_peers();
  }
};

TEST(MisDist, ProducesIndependentSet) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const Graph g = graph_from_pattern(a);
  for (const int nranks : {1, 2, 4, 8}) {
    const Partition p = partition_kway(g, nranks);
    DistGraphFixture fixture(g, p);
    sim::Machine machine(nranks);
    const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 7, .rounds = 5});
    EXPECT_TRUE(is_independent(g, set)) << "nranks=" << nranks;
    EXPECT_GT(set.size(), 0u);
  }
}

TEST(MisDist, ManyRoundsIsMaximal) {
  const Csr a = workloads::convection_diffusion_2d(16, 16);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(4);
  const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 3, .rounds = 64});
  EXPECT_TRUE(is_maximal_independent(g, set));
}

TEST(MisDist, IndependentOfRankCount) {
  // Same graph, same seed: the chosen set must not depend on how vertices
  // are distributed — that's the determinism the BSP structure guarantees.
  const Csr a = workloads::convection_diffusion_2d(14, 14);
  const Graph g = graph_from_pattern(a);
  IdxVec reference;
  for (const int nranks : {1, 3, 7}) {
    const Partition p = partition_kway(g, nranks);
    DistGraphFixture fixture(g, p);
    sim::Machine machine(nranks);
    const IdxVec set = mis_dist(machine, fixture.dist, {.seed = 11, .rounds = 6});
    if (reference.empty()) {
      reference = set;
    } else {
      EXPECT_EQ(set, reference) << "nranks=" << nranks;
    }
  }
}

TEST(MisDist, MatchesSerialLubySelectionOnOneRank) {
  // On one rank with the same stateless keys, the distributed algorithm is
  // plain Luby — cross-check against the serial implementation.
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const Graph g = graph_from_pattern(a);
  Partition p;
  p.nparts = 1;
  p.part.assign(g.n, 0);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(1);
  const IdxVec dist_set = mis_dist(machine, fixture.dist, {.seed = 5, .rounds = 5});
  const IdxVec serial_set = luby_mis(g, {.seed = 5, .rounds = 5});
  EXPECT_EQ(dist_set, serial_set);
}

TEST(MisDist, CommunicationOnlyAcrossBoundaries) {
  const Csr a = workloads::convection_diffusion_2d(20, 20);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  sim::Machine machine(4);
  (void)mis_dist(machine, fixture.dist, {.seed = 1, .rounds = 5});
  // Messages exist, but total traffic is far below one word per vertex per
  // round — only boundary status changes travel.
  const auto totals = machine.total_counters();
  EXPECT_GT(totals.messages_sent, 0u);
  EXPECT_LT(totals.bytes_sent, static_cast<std::uint64_t>(g.n) * 5 * sizeof(idx));
}

TEST(MisDist, EmptyGraphGivesEmptySet) {
  IdxVec owner;
  DistGraph dist;
  dist.n_global = 0;
  dist.owner = &owner;
  dist.verts_of.resize(2);
  dist.adj.resize(2);
  dist.derive_peers();
  sim::Machine machine(2);
  EXPECT_TRUE(mis_dist(machine, dist).empty());
}

}  // namespace
}  // namespace ptilu

namespace ptilu {
namespace {

TEST(Halo, TotalExchangedMatchesCut) {
  const Csr a = workloads::convection_diffusion_2d(24, 24);
  const DistCsr dist = make_dist(a, 4);
  const Halo halo = Halo::build(dist);
  // Every exchanged value is an interface node needed by some peer; total
  // is bounded by (interface nodes) x (ranks - 1) and is at least the
  // number of ranks' worth of boundary values.
  EXPECT_GT(halo.total_exchanged(), 0u);
  EXPECT_LE(halo.total_exchanged(),
            static_cast<std::size_t>(dist.interface_count_total()) * 3);
}

TEST(Halo, SingleRankExchangesNothing) {
  const Csr a = workloads::convection_diffusion_2d(8, 8);
  const DistCsr dist = make_dist(a, 1);
  EXPECT_EQ(Halo::build(dist).total_exchanged(), 0u);
}

TEST(MisDist, ScratchReuseIsClean) {
  // Reusing one scratch across many calls must not leak state between them.
  // The two partitions give the ranks different owned and mirror sets, so
  // a status entry a call leaves set would show in the next graph's set.
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const Graph g = graph_from_pattern(a);
  const Partition kway = partition_kway(g, 4);
  Partition strips;
  strips.nparts = 4;
  strips.part.resize(g.n);
  for (idx v = 0; v < g.n; ++v) strips.part[v] = static_cast<idx>(v * 4 / g.n);
  DistGraphFixture first(g, kway);
  DistGraphFixture second(g, strips);
  const auto fresh = [](const DistGraph& graph, std::uint64_t seed) {
    sim::Machine machine(4);
    return mis_dist(machine, graph, {.seed = seed, .rounds = 5});
  };
  DistMisScratch scratch;
  sim::Machine machine(4);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint64_t seed : {3u, 4u}) {
      EXPECT_EQ(mis_dist(machine, first.dist, {.seed = seed, .rounds = 5}, &scratch),
                fresh(first.dist, seed))
          << "k-way partition, pass " << pass << ", seed " << seed;
      EXPECT_EQ(mis_dist(machine, second.dist, {.seed = seed, .rounds = 5}, &scratch),
                fresh(second.dist, seed))
          << "strip partition, pass " << pass << ", seed " << seed;
    }
  }
}

TEST(MisDist, PeerListsAreTheAdjacencyOwners) {
  const Csr a = workloads::convection_diffusion_2d(12, 12);
  const Graph g = graph_from_pattern(a);
  const Partition p = partition_kway(g, 4);
  DistGraphFixture fixture(g, p);
  DistGraph& graph = fixture.dist;
  EXPECT_EQ(graph.peer_mismatch(), "");
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < graph.verts_of[r].size(); ++i) {
      for (const int peer : graph.peers[r][i]) {
        EXPECT_NE(peer, r);
        EXPECT_EQ(std::count(graph.peers[r][i].begin(), graph.peers[r][i].end(), peer), 1);
      }
    }
  }
  // A stale list — a peer dropped, or one the adjacency no longer has — is
  // named by vertex, and a checked machine refuses to run the MIS on it.
  int r = 0;
  std::size_t i = 0;
  while (graph.peers[r][i].empty()) {
    if (++i == graph.verts_of[r].size()) {
      ++r;
      i = 0;
    }
  }
  const std::vector<int> kept = graph.peers[r][i];
  graph.peers[r][i].pop_back();
  const std::string mismatch = graph.peer_mismatch();
  EXPECT_NE(mismatch.find("vertex " + std::to_string(graph.verts_of[r][i])),
            std::string::npos)
      << mismatch;
  sim::Machine checked(4, sim::Machine::Options{.check = true});
  try {
    (void)mis_dist(checked, graph, {.seed = 1, .rounds = 5});
    ADD_FAILURE() << "a stale peer list passed a checked machine";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("peer lists are stale"), std::string::npos)
        << e.what();
  }
  graph.peers[r][i] = kept;
  graph.peers[r][i].push_back(r == 0 ? 1 : 0);
  EXPECT_NE(graph.peer_mismatch(), "");
}

TEST(MisDist, FactorGraphBuildsKeepPeerListsCurrent) {
  // PILUT emits the peer lists while it builds each level's reduced graph,
  // and PILU0 refreshes them as it strips each colour class. A checked
  // machine makes every mis_dist call compare them with the owners of the
  // adjacency (as sets), so these runs check every level's graph and every
  // stripped colouring graph of the TORSO pin matrix.
  workloads::TorsoOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.nz = 10;
  const DistCsr dist = make_dist(workloads::fem_torso_3d(opts).a, 4);
  sim::Machine::Options checked;
  checked.check = true;
  {
    sim::Machine machine(4, checked);
    const PilutResult res = pilut_factor(machine, dist, {.m = 10, .tau = 1e-4});
    EXPECT_GT(res.stats.levels, 1);
  }
  {
    sim::Machine machine(4, checked);
    const PilutResult res = pilu0_factor(machine, dist, {.pivot_rel = 1e-12});
    EXPECT_GT(res.stats.levels, 1);  // the graph was stripped between calls
  }
}

}  // namespace
}  // namespace ptilu
