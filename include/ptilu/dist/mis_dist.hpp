// Distributed maximal-independent-set computation (§4.1 of the paper).
//
// Luby's algorithm with a fixed number of augmentation rounds (the paper
// uses 5: "the majority of the independent vertices are discovered during
// the first few iterations"). Per-vertex random keys are stateless hashes
// of (seed, vertex, round), so every rank evaluates the same key for any
// vertex without communication; what *is* communicated — exactly as on a
// real machine — is candidacy status: when a boundary vertex enters the
// set or becomes dominated, its owner notifies the ranks owning its
// neighbors. Selection ("my key is a strict local minimum among candidate
// neighbors, ties by id") is evaluated from the same information on every
// rank, which yields the same conflict-freedom the paper obtains with its
// two-step insert-then-retract modification for unsymmetric structures;
// the adjacency handed in must already be symmetrized (the PILUT driver
// performs that exchange — the paper's "communication setup phase").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ptilu/sim/machine.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// A distributed graph over a subset of a global id space.
///
/// `peers` is part of the graph, not of the MIS: whoever builds `adj`
/// already knows the owner of every entry it writes, so it emits each
/// vertex's remote-peer list on the way, and mis_dist never rescans the
/// adjacency to route its notices. A graph built without that knowledge
/// (tests, PILU0's pattern graph) fills the lists with derive_peers().
struct DistGraph {
  idx n_global = 0;                       ///< size of the global id space
  const IdxVec* owner = nullptr;          ///< global id -> owning rank
  std::vector<IdxVec> verts_of;           ///< rank -> owned active vertices (ascending)
  std::vector<std::vector<IdxVec>> adj;   ///< [rank][i] -> neighbors of verts_of[rank][i]
                                          ///< (global ids, symmetrized, active only)
  /// [rank][i] -> the ranks other than `rank` that own a neighbor of
  /// verts_of[rank][i]: the owners of adj[rank][i] as a set, each once,
  /// in any order.
  std::vector<std::vector<std::vector<int>>> peers;

  idx total_vertices() const;
  idx total_edges_directed() const;

  /// Recompute peers[r][i] from adj[r][i] (peers[r] must have a slot i).
  void derive_peers(int r, std::size_t i);
  /// Size `peers` like `adj` and derive every list.
  void derive_peers();
  /// Diagnose the first vertex whose peer list is not the owner set of its
  /// adjacency ("" when all match). mis_dist runs it on checked machines.
  std::string peer_mismatch() const;
};

struct DistMisOptions {
  std::uint64_t seed = 1;
  int rounds = 5;
};

/// Reusable dense per-rank status arrays. The PILUT driver calls mis_dist
/// once per reduced-matrix level — hundreds to thousands of times — so the
/// scratch is allocated once and reset between calls from the short list of
/// mirror entries a received notice changed (every other entry of a rank's
/// status array is either owned, and reset from verts_of, or was never
/// written). Besides the status arrays it pools every per-call buffer whose
/// repeated construction showed up in wall-clock profiles: the per-neighbor
/// outgoing update batches, a per-vertex CSR of peer slots (the graph's
/// peer lists remapped to slots, so a status-change notification walks the
/// handful of peers instead of the full adjacency list), and a per-round
/// memo of the Luby vertex keys (so a key is hashed once per round instead
/// of once per incident edge). None of this changes the modeled machine
/// costs — the same messages and charges are produced.
///
/// Sparse neighbor routing: each rank's outgoing batches are indexed by a
/// *slot* into its sorted neighbor list `nbrs[rank]` (the ranks owning at
/// least one neighbor of its vertices), not by peer rank. Total batch
/// storage is O(sum of neighbor degrees) instead of the former O(p²)
/// [rank][peer] arrays, and flushing walks each rank's few slots instead of
/// all p peers per round — the allocations that blocked scaling the
/// simulated machine to thousands of ranks (ROADMAP item 2). Slots are
/// sorted by peer rank, so flushing in slot order reproduces the dense
/// peer scan's ascending send order byte-for-byte.
///
/// Buffers indexed [lane] are per-execution-lane working storage: one lane
/// under the sequential backend (shared by the ranks running one after
/// another — the seed behavior), one per rank under the threaded backend so
/// concurrent rank bodies never share mutable scratch. The key memo is a
/// pure cache of vertex_key(seed, v, round), so per-lane memoization yields
/// identical keys — just computed once per lane instead of once globally.
struct DistMisScratch {
  std::vector<std::vector<std::uint8_t>> status;  // [rank][global id]
  std::vector<IdxVec> changed;  // [rank] mirror entries a received notice set

  // Pooled per-call working buffers (capacity persists across calls).
  std::vector<std::vector<int>> nbrs;          // [rank] sorted dedup'd peer ranks
  std::vector<std::vector<IdxVec>> in_batch;   // [rank][slot] queued kIn notices
  std::vector<std::vector<IdxVec>> out_batch;  // [rank][slot] queued kOut notices
  std::vector<IdxVec> peer_start;  // [rank] CSR offsets: local vertex -> peer slice
  std::vector<std::vector<int>> peer_list;  // [rank] graph.peers as slots into nbrs[rank]
  std::vector<std::vector<std::uint8_t>> peer_stamp;  // [lane] dedup stamp over ranks
  std::vector<IdxVec> selected;   // [lane] per-round winners
  std::vector<long long> cand_lane;  // [lane] candidates-left partial sums

  // Lazy per-round vertex-key memo (keys are identical on every rank).
  std::vector<std::vector<std::uint64_t>> key;  // [lane][global id] memoized vertex_key
  std::vector<std::vector<std::uint32_t>> key_stamp;  // [lane][global id] round epoch
  std::uint32_t round_epoch = 0;

  void ensure(int nranks, int lanes, idx n_global);
};

/// Compute an independent set of the distributed graph; returns the chosen
/// global ids, ascending. With enough rounds the set is maximal. Never
/// returns an empty set for a non-empty graph (the globally smallest key
/// always wins its neighborhood in round 0).
IdxVec mis_dist(sim::Machine& machine, const DistGraph& graph,
                const DistMisOptions& opts = {}, DistMisScratch* scratch = nullptr);

}  // namespace ptilu
