#include "ptilu/dist/mis_dist.hpp"

#include <algorithm>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"

namespace ptilu {

namespace {

enum Status : std::uint8_t { kCandidate = 0, kIn = 1, kOut = 2 };

constexpr int kTagIn = 1;
constexpr int kTagOut = 2;

}  // namespace

idx DistGraph::total_vertices() const {
  idx total = 0;
  for (const auto& verts : verts_of) total += static_cast<idx>(verts.size());
  return total;
}

idx DistGraph::total_edges_directed() const {
  idx total = 0;
  for (const auto& rank_adj : adj) {
    for (const auto& neighbors : rank_adj) total += static_cast<idx>(neighbors.size());
  }
  return total;
}

void DistMisScratch::ensure(int nranks, int lanes, idx n_global) {
  if (static_cast<int>(status.size()) < nranks) status.resize(nranks);
  for (auto& s : status) {
    if (static_cast<idx>(s.size()) < n_global) s.assign(n_global, kCandidate);
  }
  if (static_cast<int>(touched.size()) < nranks) touched.resize(nranks);
  // Outer vectors only: the per-rank batch vectors are sized by each rank's
  // neighbor degree during setup, so total batch storage stays proportional
  // to the communication graph — never the former O(nranks²).
  if (static_cast<int>(in_batch.size()) < nranks) {
    nbrs.resize(nranks);
    in_batch.resize(nranks);
    out_batch.resize(nranks);
  }
  if (static_cast<int>(peer_start.size()) < nranks) {
    peer_start.resize(nranks);
    peer_list.resize(nranks);
  }
  if (static_cast<int>(peer_stamp.size()) < lanes) peer_stamp.resize(lanes);
  for (auto& stamp : peer_stamp) {
    if (static_cast<int>(stamp.size()) < nranks) stamp.assign(nranks, 0);
  }
  if (static_cast<int>(selected.size()) < lanes) selected.resize(lanes);
  if (static_cast<int>(cand_lane.size()) < lanes) cand_lane.resize(lanes, 0);
  if (static_cast<int>(key.size()) < lanes) {
    key.resize(lanes);
    key_stamp.resize(lanes);
  }
  for (int l = 0; l < lanes; ++l) {
    if (static_cast<idx>(key[l].size()) < n_global) {
      key[l].resize(n_global);
      key_stamp[l].assign(n_global, 0);
    }
  }
}

IdxVec mis_dist(sim::Machine& machine, const DistGraph& graph, const DistMisOptions& opts,
                DistMisScratch* scratch) {
  const int nranks = machine.nranks();
  PTILU_CHECK(graph.owner != nullptr, "DistGraph missing owner array");
  PTILU_CHECK(static_cast<int>(graph.verts_of.size()) == nranks &&
                  static_cast<int>(graph.adj.size()) == nranks,
              "DistGraph rank count mismatch");

  DistMisScratch local_scratch;
  DistMisScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.ensure(nranks, machine.scratch_lanes(), graph.n_global);

  // Self-tagging: callers need not (and should not) wrap mis_dist in a
  // phase of their own; the tag nests under whatever phase is active.
  sim::ScopedPhase mis_phase(machine, "mis");

  // Setup phase (the paper's "communication setup"): initialize owned and
  // mirror statuses. While the same pass is over the adjacency anyway, it
  // also records for each owned vertex the dedup'd list of remote peer
  // ranks (CSR layout in the scratch): a status-change notification then
  // walks that short list instead of rescanning the vertex's adjacency.
  // Peer order matches first occurrence in the adjacency list, so the
  // queued batches — and hence the messages — are byte-identical to the
  // lazy-discovery scheme this replaces.
  {
  sim::ScopedPhase span(machine, "setup");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    auto& status = sc.status[r];
    auto& touched = sc.touched[r];
    auto& pstart = sc.peer_start[r];
    auto& plist = sc.peer_list[r];
    auto& nbrs = sc.nbrs[r];
    auto& peer_stamp = sc.peer_stamp[static_cast<std::size_t>(ctx.lane())];
    const IdxVec& verts = graph.verts_of[r];
    pstart.clear();
    pstart.reserve(verts.size() + 1);
    pstart.push_back(0);
    plist.clear();
    nbrs.clear();
    std::uint64_t scanned = 0;
    // peer_stamp doubles as two dedup marks per peer: bit 0 scopes the
    // per-vertex peer list, bit 1 the rank-wide neighbor list.
    for (std::size_t i = 0; i < verts.size(); ++i) {
      status[verts[i]] = kCandidate;
      touched.push_back(verts[i]);
      const std::size_t first_peer = plist.size();
      for (const idx u : graph.adj[r][i]) {
        ++scanned;
        const int peer = (*graph.owner)[u];
        if (peer != r) {
          status[u] = kCandidate;  // mirror entry
          touched.push_back(u);
          if (!(peer_stamp[peer] & 1)) {
            peer_stamp[peer] |= 1;
            plist.push_back(peer);
          }
          if (!(peer_stamp[peer] & 2)) {
            peer_stamp[peer] |= 2;
            nbrs.push_back(peer);
          }
        }
      }
      for (std::size_t p = first_peer; p < plist.size(); ++p) {
        peer_stamp[plist[p]] &= static_cast<std::uint8_t>(~1);
      }
      pstart.push_back(static_cast<idx>(plist.size()));
    }
    // Sparse neighbor routing: sort the rank's few peers, then remap the
    // per-vertex peer CSR from rank ids to slots into that sorted list, and
    // size the slot-indexed outgoing batches by the neighbor degree.
    // Flushing slots in order then visits peers in ascending rank order —
    // the exact send order the dense 0..p-1 peer scan produced.
    std::sort(nbrs.begin(), nbrs.end());
    for (const int peer : nbrs) peer_stamp[peer] = 0;
    for (int& entry : plist) {
      entry = static_cast<int>(std::lower_bound(nbrs.begin(), nbrs.end(), entry) -
                               nbrs.begin());
    }
    if (sc.in_batch[r].size() < nbrs.size()) sc.in_batch[r].resize(nbrs.size());
    if (sc.out_batch[r].size() < nbrs.size()) sc.out_batch[r].resize(nbrs.size());
    ctx.charge_mem(scanned * sizeof(idx));
  }, "mis/setup");
  }

  // Per-rank outgoing update batches, slot-indexed by sorted neighbor
  // (pooled in the scratch, cleared after each flush so capacity persists
  // across rounds and calls).
  auto& in_batch = sc.in_batch;
  auto& out_batch = sc.out_batch;
  // Queue a status-change notice for every peer rank owning a neighbor of
  // verts_of[r][i], via the precomputed peer CSR (entries are slots).
  const auto notify = [&](int r, std::size_t i, idx v,
                          std::vector<IdxVec>& batch) {
    const auto& pstart = sc.peer_start[r];
    const auto& plist = sc.peer_list[r];
    const idx end = pstart[i + 1];
    for (idx p = pstart[i]; p < end; ++p) batch[plist[p]].push_back(v);
  };
  const auto flush_batches = [&](sim::RankContext& ctx, int r) {
    const auto& nbrs = sc.nbrs[r];
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      if (!in_batch[r][s].empty()) {
        ctx.send_indices(nbrs[s], kTagIn, in_batch[r][s]);
        in_batch[r][s].clear();
      }
      if (!out_batch[r][s].empty()) {
        ctx.send_indices(nbrs[s], kTagOut, out_batch[r][s]);
        out_batch[r][s].clear();
      }
    }
  };

  long long candidates_left = 1;
  {
  sim::ScopedPhase rounds_span(machine, "rounds");
  for (int round = 0; round < opts.rounds && candidates_left > 0; ++round) {
    // New memo epoch for this round's vertex keys. A key depends only on
    // (seed, vertex, round), so the per-lane memos all compute the same
    // values; on the (never reached in practice) epoch wrap, invalidate
    // every lane's stamps.
    if (++sc.round_epoch == 0) {
      for (auto& stamps : sc.key_stamp) std::fill(stamps.begin(), stamps.end(), 0u);
      sc.round_epoch = 1;
    }
    std::fill(sc.cand_lane.begin(), sc.cand_lane.end(), 0);
    // One superstep per round: apply deferred mirror updates, dominate owned
    // candidates that gained an In neighbor, then select strict local key
    // minima among the remaining candidates. Selection uses only
    // round-start information, so adjacent boundary vertices on different
    // ranks can never both win — this provides the conflict-freedom the
    // paper obtains with its two-step insert-then-retract modification.
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      const auto lane = static_cast<std::size_t>(ctx.lane());
      auto& status = sc.status[r];
      auto& key = sc.key[lane];
      auto& key_stamp = sc.key_stamp[lane];
      const auto key_of = [&](idx v) {
        if (key_stamp[v] != sc.round_epoch) {
          key_stamp[v] = sc.round_epoch;
          key[v] = vertex_key(opts.seed, v, round);
        }
        return key[v];
      };
      for (const sim::MessageView& msg : ctx.recv_all()) {
        const std::uint8_t value = msg.tag == kTagIn ? kIn : kOut;
        const std::size_t count = sim::payload_count<idx>(msg);
        for (std::size_t t = 0; t < count; ++t) status[sim::payload_at<idx>(msg, t)] = value;
      }

      const IdxVec& verts = graph.verts_of[r];
      std::uint64_t comparisons = 0;
      // Domination sweep: candidates adjacent to an In vertex leave.
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const idx v = verts[i];
        if (status[v] != kCandidate) continue;
        for (const idx u : graph.adj[r][i]) {
          ++comparisons;
          if (status[u] == kIn) {
            status[v] = kOut;
            notify(r, i, v, out_batch[r]);
            break;
          }
        }
      }
      // Selection sweep (round-start statuses; domination above only uses
      // information already final at round start, i.e. In vertices).
      IdxVec& selected = sc.selected[lane];
      selected.clear();
      for (std::size_t i = 0; i < verts.size(); ++i) {
        const idx v = verts[i];
        if (status[v] != kCandidate) continue;
        const std::uint64_t key_v = key_of(v);
        bool is_min = true;
        for (const idx u : graph.adj[r][i]) {
          ++comparisons;
          if (status[u] != kCandidate) continue;
          const std::uint64_t key_u = key_of(u);
          if (key_u < key_v || (key_u == key_v && u < v)) {
            is_min = false;
            break;
          }
        }
        if (is_min) selected.push_back(static_cast<idx>(i));
      }
      ctx.charge_flops(comparisons);
      // Commit: winners enter the set, their owned neighbors leave.
      for (const idx i : selected) {
        const idx v = verts[i];
        status[v] = kIn;
        notify(r, i, v, in_batch[r]);
        for (const idx u : graph.adj[r][i]) {
          if ((*graph.owner)[u] != r || status[u] != kCandidate) continue;
          status[u] = kOut;
          const auto pos = static_cast<std::size_t>(
              std::lower_bound(verts.begin(), verts.end(), u) - verts.begin());
          notify(r, pos, u, out_batch[r]);
        }
      }
      for (const idx v : verts) sc.cand_lane[lane] += status[v] == kCandidate;
      flush_batches(ctx, r);
    }, "mis/round");
    // Integer sum of the per-lane partials: order-independent, so one
    // shared sequential lane and p threaded lanes agree exactly.
    candidates_left = 0;
    for (const long long c : sc.cand_lane) candidates_left += c;
  }
  }

  // Drain pending updates so the machine's queues are clean for the caller.
  {
    sim::ScopedPhase span(machine, "drain");
    machine.step([&](sim::RankContext& ctx) { (void)ctx.recv_all(); }, "mis/drain");
  }
  machine.check_quiescent("mis/end");

  IdxVec result;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : graph.verts_of[r]) {
      if (sc.status[r][v] == kIn) result.push_back(v);
    }
  }
  // Reset scratch for the next call.
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : sc.touched[r]) sc.status[r][v] = kCandidate;
    sc.touched[r].clear();
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace ptilu
