#include "ptilu/dist/mis_dist.hpp"

#include <algorithm>
#include <sstream>

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

void DistGraph::derive_peers(int r, std::size_t i) {
  std::vector<int>& ranks = peers[r][i];
  ranks.clear();
  for (const idx u : adj[r][i]) {
    const int peer = (*owner)[u];
    if (peer != r && std::find(ranks.begin(), ranks.end(), peer) == ranks.end()) {
      ranks.push_back(peer);
    }
  }
}

void DistGraph::derive_peers() {
  peers.resize(adj.size());
  for (std::size_t r = 0; r < adj.size(); ++r) {
    peers[r].resize(adj[r].size());
    for (std::size_t i = 0; i < adj[r].size(); ++i) derive_peers(static_cast<int>(r), i);
  }
}

std::string DistGraph::peer_mismatch() const {
  std::vector<int> want, have;
  for (std::size_t r = 0; r < adj.size(); ++r) {
    for (std::size_t i = 0; i < adj[r].size(); ++i) {
      want.clear();
      for (const idx u : adj[r][i]) {
        if ((*owner)[u] != static_cast<int>(r)) want.push_back((*owner)[u]);
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      have = peers[r][i];
      std::sort(have.begin(), have.end());
      if (have != want) {
        std::ostringstream os;
        const auto list = [&](const std::vector<int>& ranks) {
          os << '{';
          for (std::size_t k = 0; k < ranks.size(); ++k) os << (k ? "," : "") << ranks[k];
          os << '}';
        };
        os << "rank " << r << " vertex " << verts_of[r][i] << " lists peers ";
        list(have);
        os << " but its adjacency is owned by ";
        list(want);
        return os.str();
      }
    }
  }
  return "";
}

void DistMisScratch::ensure(int nranks, int lanes, idx n_global) {
  if (static_cast<int>(status.size()) < nranks) status.resize(nranks);
  for (auto& s : status) {
    if (static_cast<idx>(s.size()) < n_global) s.assign(n_global, kCandidate);
  }
  if (static_cast<int>(changed.size()) < nranks) changed.resize(nranks);
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
                  static_cast<int>(graph.adj.size()) == nranks &&
                  static_cast<int>(graph.peers.size()) == nranks,
              "DistGraph rank count mismatch");
  for (int r = 0; r < nranks; ++r) {
    PTILU_CHECK(graph.adj[r].size() == graph.verts_of[r].size() &&
                    graph.peers[r].size() == graph.verts_of[r].size(),
                "DistGraph rank " << r << " has " << graph.verts_of[r].size()
                                  << " vertices but " << graph.adj[r].size()
                                  << " adjacency and " << graph.peers[r].size()
                                  << " peer lists");
  }
  if (machine.checking()) {
    const std::string mismatch = graph.peer_mismatch();
    PTILU_CHECK(mismatch.empty(), "DistGraph peer lists are stale: " << mismatch);
  }

  DistMisScratch local_scratch;
  DistMisScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.ensure(nranks, machine.scratch_lanes(), graph.n_global);

  // Self-tagging: callers need not (and should not) wrap mis_dist in a
  // phase of their own; the tag nests under whatever phase is active.
  sim::ScopedPhase mis_phase(machine, "mis");

  // Setup phase (the paper's "communication setup"). The graph carries
  // each vertex's remote-peer list, so setup touches only those lists, not
  // the adjacency: it collects the rank's neighbor ranks and remaps the
  // lists to slots (CSR layout in the scratch). The status arrays need no
  // writes — every call starts with all entries at kCandidate. The modeled
  // charge is still one word per adjacency entry, the scan a real rank
  // makes to learn its peers.
  {
  sim::ScopedPhase span(machine, "setup");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    auto& pstart = sc.peer_start[r];
    auto& plist = sc.peer_list[r];
    auto& nbrs = sc.nbrs[r];
    auto& peer_stamp = sc.peer_stamp[static_cast<std::size_t>(ctx.lane())];
    const std::size_t nverts = graph.verts_of[r].size();
    pstart.clear();
    pstart.reserve(nverts + 1);
    pstart.push_back(0);
    plist.clear();
    nbrs.clear();
    std::uint64_t scanned = 0;
    for (std::size_t i = 0; i < nverts; ++i) {
      scanned += graph.adj[r][i].size();
      for (const int peer : graph.peers[r][i]) {
        plist.push_back(peer);
        if (!peer_stamp[peer]) {
          peer_stamp[peer] = 1;
          nbrs.push_back(peer);
        }
      }
      pstart.push_back(static_cast<idx>(plist.size()));
    }
    // Sparse neighbor routing: sort the rank's few peers, then remap the
    // per-vertex peer CSR from rank ids to slots into that sorted list, and
    // size the slot-indexed outgoing batches by the neighbor degree.
    // Flushing slots in order then visits peers in ascending rank order —
    // the exact send order the dense 0..p-1 peer scan produced. (The order
    // within one vertex's list is free: notify appends the vertex once to
    // each of its slots' batches.)
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
      auto& changed = sc.changed[r];
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
        for (std::size_t t = 0; t < count; ++t) {
          const idx u = sim::payload_at<idx>(msg, t);
          status[u] = value;
          changed.push_back(u);
        }
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

  // Collect the set and reset the scratch for the next call: owned entries
  // from the vertex lists, mirror entries from the changed lists (each
  // mirror changes at most once, so those lists hold no repeats).
  IdxVec result;
  for (int r = 0; r < nranks; ++r) {
    auto& status = sc.status[r];
    for (const idx v : graph.verts_of[r]) {
      if (status[v] == kIn) result.push_back(v);
      status[v] = kCandidate;
    }
    for (const idx u : sc.changed[r]) status[u] = kCandidate;
    sc.changed[r].clear();
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace ptilu
