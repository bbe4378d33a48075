#include "ptilu/pilut/pilut.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "detail.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

using pilut_detail::FactorRun;
using pilut_detail::Lane;

/// Per-lane per-level working structures (see pilut_detail::Lane for the
/// lane model). Hoisted out of the level loop so their nested buffers keep
/// their capacity across the hundreds of reduced-matrix levels. Sequential
/// backend: a single lane shared by the ranks running one after another,
/// exactly the seed behavior; threaded backend: one lane per rank, so
/// concurrent bodies never share mutable scratch.
struct LevelLane {
  std::vector<IdxVec> reverse_out;  // setup: peer -> (target, source) pairs
  // setup: dedup marks for the peer lists. A peer rank is listed for a
  // vertex when its mark differs from the current epoch, and a fresh epoch
  // starts per vertex (out-edges) and per message (reverse edges), so the
  // marks never need a reset.
  std::vector<std::uint64_t> rank_mark;  // rank -> epoch that last listed it
  std::vector<std::uint64_t> vert_mark;  // vertex -> epoch that last saw it
  std::uint64_t epoch = 0;
  // reduce: column -> slot_base + its position in the tail of the row at
  // hand. slot_base advances past every row's positions, so an entry below
  // it is stale and the map never needs a reset.
  std::vector<std::uint64_t> slot;
  std::uint64_t slot_base = 1;
  IdxVec order;                     // reduce: the row's I_l positions, elimination order
  long long edges = 0;              // setup: this lane's share of the edge count

  LevelLane(int nranks, idx n)
      : reverse_out(nranks), rank_mark(nranks, 0), vert_mark(n, 0), slot(n, 0) {}
};

}  // namespace

void PilutSchedule::validate() const {
  const idx n = static_cast<idx>(newnum.size());
  PTILU_CHECK(is_permutation(newnum, n), "schedule.newnum is not a permutation");
  PTILU_CHECK(orig_of.size() == newnum.size(), "orig_of size mismatch");
  for (idx i = 0; i < n; ++i) PTILU_CHECK(orig_of[newnum[i]] == i, "orig_of inconsistent");
  PTILU_CHECK(!level_start.empty() && level_start.front() == n_interior &&
                  level_start.back() == n,
              "level_start must span [n_interior, n]");
  for (std::size_t l = 1; l < level_start.size(); ++l) {
    PTILU_CHECK(level_start[l - 1] <= level_start[l], "level_start not monotone");
  }
  PTILU_CHECK(static_cast<int>(interior_range.size()) == nranks, "interior_range size");
}

PilutResult pilut_factor(sim::Machine& machine, const DistCsr& dist,
                         const PilutOptions& opts) {
  PTILU_CHECK(opts.m >= 0 && opts.tau >= 0.0, "invalid PILUT options");
  FactorRun run(machine, dist);
  const idx n = dist.n();
  const int nranks = dist.nranks;
  PilutStats& stats = run.result.stats;
  PilutSchedule& sched = run.result.schedule;
  std::vector<SparseRow>& tails = run.state.tails;
  std::vector<IdxVec>& active = run.active;

  pilut_detail::run_interior_phase(run, opts);
  pilut_detail::run_initial_reduction(run, opts);
  // Dense per-level scratch arrays (active vertex sets are disjoint across
  // ranks, so sharing them is safe and avoids hash-map churn in the hot
  // per-level loops).
  IdxVec pos_dense(n, -1);  // active vertex -> position in owner's list (set per level)
  std::vector<std::uint8_t> in_set(n, 0);  // membership stamp for the current I_l
  DistMisScratch mis_scratch;              // dense status arrays reused per level

  DistGraph graph;  // adjacency + vertex lists of the reduced matrix
  graph.n_global = n;
  graph.owner = &dist.owner;
  graph.verts_of.resize(nranks);
  graph.adj.resize(nranks);
  graph.peers.resize(nranks);
  std::vector<LevelLane> level_lanes(static_cast<std::size_t>(machine.scratch_lanes()),
                                     LevelLane(nranks, n));
  pilut_detail::UrowExchange urows(run);
  // Per rank: where the I_l columns sit in its remaining rows' tails, as
  // [row, count, position...] records (positions ascending, rows in active
  // order), written by the U-row request scan and read by the reduce. Per
  // rank, not per lane: every rank's request body runs before any reduce
  // body.
  std::vector<IdxVec> elim_of(nranks);

  // ================= Phase 2: iterative interface factorization ===========
  // Phase tags cover the paper's breakdown of interface work: communication
  // setup, independent-set discovery (tagged inside mis_dist), numbering,
  // factoring the set, U-row exchange, and reduced-matrix formation.
  sim::ScopedPhase interface_phase(machine, "factor/interface");
  while (run.remaining > 0) {
    // --- Build the symmetrized distributed graph of the reduced matrix.
    // Tail columns are exactly the unfactored interface vertices, so the
    // directed adjacency of vertex v is its tail pattern; reverse edges to
    // remote owners travel in one superstep (the "communication setup").
    // The same pass emits each vertex's remote-peer list for mis_dist: the
    // owner of every out-edge is loaded here anyway, and the peer of a
    // remote reverse edge is its sender.
    std::vector<std::vector<IdxVec>>& adj = graph.adj;
    std::vector<std::vector<std::vector<int>>>& peers = graph.peers;
    {
    sim::ScopedPhase span(machine, "setup");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      LevelLane& lane = level_lanes[static_cast<std::size_t>(ctx.lane())];
      std::vector<IdxVec>& reverse_out = lane.reverse_out;
      for (auto& neighbors : adj[r]) neighbors.clear();  // keep inner capacity
      for (auto& ranks : peers[r]) ranks.clear();
      adj[r].resize(active[r].size());
      peers[r].resize(active[r].size());
      for (std::size_t i = 0; i < active[r].size(); ++i) {
        pos_dense[active[r][i]] = static_cast<idx>(i);
      }
      std::uint64_t touched = 0;
      for (std::size_t i = 0; i < active[r].size(); ++i) {
        const idx v = active[r][i];
        const std::uint64_t epoch = ++lane.epoch;
        // Out-edges v -> c: the tail without its diagonal, written through
        // a raw cursor after the reverse edges earlier vertices left. No
        // reverse edge lands on v while its own tail is walked (that would
        // need c == v), so the cursor stays valid.
        IdxVec& out = adj[r][i];
        const std::size_t first = out.size();
        const IdxVec& cols = tails[v].cols;
        out.resize(first + cols.size());
        idx* next = out.data() + first;
        for (const idx c : cols) {
          if (c == v) continue;
          *next++ = c;
          const int peer = dist.owner[c];
          if (peer == r) {
            adj[r][pos_dense[c]].push_back(v);  // local reverse edge
          } else {
            reverse_out[peer].push_back(c);
            reverse_out[peer].push_back(v);
            if (lane.rank_mark[peer] != epoch) {
              lane.rank_mark[peer] = epoch;
              peers[r][i].push_back(peer);
            }
          }
        }
        out.resize(static_cast<std::size_t>(next - out.data()));
        touched += out.size() - first;
      }
      ctx.charge_mem(touched * sizeof(idx));
      for (int peer = 0; peer < nranks; ++peer) {
        if (!reverse_out[peer].empty()) {
          ctx.send_indices(peer, 0, reverse_out[peer]);
          reverse_out[peer].clear();
        }
      }
    }, "pilut/setup/reverse_edges");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      LevelLane& lane = level_lanes[static_cast<std::size_t>(ctx.lane())];
      for (const sim::MessageView& msg : ctx.recv_all()) {
        const std::size_t count = sim::payload_count<idx>(msg);
        const std::uint64_t epoch = ++lane.epoch;
        for (std::size_t p = 0; p + 1 < count; p += 2) {
          const idx c = sim::payload_at<idx>(msg, p);
          const idx target = pos_dense[c];
          adj[r][target].push_back(sim::payload_at<idx>(msg, p + 1));
          if (lane.vert_mark[c] != epoch) {  // first edge from msg.from
            lane.vert_mark[c] = epoch;
            std::vector<int>& ranks = peers[r][target];
            if (std::find(ranks.begin(), ranks.end(), msg.from) == ranks.end()) {
              ranks.push_back(msg.from);
            }
          }
        }
      }
      // Duplicate adjacency entries (an edge present in both tails) are
      // harmless for the MIS — skipping dedup keeps this phase O(edges).
      long long local_edges = 0;
      for (const auto& neighbors : adj[r]) {
        local_edges += static_cast<long long>(neighbors.size());
      }
      lane.edges += local_edges;  // per-lane partial; summed after the step
    }, "pilut/setup/apply_reverse");
    }
    // Fold the per-lane edge partials (integer sum: order-independent, so
    // one shared sequential lane and p threaded lanes agree bit-for-bit).
    long long edges = 0;
    for (LevelLane& lane : level_lanes) {
      edges += lane.edges;
      lane.edges = 0;
    }

    // --- Choose the independent set I_l.
    IdxVec iset;
    if (edges == 0) {
      // All remaining rows are mutually independent — the termination case.
      for (int r = 0; r < nranks; ++r) {
        iset.insert(iset.end(), active[r].begin(), active[r].end());
      }
      std::sort(iset.begin(), iset.end());
    } else {
      for (int r = 0; r < nranks; ++r) {
        graph.verts_of[r].assign(active[r].begin(), active[r].end());
      }
      iset = mis_dist(machine, graph,
                      {.seed = opts.seed + static_cast<std::uint64_t>(stats.levels),
                       .rounds = opts.mis_rounds},
                      &mis_scratch);
      PTILU_CHECK(!iset.empty(), "independent set came back empty");
    }

    // --- Number the set rank-major. The id exchange (per-rank counts plus
    // the member lists for boundary vertices) is a small collective.
    for (const idx v : iset) in_set[v] = 1;
    for (int r = 0; r < nranks; ++r) {
      for (const idx v : active[r]) {
        if (in_set[v]) sched.newnum[v] = run.next_num++;
      }
    }
    {
      sim::ScopedPhase span(machine, "number");
      machine.collective(static_cast<std::uint64_t>(iset.size()) * sizeof(idx) / nranks +
                         sizeof(idx), "pilut/number");
    }

    // --- Factor the rows of I_l (only U rows are created; the paper's
    // observation that independence makes this communication-free).
    {
    sim::ScopedPhase span(machine, "factor");
    machine.step([&](sim::RankContext& ctx) {
      Lane& lane = run.lane(ctx);
      std::uint64_t flops = 0;
      pilut_detail::FillDropTally tally;
      for (const idx v : active[ctx.rank()]) {
        if (!in_set[v]) continue;
        SparseRow& tail = tails[v];
        SparseRow& ustage = lane.scratch.ustage;
        ustage.clear();
        real diag = 0.0;
        for (std::size_t p = 0; p < tail.size(); ++p) {
          if (tail.cols[p] == v) {
            diag = tail.vals[p];
          } else {
            ustage.push(tail.cols[p], tail.vals[p]);
          }
        }
        flops += tail.size();
        pilut_detail::keep_largest(ustage, opts.m, opts.tau * run.norms[v], -1,
                                   lane.scratch, tally);  // 2nd dropping rule
        diag = safeguard_pivot(v, diag,
                               opts.pivot_rel > 0.0 ? opts.pivot_rel * run.norms[v] : 0.0,
                               tally.guarded);
        emit_urow(run.state.urows[v], v, diag, ustage);
        tail.clear();
      }
      ctx.charge_flops(flops);
      run.commit(ctx, tally);
    }, "pilut/factor_set");
    }

    // --- Exchange the U rows that remote eliminations will need. Each rank
    // scans its remaining rows' tails for set members owned elsewhere,
    // requests those rows, and owners reply within the same superstep pair.
    // The scan records where every row's I_l columns are, so the reduce
    // below visits only the rows this level touches, without a rescan.
    urows.exchange(
        [&](int r, auto&& need) {
          IdxVec& elim = elim_of[r];
          elim.clear();
          for (const idx i : active[r]) {
            if (in_set[i]) continue;
            const IdxVec& cols = tails[i].cols;
            const std::size_t head = elim.size();
            for (std::size_t p = 0; p < cols.size(); ++p) {
              if (!in_set[cols[p]]) continue;
              need(cols[p]);
              if (elim.size() == head) elim.insert(elim.end(), {i, 0});
              elim.push_back(static_cast<idx>(p));
            }
            if (elim.size() != head) elim[head + 1] = static_cast<idx>(elim.size() - head - 2);
          }
        },
        "pilut/exchange/request", "pilut/exchange/reply");

    // --- Receive U rows and eliminate I_l columns from the remaining rows
    // (Algorithm 4.2), forming the next reduced matrix. The elimination
    // runs in place on the tail: `slot` maps a column to its position, an
    // update lands on its entry, fill is appended, and the I_l entries are
    // cut out at their recorded positions. That is the floating-point work
    // and the entry order of a working-row elimination plus rebuild_tail
    // (fill never lands on I_l: a U row's columns are its row's neighbors,
    // and I_l is independent), so the tails — and the next level's graph —
    // are bit-identical to it.
    {
    sim::ScopedPhase span(machine, "reduce");
    machine.step([&](sim::RankContext& ctx) {
      const auto urow_of = urows.receive(ctx);
      Lane& lane = run.lane(ctx);
      LevelLane& level = level_lanes[static_cast<std::size_t>(ctx.lane())];
      std::vector<std::uint64_t>& slot = level.slot;
      IdxVec& order = level.order;
      const IdxVec& elim = elim_of[ctx.rank()];
      std::uint64_t flops = 0, copied = 0;
      pilut_detail::FillDropTally tally;
      for (std::size_t head = 0; head < elim.size();) {
        const idx i = elim[head];
        const auto positions = std::span(elim).subspan(head + 2, elim[head + 1]);
        head += 2 + positions.size();
        SparseRow& tail = tails[i];
        const real tau_i = opts.tau * run.norms[i];
        const std::uint64_t base = level.slot_base;
        for (std::size_t p = 0; p < tail.size(); ++p) slot[tail.cols[p]] = base + p;
        // Ascending new number keeps the arithmetic order identical to the
        // serial elimination on the permuted matrix.
        order.assign(positions.begin(), positions.end());
        std::sort(order.begin(), order.end(), [&](idx x, idx y) {
          return sched.newnum[tail.cols[x]] < sched.newnum[tail.cols[y]];
        });
        for (const idx pos : order) {
          const SparseRow& urow = urow_of(tail.cols[pos]);
          const real multiplier = tail.vals[pos] / urow.vals[0];  // diag stored first
          ++flops;
          if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
            tail.vals[pos] = 0.0;
            ++tally.dropped;
            continue;
          }
          tail.vals[pos] = multiplier;
          // Strictly-upper entries only — the loop starts at p = 1.
          flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
          for (std::size_t p = 1; p < urow.size(); ++p) {
            const idx c = urow.cols[p];
            const real update = -multiplier * urow.vals[p];
            if (slot[c] >= base) {
              tail.vals[slot[c] - base] += update;
            } else {  // fill lands on unfactored columns only
              slot[c] = base + tail.size();
              tail.push(c, update);
              ++tally.fill;
            }
          }
        }
        level.slot_base = base + tail.size();
        // Merge surviving multipliers into L and re-apply the 3rd rule.
        SparseRow& lrow = run.state.lrows[i];
        for (const idx pos : order) {
          if (tail.vals[pos] != 0.0) lrow.push(tail.cols[pos], tail.vals[pos]);
        }
        pilut_detail::keep_largest(lrow, opts.m, tau_i, -1, lane.scratch, tally);
        // Cut the I_l entries out, keeping the order of the rest.
        std::size_t kept = static_cast<std::size_t>(positions[0]);
        for (std::size_t j = 0; j < positions.size(); ++j) {
          const std::size_t from = static_cast<std::size_t>(positions[j]) + 1;
          const std::size_t to = j + 1 < positions.size()
                                     ? static_cast<std::size_t>(positions[j + 1])
                                     : tail.size();
          std::copy(tail.cols.begin() + from, tail.cols.begin() + to, tail.cols.begin() + kept);
          std::copy(tail.vals.begin() + from, tail.vals.begin() + to, tail.vals.begin() + kept);
          kept += to - from;
        }
        tail.cols.resize(kept);
        tail.vals.resize(kept);
        if (opts.cap_k > 0) {
          pilut_detail::keep_largest(tail, opts.cap_k * opts.m, 0.0, i, lane.scratch, tally);
        }
        lane.max_reduced_row =
            std::max(lane.max_reduced_row, static_cast<nnz_t>(tail.size()));
        copied += tail.size() * (sizeof(idx) + sizeof(real));
      }
      ctx.charge_flops(flops);
      ctx.charge_mem(copied);
      run.commit(ctx, tally);
    }, "pilut/reduce");
    }

    // --- Retire the factored rows (this also clears their in_set stamps).
    run.retire(in_set);
    sched.level_start.push_back(run.next_num);
    ++stats.levels;
  }
  return run.finish("pilut/end", dist.owner);
}

}  // namespace ptilu
