#include "ptilu/pilut/pilut.hpp"

#include <algorithm>
#include <cmath>

#include "detail.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/ilu/working_row.hpp"
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
  IdxVec elim_cols;                 // reduce: this row's I_l columns
  long long edges = 0;              // setup: this lane's share of the edge count

  explicit LevelLane(int nranks) : reverse_out(nranks) {}
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
  std::vector<LevelLane> level_lanes(static_cast<std::size_t>(machine.scratch_lanes()),
                                     LevelLane(nranks));
  pilut_detail::UrowExchange urows(run);

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
    std::vector<std::vector<IdxVec>>& adj = graph.adj;
    {
    sim::ScopedPhase span(machine, "setup");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      std::vector<IdxVec>& reverse_out =
          level_lanes[static_cast<std::size_t>(ctx.lane())].reverse_out;
      for (auto& neighbors : adj[r]) neighbors.clear();  // keep inner capacity
      adj[r].resize(active[r].size());
      for (std::size_t i = 0; i < active[r].size(); ++i) {
        pos_dense[active[r][i]] = static_cast<idx>(i);
      }
      std::uint64_t touched = 0;
      for (std::size_t i = 0; i < active[r].size(); ++i) {
        const idx v = active[r][i];
        for (const idx c : tails[v].cols) {
          if (c == v) continue;
          ++touched;
          adj[r][i].push_back(c);  // out-edge v -> c
          const int peer = dist.owner[c];
          if (peer == r) {
            adj[r][pos_dense[c]].push_back(v);  // local reverse edge
          } else {
            reverse_out[peer].push_back(c);
            reverse_out[peer].push_back(v);
          }
        }
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
        for (std::size_t p = 0; p + 1 < count; p += 2) {
          adj[r][pos_dense[sim::payload_at<idx>(msg, p)]].push_back(
              sim::payload_at<idx>(msg, p + 1));
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
    urows.exchange(
        [&](int r, auto&& need) {
          for (const idx i : active[r]) {
            if (in_set[i]) continue;
            for (const idx c : tails[i].cols) {
              if (in_set[c]) need(c);
            }
          }
        },
        "pilut/exchange/request", "pilut/exchange/reply");

    // --- Receive U rows and eliminate I_l columns from the remaining rows
    // (Algorithm 4.2), forming the next reduced matrix.
    {
    sim::ScopedPhase span(machine, "reduce");
    machine.step([&](sim::RankContext& ctx) {
      const auto urow_of = urows.receive(ctx);
      Lane& lane = run.lane(ctx);
      WorkingRow& w = lane.w;
      IdxVec& elim_cols = level_lanes[static_cast<std::size_t>(ctx.lane())].elim_cols;
      std::uint64_t flops = 0, copied = 0;
      pilut_detail::FillDropTally tally;
      for (const idx i : active[ctx.rank()]) {
        if (in_set[i]) continue;
        SparseRow& tail = tails[i];
        // Pre-scan: rows with no I_l columns are untouched by this level.
        elim_cols.clear();
        for (const idx c : tail.cols) {
          if (in_set[c]) elim_cols.push_back(c);
        }
        if (elim_cols.empty()) continue;
        const real tau_i = opts.tau * run.norms[i];
        for (std::size_t p = 0; p < tail.size(); ++p) {
          w.insert(tail.cols[p], tail.vals[p]);
        }
        // Ascending new number keeps the arithmetic order identical to the
        // serial elimination on the permuted matrix.
        std::sort(elim_cols.begin(), elim_cols.end(),
                  [&](idx x, idx y) { return sched.newnum[x] < sched.newnum[y]; });
        for (const idx k : elim_cols) {
          const SparseRow& urow = urow_of(k);
          const real multiplier = w.value(k) / urow.vals[0];  // diag stored first
          ++flops;
          if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
            w.set(k, 0.0);
            ++tally.dropped;
            continue;
          }
          w.set(k, multiplier);
          // Strictly-upper entries only — the loop starts at p = 1.
          flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
          for (std::size_t p = 1; p < urow.size(); ++p) {
            const idx c = urow.cols[p];
            const real update = -multiplier * urow.vals[p];
            if (w.present(c)) {
              w.accumulate(c, update);
            } else {
              w.insert(c, update);  // fill lands on unfactored columns only
              ++tally.fill;
            }
          }
        }
        // Merge surviving multipliers into L and re-apply the 3rd rule.
        SparseRow& lrow = run.state.lrows[i];
        for (const idx k : elim_cols) {
          const real v = w.value(k);
          if (v != 0.0) lrow.push(k, v);
        }
        pilut_detail::keep_largest(lrow, opts.m, tau_i, -1, lane.scratch, tally);
        // Rebuild the tail from the unfactored columns.
        copied += pilut_detail::rebuild_tail(
            run, lane, i, opts, [&](idx c) { return in_set[c] != 0; }, tally);
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
