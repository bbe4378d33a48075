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

constexpr int kTagUReq = 10;
constexpr int kTagUCols = 11;
constexpr int kTagUVals = 12;

using pilut_detail::FactorState;
using pilut_detail::Lane;

/// Per-lane per-level working structures (see pilut_detail::Lane for the
/// lane model). Hoisted out of the level loop so their nested buffers keep
/// their capacity across the hundreds of reduced-matrix levels. Sequential
/// backend: a single lane shared by the ranks running one after another,
/// exactly the seed behavior; threaded backend: one lane per rank, so
/// concurrent bodies never share mutable scratch.
struct LevelLane {
  std::vector<IdxVec> reverse_out;  // setup: peer -> (target, source) pairs
  std::vector<IdxVec> requests;     // exchange: peer -> requested U rows
  // Received remote U rows, pooled: a dense row -> slot map plus a slab of
  // reusable SparseRows (assign() keeps their capacity level over level).
  IdxVec remote_slot;
  std::vector<SparseRow> remote_pool;
  IdxVec remote_rows;  // rows whose remote_slot is currently set
  IdxVec ucols_buf;    // reduce: concatenated U-row column payloads
  RealVec uvals_buf;   // reduce: concatenated U-row value payloads
  IdxVec elim_cols;    // reduce: this row's I_l columns
  long long edges = 0;  // setup: this lane's share of the edge count

  LevelLane(int nranks, idx n)
      : reverse_out(nranks), requests(nranks), remote_slot(n, -1) {}
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
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(opts.m >= 0 && opts.tau >= 0.0, "invalid PILUT options");
  machine.reset();

  const Csr& a = dist.a;
  const idx n = a.n_rows;
  const int nranks = dist.nranks;
  const RealVec norms = row_norms(a, 2);
  const idx tail_cap = opts.cap_k > 0 ? opts.cap_k * opts.m : 0;  // 0 = uncapped

  PilutResult result;
  PilutStats& stats = result.stats;
  PilutSchedule& sched = result.schedule;
  sched.nranks = nranks;
  sched.newnum.assign(n, -1);

  FactorState state(n);
  // Per-lane scratch: one lane sequentially (reused across ranks, cleared
  // between rows — the seed behavior), one per rank when threaded.
  std::vector<Lane> lanes = pilut_detail::make_lanes(machine, n);
  pilut_detail::run_interior_phase(machine, dist, opts, norms, state, lanes,
                                  sched, stats);
  pilut_detail::run_initial_reduction(machine, dist, opts, norms, tail_cap, state,
                                      lanes);
  idx next_num = sched.n_interior;
  // Dense per-level scratch arrays (active vertex sets are disjoint across
  // ranks, so sharing them is safe and avoids hash-map churn in the hot
  // per-level loops).
  IdxVec pos_dense(n, -1);              // active vertex -> position in owner's list
  std::vector<std::uint8_t> in_set(n, 0);  // membership stamp for the current I_l
  DistMisScratch mis_scratch;              // dense status arrays reused per level

  DistGraph graph;  // adjacency + vertex lists of the reduced matrix
  graph.n_global = n;
  graph.owner = &dist.owner;
  graph.verts_of.resize(nranks);
  graph.adj.resize(nranks);
  std::vector<LevelLane> level_lanes;
  level_lanes.reserve(static_cast<std::size_t>(machine.scratch_lanes()));
  for (int i = 0; i < machine.scratch_lanes(); ++i) level_lanes.emplace_back(nranks, n);

  // ================= Phase 2: iterative interface factorization ===========
  std::vector<IdxVec> active(nranks);  // per rank: unfactored interface rows
  long long remaining = 0;
  for (int r = 0; r < nranks; ++r) {
    for (const idx v : dist.owned_rows[r]) {
      if (dist.interface[v]) active[r].push_back(v);
    }
    remaining += static_cast<long long>(active[r].size());
  }

  sched.level_start.push_back(sched.n_interior);
  // Phase tags cover the paper's breakdown of interface work: communication
  // setup, independent-set discovery (tagged inside mis_dist), numbering,
  // factoring the set, U-row exchange, and reduced-matrix formation.
  const pilut_detail::FactorCounters counters = pilut_detail::factor_counters(machine);
  sim::ScopedPhase interface_phase(machine, "factor/interface");
  while (remaining > 0) {
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
        for (const idx c : state.tails[v].cols) {
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
        if (in_set[v]) sched.newnum[v] = next_num++;
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
      const int r = ctx.rank();
      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      FactorScratch& scratch = lane.scratch;
      std::uint64_t flops = 0;
      pilut_detail::FillDropTally tally;
      for (const idx v : active[r]) {
        if (!in_set[v]) continue;
        const real tau_v = opts.tau * norms[v];
        SparseRow& tail = state.tails[v];
        SparseRow& ustage = scratch.ustage;
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
        const std::size_t u_before = ustage.size();
        select_largest(ustage, opts.m, tau_v, -1, scratch.kept);  // 2nd dropping rule
        tally.dropped += u_before - ustage.size();
        diag = safeguard_pivot(v, diag,
                               opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[v] : 0.0,
                               tally.guarded);
        state.udiag[v] = diag;
        pilut_detail::emit_urow(state.urows[v], v, diag, ustage);
        state.factored[v] = true;
        tail.clear();
      }
      ctx.charge_flops(flops);
      lane.pivots_guarded += tally.guarded;
      counters.commit(r, tally);
    }, "pilut/factor_set");
    }

    // --- Exchange the U rows that remote eliminations will need. Each rank
    // scans its remaining rows' tails for set members owned elsewhere,
    // requests those rows, and owners reply within the same superstep pair.
    {
    sim::ScopedPhase span(machine, "exchange");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      std::vector<IdxVec>& requests =
          level_lanes[static_cast<std::size_t>(ctx.lane())].requests;
      for (const idx i : active[r]) {
        if (in_set[i]) continue;
        for (const idx c : state.tails[i].cols) {
          if (in_set[c] && dist.owner[c] != r) requests[dist.owner[c]].push_back(c);
        }
      }
      for (int peer = 0; peer < nranks; ++peer) {
        IdxVec& rows = requests[peer];
        if (rows.empty()) continue;
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        ctx.send_indices(peer, kTagUReq, rows);
        rows.clear();
      }
    }, "pilut/exchange/request");
    machine.step([&](sim::RankContext& ctx) {
      LevelLane& ll = level_lanes[static_cast<std::size_t>(ctx.lane())];
      IdxVec& cols_payload = ll.ucols_buf;
      RealVec& vals_payload = ll.uvals_buf;
      for (const sim::MessageView& msg : ctx.recv_all()) {
        PTILU_CHECK(msg.tag == kTagUReq, "unexpected message during U exchange");
        cols_payload.clear();
        vals_payload.clear();
        const std::size_t count = sim::payload_count<idx>(msg);
        for (std::size_t t = 0; t < count; ++t) {
          const idx row = sim::payload_at<idx>(msg, t);
          const SparseRow& urow = state.urows[row];
          cols_payload.push_back(row);
          cols_payload.push_back(static_cast<idx>(urow.size()));
          cols_payload.insert(cols_payload.end(), urow.cols.begin(), urow.cols.end());
          vals_payload.insert(vals_payload.end(), urow.vals.begin(), urow.vals.end());
        }
        ctx.send_indices(msg.from, kTagUCols, cols_payload);
        ctx.send_reals(msg.from, kTagUVals, vals_payload);
      }
    }, "pilut/exchange/reply");
    }

    // --- Receive U rows and eliminate I_l columns from the remaining rows
    // (Algorithm 4.2), forming the next reduced matrix.
    {
    sim::ScopedPhase span(machine, "reduce");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      Lane& lane = lanes[static_cast<std::size_t>(ctx.lane())];
      LevelLane& ll = level_lanes[static_cast<std::size_t>(ctx.lane())];
      WorkingRow& w = lane.w;
      FactorScratch& scratch = lane.scratch;
      IdxVec& remote_slot = ll.remote_slot;
      std::vector<SparseRow>& remote_pool = ll.remote_pool;
      IdxVec& remote_rows = ll.remote_rows;
      IdxVec& elim_cols = ll.elim_cols;
      // Release this lane's previous remote-row bindings, then reassemble
      // this rank's received rows into pooled slots.
      for (const idx row : remote_rows) remote_slot[row] = -1;
      remote_rows.clear();
      IdxVec& cols_payload = ll.ucols_buf;
      RealVec& vals_payload = ll.uvals_buf;
      cols_payload.clear();
      vals_payload.clear();
      for (const sim::MessageView& msg : ctx.recv_all()) {
        if (msg.tag == kTagUCols) {
          sim::decode_indices_append(msg, cols_payload);
        } else {
          PTILU_CHECK(msg.tag == kTagUVals, "unexpected tag in U exchange");
          sim::decode_reals_append(msg, vals_payload);
        }
      }
      std::size_t vpos = 0;
      for (std::size_t p = 0; p < cols_payload.size();) {
        const idx row = cols_payload[p++];
        const idx len = cols_payload[p++];
        const idx slot = static_cast<idx>(remote_rows.size());
        if (static_cast<std::size_t>(slot) == remote_pool.size()) remote_pool.emplace_back();
        SparseRow& urow = remote_pool[slot];
        urow.cols.assign(cols_payload.begin() + p, cols_payload.begin() + p + len);
        urow.vals.assign(vals_payload.begin() + vpos, vals_payload.begin() + vpos + len);
        remote_slot[row] = slot;
        remote_rows.push_back(row);
        p += len;
        vpos += len;
      }

      const auto urow_of = [&](idx k) -> const SparseRow& {
        if (dist.owner[k] == r) return state.urows[k];
        PTILU_CHECK(remote_slot[k] >= 0, "missing remote U row " << k);
        return remote_pool[remote_slot[k]];
      };

      std::uint64_t flops = 0, copied = 0;
      pilut_detail::FillDropTally tally;
      for (const idx i : active[r]) {
        if (in_set[i]) continue;
        SparseRow& tail = state.tails[i];
        // Pre-scan: rows with no I_l columns are untouched by this level.
        elim_cols.clear();
        for (const idx c : tail.cols) {
          if (in_set[c]) elim_cols.push_back(c);
        }
        if (elim_cols.empty()) continue;
        const real tau_i = opts.tau * norms[i];
        for (std::size_t p = 0; p < tail.size(); ++p) {
          w.insert(tail.cols[p], tail.vals[p]);
        }
        // Ascending new number keeps the arithmetic order identical to the
        // serial elimination on the permuted matrix.
        std::sort(elim_cols.begin(), elim_cols.end(),
                  [&](idx x, idx y) { return sched.newnum[x] < sched.newnum[y]; });
        SparseRow& lrow = state.lrows[i];
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
        for (const idx k : elim_cols) {
          const real v = w.value(k);
          if (v != 0.0) lrow.push(k, v);
        }
        const std::size_t l_before = lrow.size();
        select_largest(lrow, opts.m, tau_i, -1, scratch.kept);
        tally.dropped += l_before - lrow.size();
        // Rebuild the tail from the unfactored columns.
        tail.clear();
        for (const idx c : w.touched()) {
          if (in_set[c]) continue;
          tail.push(c, w.value(c));
        }
        if (tail_cap > 0) {
          const std::size_t t_before = tail.size();
          select_largest(tail, tail_cap, 0.0, i, scratch.kept);
          tally.dropped += t_before - tail.size();
        }
        lane.max_reduced_row =
            std::max(lane.max_reduced_row, static_cast<nnz_t>(tail.size()));
        copied += tail.size() * (sizeof(idx) + sizeof(real));
        w.clear();
      }
      ctx.charge_flops(flops);
      ctx.charge_mem(copied);
      counters.commit(r, tally);
    }, "pilut/reduce");
    }

    // --- Retire the factored rows and reset the dense scratch stamps.
    for (int r = 0; r < nranks; ++r) {
      IdxVec still;
      for (const idx v : active[r]) {
        pos_dense[v] = -1;
        if (!in_set[v]) still.push_back(v);
      }
      remaining -= static_cast<long long>(active[r].size() - still.size());
      active[r] = std::move(still);
    }
    for (const idx v : iset) in_set[v] = 0;
    sched.level_start.push_back(next_num);
    ++stats.levels;
  }
  if (sched.level_start.back() != n) sched.level_start.push_back(n);
  PTILU_CHECK(next_num == n, "numbering did not cover all rows");
  machine.check_quiescent("pilut/end");

  pilut_detail::merge_lane_stats(lanes, stats);
  pilut_detail::finish_stats(machine, stats);

  // ===================== Assembly into the new ordering ====================
  sched.orig_of = invert_permutation(sched.newnum);
  sched.owner_new.resize(n);
  for (idx i = 0; i < n; ++i) sched.owner_new[sched.newnum[i]] = dist.owner[i];

  pilut_detail::assemble_factors(state.lrows, state.urows, sched.newnum,
                                 result.factors);
  result.factors.validate();
  sched.validate();
  return result;
}

}  // namespace ptilu
