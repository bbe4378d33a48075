#include "ptilu/pilut/pilu0.hpp"

#include <algorithm>

#include "detail.hpp"
#include "ptilu/dist/mis_dist.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

using pilut_detail::FactorRun;
using pilut_detail::Lane;

}  // namespace

PilutResult pilu0_factor(sim::Machine& machine, const DistCsr& dist,
                         const Pilu0Options& opts) {
  FactorRun run(machine, dist);
  const Csr& a = dist.a;
  const idx n = a.n_rows;
  const int nranks = dist.nranks;
  PilutSchedule& sched = run.result.schedule;
  std::vector<SparseRow>& urows = run.state.urows;
  std::vector<IdxVec>& active = run.active;

  // The zero-fill numeric kernel: load the pattern row, eliminate the given
  // factored columns in ascending new-number order, updates restricted to
  // existing pattern positions. Discarded out-of-pattern updates are the
  // PILU0 analogue of dropping (fill is structurally zero).
  const auto factor_row = [&](Lane& lane, idx i, const IdxVec& factored_cols,
                              const auto& urow_of,
                              pilut_detail::FillDropTally& tally) -> std::uint64_t {
    WorkingRow& w = lane.w;
    std::uint64_t flops = 0;
    bool diag_present = false;
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      w.insert(a.col_idx[k], a.values[k]);
      diag_present |= a.col_idx[k] == i;
    }
    if (!diag_present) w.insert(i, 0.0);
    for (const idx k : factored_cols) {
      const SparseRow& urow = urow_of(k);
      const real multiplier = w.value(k) / urow.vals[0];
      ++flops;
      w.set(k, multiplier);
      if (multiplier == 0.0) continue;
      for (std::size_t p = 1; p < urow.size(); ++p) {
        const idx c = urow.cols[p];
        if (w.present(c)) {  // zero-fill: discard updates outside the pattern
          w.accumulate(c, -multiplier * urow.vals[p]);
          flops += 2;
        } else {
          ++tally.dropped;
        }
      }
    }
    return flops;
  };

  const auto split_row = [&](Lane& lane, idx i, const auto& is_factored,
                             pilut_detail::FillDropTally& tally) {
    WorkingRow& w = lane.w;
    SparseRow& lrow = run.state.lrows[i];
    SparseRow& upper = lane.scratch.ustage;  // pooled staging for the U part
    upper.clear();
    real diag = 0.0;
    for (const idx c : w.touched()) {
      if (c == i) {
        diag = w.value(c);
      } else if (is_factored(c)) {
        if (w.value(c) != 0.0) lrow.push(c, w.value(c));
      } else {
        upper.push(c, w.value(c));
      }
    }
    diag = safeguard_pivot(i, diag,
                           opts.pivot_rel > 0.0 ? opts.pivot_rel * run.norms[i] : 0.0,
                           tally.guarded);
    emit_urow(urows[i], i, diag, upper);
    w.clear();
  };

  // ===================== Phase 1: interior factorization ==================
  {
  sim::ScopedPhase span(machine, "factor/interior");
  machine.step([&](sim::RankContext& ctx) {
    Lane& lane = run.lane(ctx);
    std::uint64_t flops = 0;
    pilut_detail::FillDropTally tally;
    IdxVec factored_cols;
    for (const idx i : dist.owned_rows[ctx.rank()]) {
      if (dist.interface[i]) continue;
      factored_cols.clear();
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        if (c < i && !dist.interface[c]) factored_cols.push_back(c);
      }
      flops += factor_row(lane, i, factored_cols,
                          [&](idx k) -> const SparseRow& { return urows[k]; }, tally);
      split_row(lane, i, [&](idx c) { return c < i && !dist.interface[c]; }, tally);
    }
    ctx.charge_flops(flops);
    run.commit(ctx, tally);
  }, "pilu0/interior");
  }
  run.result.stats.time_interior = machine.modeled_time();

  // ======== Color the interface graph with successive distributed MIS =====
  // The pattern is static, so all concurrent sets are computable up front —
  // this is exactly the structural advantage over ILUT that Figure 1 of the
  // paper illustrates. Coloring by repeated MIS on the uncolored residual
  // graph is the classic Jones–Plassmann scheme.

  // Symmetrized interface adjacency (interface-to-interface couplings only),
  // built once from the symmetrized pattern, with each vertex's peer list.
  // The residual graph lives directly in the DistGraph: each class strips
  // its vertices in place instead of deep-copying the adjacency per color.
  const Csr sym = symmetrize_pattern(a);
  DistGraph graph;
  graph.n_global = n;
  graph.owner = &dist.owner;
  graph.verts_of = active;  // active is still needed for the factor phases
  graph.adj.resize(nranks);
  graph.peers.resize(nranks);
  {
  sim::ScopedPhase span(machine, "factor/color/setup");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    std::vector<IdxVec>& adj = graph.adj[r];
    adj.resize(active[r].size());
    graph.peers[r].resize(active[r].size());
    std::uint64_t scanned = 0;
    for (std::size_t i = 0; i < active[r].size(); ++i) {
      const idx v = active[r][i];
      for (nnz_t k = sym.row_ptr[v]; k < sym.row_ptr[v + 1]; ++k) {
        const idx c = sym.col_idx[k];
        ++scanned;
        if (c != v && dist.interface[c]) adj[i].push_back(c);
      }
      graph.derive_peers(r, i);
    }
    ctx.charge_mem(scanned * sizeof(idx));
  }, "pilu0/color/setup");
  }

  std::vector<IdxVec> classes;  // color classes (global ids)
  std::vector<std::uint8_t> in_class(n, 0);  // stamp of the class at hand
  {
    sim::ScopedPhase color_span(machine, "factor/color");
    DistMisScratch mis_scratch;
    long long uncolored = run.remaining;
    while (uncolored > 0) {
      IdxVec cls = mis_dist(machine, graph,
                            {.seed = 97 + classes.size(), .rounds = 64}, &mis_scratch);
      PTILU_CHECK(!cls.empty(), "coloring stalled");
      uncolored -= static_cast<long long>(cls.size());
      // Strip the class from the residual graph, keeping the order of what
      // remains: mis_dist's modeled comparison counts depend on the order
      // of adjacency entries. A vertex that lost neighbors re-derives its
      // peer list, so no notice goes to a rank it no longer borders.
      // Earlier classes are already gone, so only this class needs a stamp.
      for (const idx v : cls) in_class[v] = 1;
      for (int r = 0; r < nranks; ++r) {
        IdxVec& verts = graph.verts_of[r];
        std::vector<IdxVec>& vadj = graph.adj[r];
        std::vector<std::vector<int>>& vpeers = graph.peers[r];
        std::size_t kept = 0;
        for (std::size_t i = 0; i < verts.size(); ++i) {
          if (in_class[verts[i]]) continue;
          const bool stripped =
              std::erase_if(vadj[i], [&](idx u) { return in_class[u] != 0; }) > 0;
          verts[kept] = verts[i];
          std::swap(vadj[kept], vadj[i]);  // keeps the lists' capacity
          std::swap(vpeers[kept], vpeers[i]);
          if (stripped) graph.derive_peers(r, kept);
          ++kept;
        }
        verts.resize(kept);
        vadj.resize(kept);
        vpeers.resize(kept);
      }
      for (const idx v : cls) in_class[v] = 0;
      classes.push_back(std::move(cls));
    }
  }

  // Number the classes rank-major and record the level boundaries.
  {
  sim::ScopedPhase span(machine, "factor/number");
  std::vector<IdxVec> by_rank(nranks);
  for (const auto& cls : classes) {
    for (IdxVec& rows : by_rank) rows.clear();
    for (const idx v : cls) by_rank[dist.owner[v]].push_back(v);
    for (int r = 0; r < nranks; ++r) {
      for (const idx v : by_rank[r]) sched.newnum[v] = run.next_num++;
    }
    sched.level_start.push_back(run.next_num);
    machine.collective(static_cast<std::uint64_t>(cls.size()) * sizeof(idx) / nranks +
                       sizeof(idx), "pilu0/number");
  }
  }
  run.result.stats.levels = static_cast<int>(classes.size());

  // ================== Factor the interface rows class by class ============
  pilut_detail::UrowExchange exchange(run);
  sim::ScopedPhase interface_phase(machine, "factor/interface");
  for (std::size_t l = 0; l < classes.size(); ++l) {
    // Interior rows and earlier classes are numbered before this class.
    const idx class_begin = sched.level_start[l];
    const auto factored = [&](idx c) { return sched.newnum[c] < class_begin; };
    for (const idx v : classes[l]) in_class[v] = 1;

    // Exchange the remote U rows this class's eliminations need: row i in
    // the class references factored interface columns (pattern-static, so
    // requests are known a priori).
    exchange.exchange(
        [&](int r, auto&& need) {
          for (const idx i : active[r]) {
            if (!in_class[i]) continue;
            for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
              const idx c = a.col_idx[k];
              if (dist.interface[c] && factored(c)) need(c);
            }
          }
        },
        "pilu0/exchange/request", "pilu0/exchange/reply");
    {
    sim::ScopedPhase span(machine, "factor");
    machine.step([&](sim::RankContext& ctx) {
      const auto urow_of = exchange.receive(ctx);
      Lane& lane = run.lane(ctx);
      std::uint64_t flops = 0;
      pilut_detail::FillDropTally tally;
      IdxVec factored_cols;
      for (const idx i : active[ctx.rank()]) {
        if (!in_class[i]) continue;
        factored_cols.clear();
        for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
          const idx c = a.col_idx[k];
          if (c != i && factored(c)) factored_cols.push_back(c);
        }
        // Ascending new number: local interiors first (ascending orig id),
        // then earlier-class interface columns by their assigned number.
        std::sort(factored_cols.begin(), factored_cols.end(), [&](idx x, idx y) {
          return sched.newnum[x] < sched.newnum[y];
        });
        flops += factor_row(lane, i, factored_cols, urow_of, tally);
        split_row(lane, i, factored, tally);
      }
      ctx.charge_flops(flops);
      run.commit(ctx, tally);
    }, "pilu0/factor_class");
    }
    run.retire(in_class);
  }
  return run.finish("pilu0/end", dist.owner);
}

}  // namespace ptilu
