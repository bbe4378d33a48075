#include "detail.hpp"

#include <algorithm>

#include "ptilu/ilu/ilut.hpp"

namespace ptilu::pilut_detail {

namespace {

/// Renumber per-original-row factor rows into the new ordering and build
/// the final CSR factors (L strictly lower sorted, U diag-first sorted).
void assemble_factors(const std::vector<SparseRow>& lrows,
                      const std::vector<SparseRow>& urows, const IdxVec& newnum,
                      IluFactors& out) {
  const idx n = static_cast<idx>(newnum.size());
  std::vector<SparseRow> lnew(n), unew(n);
  std::vector<std::pair<idx, real>> entries;
  for (idx orig = 0; orig < n; ++orig) {
    const idx row = newnum[orig];
    entries.clear();
    for (std::size_t p = 0; p < lrows[orig].size(); ++p) {
      entries.emplace_back(newnum[lrows[orig].cols[p]], lrows[orig].vals[p]);
    }
    std::sort(entries.begin(), entries.end());
    lnew[row].cols.reserve(entries.size());
    lnew[row].vals.reserve(entries.size());
    for (const auto& [c, v] : entries) {
      PTILU_ASSERT(c < row, "L entry not below the diagonal after renumbering");
      lnew[row].push(c, v);
    }
    entries.clear();
    for (std::size_t p = 0; p < urows[orig].size(); ++p) {
      entries.emplace_back(newnum[urows[orig].cols[p]], urows[orig].vals[p]);
    }
    std::sort(entries.begin(), entries.end());
    unew[row].cols.reserve(entries.size());
    unew[row].vals.reserve(entries.size());
    for (const auto& [c, v] : entries) unew[row].push(c, v);
  }
  out.l = rows_to_csr(n, lnew);
  out.u = rows_to_csr(n, unew);
}

}  // namespace

FactorRun::FactorRun(sim::Machine& m, const DistCsr& d)
    : machine(m), dist(d), norms(row_norms(d.a, 2)), state(d.n()) {
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  machine.reset();
  const idx n = dist.n();
  for (idx i = 0; i < n; ++i) {
    if (!std::isfinite(norms[i])) check_finite_row(dist.a, i);
  }
  for (int i = 0; i < machine.scratch_lanes(); ++i) lanes.emplace_back(n);
  counters.metrics = machine.metrics();
  if (counters.metrics != nullptr) {
    counters.fill = counters.metrics->counter_id("factor/fill");
    counters.dropped = counters.metrics->counter_id("factor/dropped");
    counters.guarded = counters.metrics->counter_id("factor/pivots_guarded");
  }

  PilutSchedule& sched = result.schedule;
  sched.nranks = dist.nranks;
  sched.newnum.assign(n, -1);
  sched.interior_range.resize(dist.nranks);
  active.resize(dist.nranks);
  for (int r = 0; r < dist.nranks; ++r) {
    const idx begin = next_num;
    for (const idx v : dist.owned_rows[r]) {
      if (dist.interface[v]) {
        active[r].push_back(v);
      } else {
        sched.newnum[v] = next_num++;
      }
    }
    sched.interior_range[r] = {begin, next_num};
    remaining += static_cast<long long>(active[r].size());
  }
  sched.n_interior = next_num;
  sched.level_start.push_back(next_num);
  result.stats.interface_nodes = n - next_num;
}

void FactorRun::retire(std::vector<std::uint8_t>& done) {
  for (IdxVec& rows : active) {
    std::size_t kept = 0;
    for (const idx v : rows) {
      if (done[v]) {
        done[v] = 0;
      } else {
        rows[kept++] = v;
      }
    }
    remaining -= static_cast<long long>(rows.size() - kept);
    rows.resize(kept);
  }
}

PilutResult FactorRun::finish(std::string_view end_site, const IdxVec& host) {
  const idx n = dist.n();
  PTILU_CHECK(next_num == n, "numbering did not cover all rows");
  machine.check_quiescent(end_site);

  PilutStats& stats = result.stats;
  for (Lane& lane : lanes) {
    stats.pivots_guarded += lane.pivots_guarded;
    stats.max_reduced_row = std::max(stats.max_reduced_row, lane.max_reduced_row);
  }
  stats.time_interface = machine.modeled_time() - stats.time_interior;
  stats.time_total = machine.modeled_time();
  const auto totals = machine.total_counters();
  stats.flops = totals.flops;
  stats.bytes_sent = totals.bytes_sent;
  stats.messages = totals.messages_sent;
  stats.supersteps = machine.supersteps();

  PilutSchedule& sched = result.schedule;
  sched.orig_of = invert_permutation(sched.newnum);
  sched.owner_new.resize(n);
  for (idx i = 0; i < n; ++i) sched.owner_new[sched.newnum[i]] = host[i];
  assemble_factors(state.lrows, state.urows, sched.newnum, result.factors);
  result.factors.validate();
  sched.validate();
  return std::move(result);
}

UrowExchange::UrowExchange(FactorRun& run) : run_(run) {
  lanes_.resize(run.lanes.size());
  for (LaneScratch& ls : lanes_) {
    ls.requests.resize(static_cast<std::size_t>(run.dist.nranks));
    ls.slot.assign(static_cast<std::size_t>(run.dist.n()), -1);
  }
}

UrowExchange::Rows UrowExchange::receive(sim::RankContext& ctx) {
  LaneScratch& ls = scratch(ctx);
  // Release this lane's previous bindings, then reassemble this rank's
  // received rows into pooled slots.
  for (const idx row : ls.bound) ls.slot[row] = -1;
  ls.bound.clear();
  ls.cols.clear();
  ls.vals.clear();
  // Called first in the caller's phased step. ptilu-lint: allow(spmd-phase-coverage)
  for (const sim::MessageView& msg : ctx.recv_all()) {
    if (msg.tag == kTagCols) {
      sim::decode_indices_append(msg, ls.cols);
    } else {
      PTILU_CHECK(msg.tag == kTagVals, "unexpected tag " << msg.tag << " in U-row reply");
      sim::decode_reals_append(msg, ls.vals);
    }
  }
  std::size_t vpos = 0;
  for (std::size_t p = 0; p < ls.cols.size();) {
    const idx row = ls.cols[p++];
    const idx len = ls.cols[p++];
    const idx slot = static_cast<idx>(ls.bound.size());
    if (static_cast<std::size_t>(slot) == ls.pool.size()) ls.pool.emplace_back();
    SparseRow& urow = ls.pool[slot];
    urow.cols.assign(ls.cols.begin() + p, ls.cols.begin() + p + len);
    urow.vals.assign(ls.vals.begin() + vpos, ls.vals.begin() + vpos + len);
    ls.slot[row] = slot;
    ls.bound.push_back(row);
    p += len;
    vpos += len;
  }
  return Rows{run_, ctx.rank(), ls};
}

void run_interior_phase(FactorRun& run, const PilutOptions& opts) {
  const DistCsr& dist = run.dist;
  const Csr& a = dist.a;
  sim::ScopedPhase phase(run.machine, "factor/interior");
  run.machine.step([&](sim::RankContext& ctx) {
    Lane& lane = run.lane(ctx);
    std::uint64_t flops = 0;
    FillDropTally tally;
    for (const idx i : dist.owned_rows[ctx.rank()]) {
      if (dist.interface[i]) continue;
      // Interface columns and larger interior columns are all U-side:
      // every interface column is numbered after every interior one.
      const auto eliminatable = [&](idx c) { return c < i && !dist.interface[c]; };
      ColumnHeap heap = make_column_heap(lane.scratch.heap);
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        lane.w.insert(c, a.values[k]);
        if (eliminatable(c)) heap.push(c);  // columns are local by definition
      }
      flops += eliminate_cascading(lane.w, run.state, opts.tau * run.norms[i], heap,
                                   eliminatable, tally);
      finish_pivot_row(run, lane, i, opts, eliminatable, tally);
    }
    ctx.charge_flops(flops);
    run.commit(ctx, tally);
  }, "pilut/interior");
  run.result.stats.time_interior = run.machine.modeled_time();
}

void run_initial_reduction(FactorRun& run, const PilutOptions& opts) {
  const DistCsr& dist = run.dist;
  const Csr& a = dist.a;
  run.state.tails.resize(static_cast<std::size_t>(dist.n()));
  const auto factored = [&](idx c) { return !dist.interface[c]; };
  sim::ScopedPhase phase(run.machine, "factor/interface/form_reduced");
  run.machine.step([&](sim::RankContext& ctx) {
    Lane& lane = run.lane(ctx);
    WorkingRow& w = lane.w;
    std::uint64_t flops = 0, copied = 0;
    FillDropTally tally;
    for (const idx i : dist.owned_rows[ctx.rank()]) {
      if (!dist.interface[i]) continue;
      const real tau_i = opts.tau * run.norms[i];
      ColumnHeap heap = make_column_heap(lane.scratch.heap);
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        w.insert(c, a.values[k]);
        if (factored(c)) heap.push(c);  // interior => local => factored
      }
      if (!w.present(i)) w.insert(i, 0.0);  // keep the diagonal structurally
      flops += eliminate_cascading(w, run.state, tau_i, heap, factored, tally);

      // Factored (interior) columns -> L, under the 3rd dropping rule; the
      // unfactored interface columns (incl. the diagonal) form the tail.
      SparseRow& lstage = lane.scratch.lstage;
      lstage.clear();
      for (const idx c : w.touched()) {
        if (factored(c) && w.value(c) != 0.0) lstage.push(c, w.value(c));
      }
      keep_largest(lstage, opts.m, tau_i, -1, lane.scratch, tally);
      run.state.lrows[i].cols = lstage.cols;
      run.state.lrows[i].vals = lstage.vals;
      copied += rebuild_tail(run, lane, i, opts, factored, tally);
    }
    ctx.charge_flops(flops);
    ctx.charge_mem(copied);
    run.commit(ctx, tally);
  }, "pilut/form_reduced");
}

}  // namespace ptilu::pilut_detail
