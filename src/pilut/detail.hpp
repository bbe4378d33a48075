// Pieces shared by the parallel factorizations (PILUT, PILUT-nested, PILU0):
// the driver skeleton (FactorRun), the U-row exchange (UrowExchange), the
// row finishers, and the interior and initial-reduction phases. Each piece
// exists once; the drivers keep only what differs between them (how the
// interface rows are ordered into levels). DESIGN.md §19.
#pragma once

#include <algorithm>
#include <cmath>
#include <string_view>

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/ilu/factor_scratch.hpp"
#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/pivot.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu::pilut_detail {

/// Fill/drop tally a rank body accumulates while factoring its rows:
/// `fill` counts entries created beyond a row's original pattern by the
/// elimination updates; `dropped` counts entries discarded by the dropping
/// rules (1st rule in eliminate_cascading, 2nd/3rd rules and tail caps via
/// select_largest at the call sites). Body-local so the threaded backend
/// never shares a tally; committed per rank through FactorRun::commit.
struct FillDropTally {
  std::uint64_t fill = 0;
  std::uint64_t dropped = 0;
  std::uint64_t guarded = 0;  ///< safeguarded pivot substitutions (pivot.hpp)
};

/// The per-rank fill/drop counter registration for a factorization driver
/// (a no-op carrier when the machine has no metrics collector). Register
/// once on the main thread before the steps, commit per rank inside them.
struct FactorCounters {
  sim::Metrics* metrics = nullptr;
  std::uint32_t fill = 0;
  std::uint32_t dropped = 0;
  std::uint32_t guarded = 0;

  void commit(int rank, const FillDropTally& tally) const {
    if (metrics == nullptr) return;
    metrics->add_counter(fill, rank, tally.fill);
    metrics->add_counter(dropped, rank, tally.dropped);
    metrics->add_counter(guarded, rank, tally.guarded);
  }
};

/// Shared state of a parallel factorization, indexed by ORIGINAL row ids.
/// Rank bodies write only slots they own, so concurrent ranks never touch
/// the same element.
struct FactorState {
  std::vector<SparseRow> lrows;  // final L rows (factored columns, orig ids)
  std::vector<SparseRow> urows;  // final U rows (diag first: the pivot is vals[0])
  std::vector<SparseRow> tails;  // reduced-matrix rows of unfactored interface
                                 // rows; sized by run_initial_reduction

  explicit FactorState(idx n) : lrows(n), urows(n) {}
};

/// Per-lane working storage for rank bodies. Sequential backend: one lane,
/// shared by the ranks as they run one after another (exactly the seed
/// behavior). Threaded backend: one lane per rank, so bodies never share
/// mutable scratch. Results are identical either way — every field is
/// cleared between rows, and the stat fields are integer partials whose
/// merge (sum / max) is order-independent.
struct Lane {
  WorkingRow w;
  FactorScratch scratch;
  std::uint64_t pivots_guarded = 0;
  nnz_t max_reduced_row = 0;

  explicit Lane(idx n) : w(n) {}
};

/// The skeleton every factor driver runs in. The constructor is the
/// prologue: rank check, machine reset, row norms, the rejection of a
/// non-finite A, the rank-major interior numbering, and the per-rank lists
/// of interface rows. finish() is the epilogue: lane stats, machine
/// totals, the schedule's inverse maps, the CSR factors, and validation.
struct FactorRun {
  sim::Machine& machine;
  const DistCsr& dist;
  const RealVec norms;  ///< A's row 2-norms (drop tolerances, pivot guard)
  PilutResult result;
  FactorState state;
  std::vector<Lane> lanes;  ///< machine.scratch_lanes() lanes (see Lane)
  FactorCounters counters;
  /// Per rank: its interface rows not factored yet, ascending original id
  /// (nested migration re-sorts them).
  std::vector<IdxVec> active;
  long long remaining = 0;  ///< total length of `active`
  idx next_num = 0;         ///< next new number to hand out

  FactorRun(sim::Machine& m, const DistCsr& d);

  Lane& lane(const sim::RankContext& ctx) {
    return lanes[static_cast<std::size_t>(ctx.lane())];
  }

  /// Commit a rank body's tally to the metrics counters and its lane.
  void commit(const sim::RankContext& ctx, const FillDropTally& tally) {
    lane(ctx).pivots_guarded += tally.guarded;
    counters.commit(ctx.rank(), tally);
  }

  /// Drop the rows marked in `done` from `active`, keeping the order of
  /// the rest, and clear their marks.
  void retire(std::vector<std::uint8_t>& done);

  /// The epilogue. `host[i]` is the rank that factored row i.
  PilutResult finish(std::string_view end_site, const IdxVec& host);
};

/// select_largest with the dropped entries tallied.
inline void keep_largest(SparseRow& row, idx count, real tau, idx always_keep,
                         FactorScratch& scratch, FillDropTally& tally) {
  const std::size_t before = row.size();
  select_largest(row, count, tau, always_keep, scratch.kept);
  tally.dropped += before - row.size();
}

/// Cascading elimination of the working row against factored rows chosen by
/// the `eliminatable` predicate; the heap orders columns by the comparator
/// key (original id for interior phases, assigned new number for nested
/// interface blocks — the caller pre-seeds the heap accordingly). Applies
/// the 1st dropping rule, tallying fill-in and rule-1 drops. Returns the
/// flop count.
template <typename Eliminatable, typename Compare>
std::uint64_t eliminate_cascading(WorkingRow& w, FactorState& state, real tau_i,
                                  PooledHeap<Compare>& heap,
                                  Eliminatable&& eliminatable,
                                  FillDropTally& tally) {
  std::uint64_t flops = 0;
  while (!heap.empty()) {
    const idx k = heap.pop();
    const SparseRow& urow = state.urows[k];
    const real multiplier = w.value(k) / urow.vals[0];  // diag stored first
    ++flops;
    if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
      w.set(k, 0.0);
      ++tally.dropped;
      continue;
    }
    w.set(k, multiplier);
    // The update loop below skips the stored diagonal, so charge only the
    // strictly-upper entries (2 flops each) — keeps the simulated Mflop
    // rate in agreement with the serial ilut() accounting.
    flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
    for (std::size_t p = 1; p < urow.size(); ++p) {  // skip stored diagonal
      const idx c = urow.cols[p];
      const real update = -multiplier * urow.vals[p];
      if (w.present(c)) {
        w.accumulate(c, update);
      } else {
        w.insert(c, update);
        ++tally.fill;
        if (eliminatable(c)) heap.push(c);
      }
    }
  }
  return flops;
}

/// Finish pivot row i from the lane's eliminated working row: columns
/// `is_lower` accepts are its L multipliers (zeros skipped), the others
/// but i its U part; each side keeps its m largest above the drop
/// tolerance (2nd rule), the pivot is safeguarded, and L and U are stored.
/// Clears the working row.
template <typename IsLower>
void finish_pivot_row(FactorRun& run, Lane& lane, idx i, const PilutOptions& opts,
                      IsLower&& is_lower, FillDropTally& tally) {
  WorkingRow& w = lane.w;
  SparseRow& lstage = lane.scratch.lstage;
  SparseRow& ustage = lane.scratch.ustage;
  lstage.clear();
  ustage.clear();
  real diag = 0.0;
  for (const idx c : w.touched()) {
    const real v = w.value(c);
    if (c == i) {
      diag = v;
    } else if (is_lower(c)) {
      if (v != 0.0) lstage.push(c, v);
    } else {
      ustage.push(c, v);
    }
  }
  const real tau_i = opts.tau * run.norms[i];
  keep_largest(lstage, opts.m, tau_i, -1, lane.scratch, tally);
  keep_largest(ustage, opts.m, tau_i, -1, lane.scratch, tally);
  diag = safeguard_pivot(i, diag,
                         opts.pivot_rel > 0.0 ? opts.pivot_rel * run.norms[i] : 0.0,
                         tally.guarded);
  run.state.lrows[i].cols = lstage.cols;  // exact-sized survivor copies
  run.state.lrows[i].vals = lstage.vals;
  emit_urow(run.state.urows[i], i, diag, ustage);
  w.clear();
}

/// Rebuild row i's reduced row from the lane's working row, skipping the
/// columns `eliminated` accepts; ILUT* caps it at cap_k·m entries (the
/// diagonal always stays) and the lane records its size. Clears the
/// working row. Returns the bytes copied into the reduced row.
template <typename Eliminated>
std::uint64_t rebuild_tail(FactorRun& run, Lane& lane, idx i, const PilutOptions& opts,
                           Eliminated&& eliminated, FillDropTally& tally) {
  WorkingRow& w = lane.w;
  SparseRow& tail = run.state.tails[i];
  tail.clear();
  for (const idx c : w.touched()) {
    if (!eliminated(c)) tail.push(c, w.value(c));
  }
  if (opts.cap_k > 0) {
    keep_largest(tail, opts.cap_k * opts.m, 0.0, i, lane.scratch, tally);
  }
  lane.max_reduced_row = std::max(lane.max_reduced_row, static_cast<nnz_t>(tail.size()));
  w.clear();
  return tail.size() * (sizeof(idx) + sizeof(real));
}

/// The U-row exchange of the interface phases. In two supersteps under
/// the "exchange" phase, every rank requests the remote U rows its next
/// step needs and their owners reply; the next step calls receive() first
/// to decode the replies. Scratch is pooled per lane (see Lane) and keeps
/// its capacity across levels.
class UrowExchange {
  struct LaneScratch {
    std::vector<IdxVec> requests;  // peer -> requested rows
    IdxVec cols;                   // concatenated U-row column payloads
    RealVec vals;                  // concatenated U-row value payloads
    // Received U rows, pooled: a dense row -> slot map plus a slab of
    // reusable SparseRows (assign() keeps their capacity level over level).
    IdxVec slot;                   // -1 when the row was not received
    std::vector<SparseRow> pool;
    IdxVec bound;                  // rows whose slot is currently set
  };
  static constexpr int kTagRequest = 10;
  static constexpr int kTagCols = 11;
  static constexpr int kTagVals = 12;

 public:
  explicit UrowExchange(FactorRun& run);

  /// `visit(r, need)` calls `need(k)` for every U row k that rank r's next
  /// step reads; the rows other ranks own are requested, each once.
  /// `request_site`/`reply_site` name the two steps.
  template <typename Visit>
  void exchange(Visit&& visit, std::string_view request_site,
                std::string_view reply_site) {
    sim::Machine& machine = run_.machine;
    const IdxVec& owner = run_.dist.owner;
    sim::ScopedPhase span(machine, "exchange");
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      std::vector<IdxVec>& requests = scratch(ctx).requests;
      visit(r, [&](idx k) {
        if (owner[k] != r) requests[owner[k]].push_back(k);
      });
      for (int peer = 0; peer < run_.dist.nranks; ++peer) {
        IdxVec& rows = requests[peer];
        if (rows.empty()) continue;
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        ctx.send_indices(peer, kTagRequest, rows);
        rows.clear();
      }
    }, request_site);
    machine.step([&](sim::RankContext& ctx) {
      LaneScratch& ls = scratch(ctx);
      for (const sim::MessageView& msg : ctx.recv_all()) {
        PTILU_CHECK(msg.tag == kTagRequest,
                    "unexpected tag " << msg.tag << " in U-row request");
        ls.cols.clear();
        ls.vals.clear();
        const std::size_t count = sim::payload_count<idx>(msg);
        for (std::size_t t = 0; t < count; ++t) {
          const idx row = sim::payload_at<idx>(msg, t);
          const SparseRow& urow = run_.state.urows[row];
          ls.cols.push_back(row);
          ls.cols.push_back(static_cast<idx>(urow.size()));
          ls.cols.insert(ls.cols.end(), urow.cols.begin(), urow.cols.end());
          ls.vals.insert(ls.vals.end(), urow.vals.begin(), urow.vals.end());
        }
        ctx.send_indices(msg.from, kTagCols, ls.cols);
        ctx.send_reals(msg.from, kTagVals, ls.vals);
      }
    }, reply_site);
  }

  /// U row k as one rank's step sees it: its own row, or a received one.
  struct Rows {
    const FactorRun& run;
    int rank;
    const LaneScratch& ls;

    const SparseRow& operator()(idx k) const {
      if (run.dist.owner[k] == rank) return run.state.urows[k];
      PTILU_CHECK(ls.slot[k] >= 0, "missing remote U row " << k);
      return ls.pool[ls.slot[k]];
    }
  };

  /// Decode the replies to this rank's requests (call first in the step
  /// after exchange()). The rows stay valid until the lane's next receive.
  Rows receive(sim::RankContext& ctx);

 private:
  LaneScratch& scratch(const sim::RankContext& ctx) {
    return lanes_[static_cast<std::size_t>(ctx.lane())];
  }

  FactorRun& run_;
  std::vector<LaneScratch> lanes_;
};

/// Phase 1 of every ILUT driver: each rank ILUT-factors its interior rows
/// (communication-free), in the numbering the prologue assigned.
void run_interior_phase(FactorRun& run, const PilutOptions& opts);

/// Phase 1b: interface rows eliminate their local interior columns, forming
/// the initial reduced rows (tails), capped for ILUT*.
void run_initial_reduction(FactorRun& run, const PilutOptions& opts);

}  // namespace ptilu::pilut_detail
