#include "ptilu/pilut/trisolve_dist.hpp"

#include <algorithm>
#include <limits>
#include <ranges>
#include <span>
#include <utility>

#include "ptilu/ilu/block_kernels.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

constexpr int kTagIdx = 20;
constexpr int kTagVal = 21;

/// Position of entry i of column c among column-major vectors of length n.
std::size_t at(int c, std::size_t n, idx i) {
  return static_cast<std::size_t>(c) * n + static_cast<std::size_t>(i);
}

/// One row of a substitution over k right-hand sides stored column-major
/// with stride n: acc = in[i] - sum_p m[p] * (slot[p] < 0 ? out[col] :
/// ghost[slot[p]]) over the row's nonzeros in order, then out[i] = acc (L)
/// or acc / pivot (U, whose first entry is the pivot). K > 0 fixes the
/// width at compile time (the single-RHS solves use K = 1); K == 0 takes
/// it from k. Per column the operations are exactly a single-RHS solve's.
template <int K>
void solve_row(const Csr& m, const IdxVec& slot, bool upper, idx i, const real* in,
               real* out, std::size_t n, const real* ghost, int k, real* scratch) {
  real fixed[K > 0 ? K : 1];
  real* acc = K > 0 ? fixed : scratch;
  const int w = K > 0 ? K : k;
  for (int c = 0; c < w; ++c) acc[c] = in[at(c, n, i)];
  const nnz_t start = m.row_ptr[i];
  for (nnz_t p = upper ? start + 1 : start; p < m.row_ptr[i + 1]; ++p) {
    const idx s = slot[p];
    const real* src =
        s < 0 ? out + m.col_idx[p] : ghost + static_cast<std::size_t>(s) * w;
    const std::size_t stride = s < 0 ? n : 1;
    if constexpr (K > 0) {
      rhs_axpy<K>(acc, m.values[p], src, stride);
    } else {
      rhs_axpy_any(k, acc, m.values[p], src, stride);
    }
  }
  const real pivot = upper ? m.values[start] : 1.0;
  for (int c = 0; c < w; ++c) out[at(c, n, i)] = upper ? acc[c] / pivot : acc[c];
}

/// Per-call state of one sweep: one dense ghost region per rank over the
/// plan's ghost columns (NaN until drained, so a value the plan failed to
/// deliver cannot be read silently as a stale one) and one scratch lane per
/// Machine::scratch_lanes() — the values of one outbound message, then k
/// row accumulators — plus the sweep's receive and send halves.
class CallState {
 public:
  CallState(const sim::Machine& machine, const IdxVec& ghost_col,
            const std::vector<std::size_t>& ghost_ptr, std::size_t max_send_rows, int k)
      : ghost_col_(ghost_col),
        ghost_ptr_(ghost_ptr),
        k_(k),
        acc_offset_(max_send_rows * static_cast<std::size_t>(k)),
        lane_size_(acc_offset_ + static_cast<std::size_t>(k)),
        ghost_(ghost_col.size() * static_cast<std::size_t>(k),
               std::numeric_limits<real>::quiet_NaN()),
        lanes_(lane_size_ * static_cast<std::size_t>(machine.scratch_lanes())) {}

  real* acc(const sim::RankContext& ctx) { return lane(ctx) + acc_offset_; }
  real* ghost(int r) { return ghost_.data() + ghost_ptr_[r] * k_; }

  /// Drain the step's inbound (rows, values) message pairs straight into
  /// the rank's ghost region: each received row is located among the
  /// rank's ascending ghost columns, and its k values land in that slot.
  void drain(sim::RankContext& ctx) {
    const int r = ctx.rank();
    const auto first = ghost_col_.begin() + static_cast<std::ptrdiff_t>(ghost_ptr_[r]);
    const auto last = ghost_col_.begin() + static_cast<std::ptrdiff_t>(ghost_ptr_[r + 1]);
    // Called only from the solver's per-level ScopedPhase (phase inherited
    // from the caller). ptilu-lint: allow(spmd-phase-coverage)
    const std::span<const sim::MessageView> inbox = ctx.recv_all();
    for (std::size_t m = 0; m < inbox.size(); m += 2) {
      const sim::MessageView& rows = inbox[m];
      PTILU_CHECK(rows.tag == kTagIdx && m + 1 < inbox.size() &&
                      inbox[m + 1].tag == kTagVal && inbox[m + 1].from == rows.from,
                  "unexpected message in triangular solve");
      const sim::MessageView& vals = inbox[m + 1];
      const std::size_t count = sim::payload_count<idx>(rows);
      PTILU_CHECK(sim::payload_count<real>(vals) == count * static_cast<std::size_t>(k_),
                  "ghost batch mismatch: " << count << " indices, "
                                           << sim::payload_count<real>(vals)
                                           << " values, k=" << k_);
      for (std::size_t t = 0; t < count; ++t) {
        const idx j = sim::payload_at<idx>(rows, t);
        const auto it = std::lower_bound(first, last, j);
        PTILU_CHECK(it != last && *it == j,
                    "rank " << r << " received row " << j
                            << ", which none of its rows reads");
        real* slot = ghost(r) + static_cast<std::size_t>(it - first) * k_;
        for (int c = 0; c < k_; ++c) slot[c] = sim::payload_at<real>(vals, t * k_ + c);
      }
    }
  }

  /// Post the step's planned messages: per peer, the rows, then their k
  /// values each.
  template <typename Sends>
  void ship(sim::RankContext& ctx, const Sends& sends, const real* x, std::size_t n) {
    real* values = lane(ctx);
    for (const auto& send : sends) {
      std::size_t count = 0;
      for (const idx i : send.rows) {
        for (int c = 0; c < k_; ++c) values[count++] = x[at(c, n, i)];
      }
      // Every call site sits inside the solver's per-level ScopedPhase; the
      // phase is inherited lexically by the caller, not here.
      // ptilu-lint: allow(spmd-phase-coverage)
      ctx.send_indices(send.peer, kTagIdx, send.rows);
      // ptilu-lint: allow(spmd-phase-coverage)
      ctx.send_reals(send.peer, kTagVal, std::span<const real>(values, count));
    }
  }

 private:
  real* lane(const sim::RankContext& ctx) {
    return lanes_.data() + static_cast<std::size_t>(ctx.lane()) * lane_size_;
  }

  const IdxVec& ghost_col_;
  const std::vector<std::size_t>& ghost_ptr_;
  int k_;
  std::size_t acc_offset_;
  std::size_t lane_size_;
  RealVec ghost_;
  RealVec lanes_;
};

}  // namespace

DistTriangularSolver::Plan DistTriangularSolver::build_plan(const Csr& m,
                                                            bool upper) const {
  const PilutSchedule& sched = *schedule_;
  const int p = sched.nranks;
  const idx n = m.n_rows;
  const auto first_entry = [&](idx i) { return upper ? m.row_ptr[i] + 1 : m.row_ptr[i]; };
  Plan plan;
  plan.slot.assign(static_cast<std::size_t>(m.nnz()), -1);
  plan.ghost_ptr.assign(static_cast<std::size_t>(p) + 1, 0);

  const int q = sched.levels();
  // Rank r's rows: its interior block, then its rows of each level.
  const auto for_rows_of = [&](int r, auto&& fn) {
    const auto [begin, end] = sched.interior_range[r];
    for (idx i = begin; i < end; ++i) fn(i);
    for (int level = 0; level < q; ++level) {
      for (const idx i : rows_of_level_[level][r]) fn(i);
    }
  };

  // Ghosts: the distinct remote columns each rank's rows read, ascending.
  // A row may reference any column of another rank: with the plain PILUT
  // schedule only interface columns cross ranks, but the nested variant
  // migrates interface rows, so interior columns can have remote readers.
  // One pass per rank numbers its ghosts in first-read order (`position`)
  // and records the remote entries; sorting the ghosts then renumbers
  // just those entries.
  IdxVec position(static_cast<std::size_t>(n), -1);
  std::vector<nnz_t> remote;
  std::vector<std::pair<idx, idx>> order;  // (column, first-read number)
  IdxVec renumber;
  for (int r = 0; r < p; ++r) {
    remote.clear();
    order.clear();
    for_rows_of(r, [&](idx i) {
      for (nnz_t e = first_entry(i); e < m.row_ptr[i + 1]; ++e) {
        const idx j = m.col_idx[e];
        if (sched.owner_new[j] == r) continue;
        if (position[j] < 0) {
          position[j] = static_cast<idx>(order.size());
          order.emplace_back(j, position[j]);
        }
        plan.slot[e] = position[j];
        remote.push_back(e);
      }
    });
    std::sort(order.begin(), order.end());
    renumber.resize(order.size());
    for (std::size_t g = 0; g < order.size(); ++g) {
      const auto [col, first] = order[g];
      plan.ghost_col.push_back(col);
      renumber[first] = static_cast<idx>(g);
      position[col] = -1;
    }
    for (const nnz_t e : remote) plan.slot[e] = renumber[plan.slot[e]];
    plan.ghost_ptr[r + 1] = plan.ghost_col.size();
  }

  // Readers of each column, ascending rank: a counting sort of the ghosts.
  std::vector<std::size_t> reader_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (const idx j : plan.ghost_col) ++reader_ptr[static_cast<std::size_t>(j) + 1];
  for (idx j = 0; j < n; ++j) reader_ptr[j + 1] += reader_ptr[j];
  std::vector<int> reader(plan.ghost_col.size());
  {
    std::vector<std::size_t> fill(reader_ptr.begin(), reader_ptr.end() - 1);
    for (int r = 0; r < p; ++r) {
      for (std::size_t g = plan.ghost_ptr[r]; g < plan.ghost_ptr[r + 1]; ++g) {
        reader[fill[plan.ghost_col[g]]++] = r;
      }
    }
  }

  // Sends: after computing a step, a rank ships each computed row to every
  // reader, batched per peer in ascending peer order, rows in row order.
  // The backward interior step ships nothing: no later step reads it.
  plan.sends.resize(static_cast<std::size_t>(q + 1) * static_cast<std::size_t>(p));
  std::vector<IdxVec> by_peer(static_cast<std::size_t>(p));
  std::vector<int> peers;
  const auto plan_step = [&](int step, int r, const auto& rows) {
    for (const idx i : rows) {
      for (std::size_t e = reader_ptr[i]; e < reader_ptr[i + 1]; ++e) {
        IdxVec& batch = by_peer[reader[e]];
        if (batch.empty()) peers.push_back(reader[e]);
        batch.push_back(i);
      }
    }
    std::sort(peers.begin(), peers.end());
    auto& out = plan.sends[static_cast<std::size_t>(step) * p + r];
    for (const int peer : peers) {
      out.push_back(Send{peer, std::exchange(by_peer[peer], {})});
    }
    peers.clear();
  };
  for (int r = 0; r < p && !upper; ++r) {
    const auto [begin, end] = sched.interior_range[r];
    plan_step(0, r, std::views::iota(begin, end));
  }
  for (int level = 0; level < q; ++level) {
    for (int r = 0; r < p; ++r) plan_step(level + 1, r, rows_of_level_[level][r]);
  }
  for (const auto& sends : plan.sends) {
    for (const Send& send : sends) {
      plan.max_send_rows = std::max(plan.max_send_rows, send.rows.size());
    }
  }
  return plan;
}

DistTriangularSolver::DistTriangularSolver(const IluFactors& factors,
                                           const PilutSchedule& schedule)
    : factors_(&factors), schedule_(&schedule) {
  const idx n = factors.n();
  PTILU_CHECK(static_cast<std::size_t>(n) == schedule.newnum.size(),
              "factors/schedule size mismatch");
  const int q = schedule.levels();
  rows_of_level_.assign(q, std::vector<IdxVec>(schedule.nranks));
  for (int level = 0; level < q; ++level) {
    for (idx i = schedule.level_start[level]; i < schedule.level_start[level + 1]; ++i) {
      rows_of_level_[level][schedule.owner_new[i]].push_back(i);
    }
  }
  fwd_ = build_plan(factors.l, false);
  bwd_ = build_plan(factors.u, true);
}

void DistTriangularSolver::check_plan(const sim::Machine& machine) const {
  const Csr& l = factors_->l;
  const Csr& u = factors_->u;
  PTILU_CHECK(machine.nranks() == schedule_->nranks &&
                  fwd_.slot.size() == static_cast<std::size_t>(l.nnz()) &&
                  bwd_.slot.size() == static_cast<std::size_t>(u.nnz()) &&
                  l.n_rows == u.n_rows &&
                  static_cast<std::size_t>(l.n_rows) == schedule_->newnum.size(),
              "stale solve plan: solver built for "
                  << schedule_->nranks << " ranks, nnz(L)=" << fwd_.slot.size()
                  << ", nnz(U)=" << bwd_.slot.size() << ", n=" << schedule_->newnum.size()
                  << "; called with " << machine.nranks() << " ranks, nnz(L)=" << l.nnz()
                  << ", nnz(U)=" << u.nnz() << ", n=" << l.n_rows);
}

// ---- Level-scheduled sweeps over k column-major right-hand sides --------
//
// Interior + level supersteps as in §5: every row carries its k columns
// through one sweep and every per-peer level message ships k values per
// row. The single-RHS solves are the k = 1 instantiation, so column c of a
// batched solve is bit-identical to the single-RHS solve of column c.

template <int K>
void DistTriangularSolver::forward_cols(sim::Machine& machine, const real* b, real* y,
                                        int k) const {
  check_plan(machine);
  const PilutSchedule& sched = *schedule_;
  const Csr& l = factors_->l;
  const Plan& plan = fwd_;
  const std::size_t n = static_cast<std::size_t>(l.n_rows);
  const std::size_t p = static_cast<std::size_t>(sched.nranks);
  CallState state(machine, plan.ghost_col, plan.ghost_ptr, plan.max_send_rows, k);
  // Solves row i against a rank's ghost region; returns its flops.
  const auto solve = [&](idx i, const real* ghost, real* acc) {
    solve_row<K>(l, plan.slot, false, i, b, y, n, ghost, k, acc);
    return 2 * static_cast<std::uint64_t>(l.row_nnz(i)) * static_cast<std::uint64_t>(k);
  };
  sim::ScopedPhase solve_phase(machine, "trisolve/forward");

  // Phase 1: interior blocks — local work (interior rows only reference
  // their own rank's interior columns), then ship any interior values that
  // migrated interface rows on other ranks will need.
  {
  sim::ScopedPhase span(machine, "interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    const auto [begin, end] = sched.interior_range[r];
    std::uint64_t flops = 0;
    for (idx i = begin; i < end; ++i) flops += solve(i, state.ghost(r), state.acc(ctx));
    ctx.charge_flops(flops);
    state.ship(ctx, plan.sends[static_cast<std::size_t>(r)], y, n);
  }, "trisolve/fwd/interior");
  }

  // Phase 2: one superstep per independent-set level.
  sim::ScopedPhase levels_span(machine, "levels");
  for (int level = 0; level < levels(); ++level) {
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      state.drain(ctx);
      std::uint64_t flops = 0;
      for (const idx i : rows_of_level_[level][r]) {
        flops += solve(i, state.ghost(r), state.acc(ctx));
      }
      ctx.charge_flops(flops);
      state.ship(ctx, plan.sends[(static_cast<std::size_t>(level) + 1) * p + r], y, n);
    }, "trisolve/fwd/level");
  }
  // Drain any values shipped by the last level (no one consumes them in the
  // forward direction, but the queues must be left clean).
  machine.step([&](sim::RankContext& ctx) { (void)ctx.recv_all(); },
               "trisolve/fwd/drain");
  machine.check_quiescent("trisolve/fwd/end");
}

template <int K>
void DistTriangularSolver::backward_cols(sim::Machine& machine, const real* yin, real* x,
                                         int k) const {
  check_plan(machine);
  const PilutSchedule& sched = *schedule_;
  const Csr& u = factors_->u;
  const Plan& plan = bwd_;
  const std::size_t n = static_cast<std::size_t>(u.n_rows);
  const std::size_t p = static_cast<std::size_t>(sched.nranks);
  CallState state(machine, plan.ghost_col, plan.ghost_ptr, plan.max_send_rows, k);
  // Solves row i against a rank's ghost region; returns its flops.
  const auto solve = [&](idx i, const real* ghost, real* acc) {
    solve_row<K>(u, plan.slot, true, i, yin, x, n, ghost, k, acc);
    return (2 * static_cast<std::uint64_t>(u.row_nnz(i)) + 1) *
           static_cast<std::uint64_t>(k);
  };
  sim::ScopedPhase solve_phase(machine, "trisolve/backward");

  // Phase 1: interface levels in reverse order.
  {
  sim::ScopedPhase span(machine, "levels");
  for (int level = levels() - 1; level >= 0; --level) {
    machine.step([&](sim::RankContext& ctx) {
      const int r = ctx.rank();
      state.drain(ctx);
      std::uint64_t flops = 0;
      const IdxVec& rows = rows_of_level_[level][r];
      // Descending order within the level: plain PILUT levels are
      // independent sets (order irrelevant), but the nested variant's
      // stages carry same-host sequential dependencies.
      for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
        flops += solve(*it, state.ghost(r), state.acc(ctx));
      }
      ctx.charge_flops(flops);
      state.ship(ctx, plan.sends[(static_cast<std::size_t>(level) + 1) * p + r], x, n);
    }, "trisolve/bwd/level");
  }
  }

  // Phase 2: interior blocks in reverse. Interior U rows reference their
  // own interior block plus interface columns — the latter may live on
  // another rank when rows migrated (nested variant), so read via ghosts.
  {
  sim::ScopedPhase span(machine, "interior");
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    state.drain(ctx);
    const auto [begin, end] = sched.interior_range[r];
    std::uint64_t flops = 0;
    for (idx i = end - 1; i >= begin; --i) {
      flops += solve(i, state.ghost(r), state.acc(ctx));
    }
    ctx.charge_flops(flops);
  }, "trisolve/bwd/interior");
  }
  machine.check_quiescent("trisolve/bwd/end");
}

void DistTriangularSolver::forward(sim::Machine& machine, const RealVec& b,
                                   RealVec& y) const {
  PTILU_CHECK(b.size() == static_cast<std::size_t>(factors_->l.n_rows) &&
                  y.size() == b.size(),
              "forward size mismatch");
  forward_cols<1>(machine, b.data(), y.data(), 1);
}

void DistTriangularSolver::backward(sim::Machine& machine, const RealVec& yin,
                                    RealVec& x) const {
  PTILU_CHECK(yin.size() == static_cast<std::size_t>(factors_->u.n_rows) &&
                  x.size() == yin.size(),
              "backward size mismatch");
  backward_cols<1>(machine, yin.data(), x.data(), 1);
}

void DistTriangularSolver::apply(sim::Machine& machine, const RealVec& b,
                                 RealVec& x) const {
  RealVec y(b.size());
  forward(machine, b, y);
  backward(machine, y, x);
}

void DistTriangularSolver::forward(sim::Machine& machine, const DenseRhsBlock& b,
                                   DenseRhsBlock& y) const {
  PTILU_CHECK(b.n == factors_->l.n_rows && y.n == b.n && b.k == y.k && b.k >= 1,
              "batched forward block shape mismatch");
  forward_cols<0>(machine, b.data.data(), y.data.data(), b.k);
}

void DistTriangularSolver::backward(sim::Machine& machine, const DenseRhsBlock& yin,
                                    DenseRhsBlock& x) const {
  PTILU_CHECK(yin.n == factors_->u.n_rows && x.n == yin.n && yin.k == x.k && yin.k >= 1,
              "batched backward block shape mismatch");
  backward_cols<0>(machine, yin.data.data(), x.data.data(), yin.k);
}

void DistTriangularSolver::apply(sim::Machine& machine, const DenseRhsBlock& b,
                                 DenseRhsBlock& x) const {
  DenseRhsBlock y(b.n, b.k);
  forward(machine, b, y);
  backward(machine, y, x);
}

}  // namespace ptilu
