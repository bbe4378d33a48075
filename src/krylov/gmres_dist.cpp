#include "ptilu/krylov/gmres_dist.hpp"

#include <numeric>

#include "gmres_core.hpp"
#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

/// The machine vector space: each vector op is a superstep over the owned
/// rows, charging each rank its share of the flops; a dot's host-side fold
/// costs the step's barrier — exactly an allreduce.
struct MachineSpace {
  sim::Machine& machine_;
  const DistCsr& dist_;
  const Halo& halo_;
  const DistTriangularSolver& solver_;
  std::span<const real> b_;
  std::span<real> x_;
  const IdxVec& newnum_ = solver_.schedule().newnum;
  RealVec ax_ = RealVec(dist_.n()), permuted_ = ax_, solved_ = ax_;
  RealVec partials_;  // per-rank dot partials, combined in rank order

  void residual(RealVec& r) {
    sim::ScopedPhase span(machine_, "residual");
    dist_spmv(machine_, dist_, halo_, x_, ax_);
    precondition(true, r, "gmres/residual/scatter", "gmres/residual/gather");
  }

  void precond_matvec(const RealVec& v, RealVec& w) {
    dist_spmv(machine_, dist_, halo_, v, ax_);
    sim::ScopedPhase span(machine_, "precond");
    precondition(false, w, "gmres/precond/scatter", "gmres/precond/gather");
  }

  real dot(const RealVec& x, const RealVec& y) {
    // Each rank writes its own slot; the host-side combine below runs in
    // rank order, so the floating-point sum is bit-identical no matter in
    // which order (or how concurrently) the rank bodies executed.
    partials_.assign(static_cast<std::size_t>(machine_.nranks()), 0.0);
    machine_.step([&](sim::RankContext& ctx) {
      real partial = 0.0;
      for (const idx i : owned(ctx)) partial += x[i] * y[i];
      ctx.charge_flops(2 * owned(ctx).size());
      ctx.declare_collective(sim::CollectiveOp::kSum, sizeof(real), "gmres/dot");
      partials_[static_cast<std::size_t>(ctx.rank())] = partial;
    }, "gmres/dot");
    return std::accumulate(partials_.begin(), partials_.end(), 0.0);
  }
  /// y += alpha x (no synchronization needed beyond the step barrier).
  void axpy(real alpha, const RealVec& x, RealVec& y) {
    machine_.step([&](sim::RankContext& ctx) {
      for (const idx i : owned(ctx)) y[i] += alpha * x[i];
      ctx.charge_flops(2 * owned(ctx).size());
    }, "gmres/axpy");
  }
  void scale_into(real alpha, const RealVec& x, RealVec& out) {
    machine_.step([&](sim::RankContext& ctx) {
      for (const idx i : owned(ctx)) out[i] = alpha * x[i];
      ctx.charge_flops(owned(ctx).size());
    }, "gmres/scale");
  }
  void scale(real alpha, RealVec& w) { scale_into(alpha, w, w); }
  void start_into(real beta, const RealVec& r, RealVec& v0) {
    scale_into(1.0 / beta, r, v0);
  }

  /// x += V y: one batched rank-local pass over the basis.
  void update_x(const std::vector<RealVec>& v, const RealVec& y) {
    sim::ScopedPhase span(machine_, "update");
    machine_.step([&](sim::RankContext& ctx) {
      for (const idx i : owned(ctx)) {
        real acc = x_[i];
        for (std::size_t k = 0; k < y.size(); ++k) acc += y[k] * v[k][i];
        x_[i] = acc;
      }
      ctx.charge_flops(2 * owned(ctx).size() * static_cast<std::uint64_t>(y.size()));
    }, "gmres/update");
  }

  /// Modified Gram-Schmidt: each projection is one allreduce (the dot)
  /// plus rank-local update work.
  sim::ScopedPhase orthog_scope() { return {machine_, "orthog"}; }

  const IdxVec& owned(const sim::RankContext& ctx) const {
    return dist_.owned_rows[ctx.rank()];
  }

  /// out = M^{-1}(b - ax) when `residual`, else M^{-1} ax: rank-local scatter
  /// into the factorization's numbering, parallel trisolves, gather back.
  void precondition(bool residual, RealVec& out, std::string_view scatter_site,
                    std::string_view gather_site) {
    machine_.step([&](sim::RankContext& ctx) {
      const auto& rows = owned(ctx);
      for (const idx i : rows) permuted_[newnum_[i]] = residual ? b_[i] - ax_[i] : ax_[i];
      if (residual) ctx.charge_flops(rows.size());
      ctx.charge_mem(rows.size() * sizeof(real));
    }, scatter_site);
    solver_.apply(machine_, permuted_, solved_);
    machine_.step([&](sim::RankContext& ctx) {
      for (const idx i : owned(ctx)) out[i] = solved_[newnum_[i]];
      ctx.charge_mem(owned(ctx).size() * sizeof(real));
    }, gather_site);
  }
};

}  // namespace

GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const PilutResult& factorization, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts) {
  const DistTriangularSolver solver(factorization.factors, factorization.schedule);
  return gmres_dist(machine, dist, halo, solver, b, x, opts);
}

GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const DistTriangularSolver& solver, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts) {
  const idx n = dist.n();
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(b.size() == static_cast<std::size_t>(n) && x.size() == b.size(),
              "gmres_dist vector size mismatch");
  PTILU_CHECK(solver.schedule().newnum.size() == static_cast<std::size_t>(n),
              "solver/matrix size mismatch");
  machine.reset();
  sim::ScopedPhase solve_phase(machine, "gmres");
  MachineSpace space{machine, dist, halo, solver, b, x};
  GmresResult result = krylov_detail::gmres_core(space, n, opts);
  machine.check_quiescent("gmres/end");
  return result;
}

}  // namespace ptilu
