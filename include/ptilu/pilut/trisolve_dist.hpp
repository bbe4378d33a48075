// Parallel forward/backward substitution (§5 of the paper).
//
// The solves exploit the structure the parallel factorization imposed:
// phase 1 handles each rank's interior block with purely local work;
// phase 2 walks the q independent-set levels — each level's unknowns are
// computed concurrently and the freshly computed boundary values are
// shipped to the ranks whose later rows reference them. The backward
// substitution runs the levels in reverse and finishes with the local
// interior blocks. Each level is one superstep, which is exactly the "q
// implicit synchronization points" the paper discusses.
#pragma once

#include "ptilu/ilu/factors.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/sim/machine.hpp"

namespace ptilu {

/// The §5 solves, run from a communication plan built once per
/// factorization (the setup cost is not part of the per-solve modeled time,
/// matching how such solvers amortize setup in practice).
///
/// For each direction the plan holds, per (step, rank), the messages that
/// rank posts after computing the step — (peer, rows) in ascending peer
/// order, rows ascending — and, per factor nonzero, a ghost slot: -1 when
/// the column is owned by the row's rank, else the column's position in
/// that rank's dense ghost buffer. A level body drains its received values
/// into those slots, reads `slot < 0 ? x[col] : ghost[slot]` in nonzero
/// order, and replays its sends, so a solve does no per-call list building
/// or keyed lookup. The scalar and batched solves share the plan.
///
/// Per-call state (the ghost buffers, decode scratch) lives in each call,
/// one region per rank, so one solver may be shared by concurrent solves.
/// The solver keeps pointers to `factors` and `schedule`: both must
/// outlive it and stay unchanged; forward/backward reject factors whose
/// shape no longer matches the plan, and machines of another rank count.
class DistTriangularSolver {
 public:
  DistTriangularSolver(const IluFactors& factors, const PilutSchedule& schedule);

  /// Solve L y = b (all vectors in the NEW ordering).
  void forward(sim::Machine& machine, const RealVec& b, RealVec& y) const;

  /// Solve U x = y (new ordering).
  void backward(sim::Machine& machine, const RealVec& y, RealVec& x) const;

  /// x = U^{-1} L^{-1} b — one full preconditioner application.
  void apply(sim::Machine& machine, const RealVec& b, RealVec& x) const;

  /// Batched multi-RHS solves: one level sweep carries all k columns, and
  /// each freshly computed interface row ships its k values in the SAME
  /// per-peer message a single-RHS solve would have used — per level and
  /// peer the batched solve pays one message latency where k single-RHS
  /// solves pay k, which is the serving-throughput amortization
  /// (docs/SERVING.md). Column c of the result is bit-identical to the
  /// single-RHS solve of column c (held by tests/test_serve.cpp).
  void forward(sim::Machine& machine, const DenseRhsBlock& b, DenseRhsBlock& y) const;
  void backward(sim::Machine& machine, const DenseRhsBlock& y, DenseRhsBlock& x) const;
  void apply(sim::Machine& machine, const DenseRhsBlock& b, DenseRhsBlock& x) const;

  int levels() const { return schedule_->levels(); }

  /// The factorization schedule this solver was built against (callers
  /// such as gmres_dist need its permutation to scatter vectors into the
  /// factored ordering when sharing one solver across many solves).
  const PilutSchedule& schedule() const { return *schedule_; }

 private:
  struct Send {
    int peer = 0;
    IdxVec rows;
  };
  /// One direction's exchange. Step 0 is the interior block, step 1 + l
  /// interface level l.
  struct Plan {
    IdxVec slot;  ///< per factor nonzero (see the class comment)
    /// Rank r's ghosts are [ghost_ptr[r], ghost_ptr[r+1]) of the per-call
    /// buffer; ghost_col holds their columns, ascending per rank.
    std::vector<std::size_t> ghost_ptr;
    IdxVec ghost_col;
    std::vector<std::vector<Send>> sends;  ///< [step * nranks + rank]
    std::size_t max_send_rows = 0;  ///< longest Send::rows, sizes the lanes
  };

  Plan build_plan(const Csr& m, bool upper) const;
  void check_plan(const sim::Machine& machine) const;
  template <int K>
  void forward_cols(sim::Machine& machine, const real* b, real* y, int k) const;
  template <int K>
  void backward_cols(sim::Machine& machine, const real* y, real* x, int k) const;

  const IluFactors* factors_;
  const PilutSchedule* schedule_;
  /// Rows owned by each rank within each level: rows_of_level_[level][rank].
  std::vector<std::vector<IdxVec>> rows_of_level_;
  Plan fwd_;  ///< over L
  Plan bwd_;  ///< over U's off-diagonal entries
};

}  // namespace ptilu
