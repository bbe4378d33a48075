// Fully distributed restarted GMRES: the solver the paper actually ran on
// the T3D. Every operation executes on the simulated machine — parallel
// SpMV with halo exchange, the parallel triangular solves of the PILUT
// preconditioner, rank-local axpy/scale work, and inner products that cost
// an allreduce each. It runs the serial ptilu::gmres's restarted-GMRES core
// (DESIGN.md §17); only the dots (per-rank partials folded in rank order) and
// v0 = (1/beta)·r (serially r/beta) differ, so iteration counts agree up to
// roundoff. The machine clock yields an executed parallel solve time.
//
// When a sim::Trace is attached to the machine, the solve is tagged with
// nested phases under "gmres": "residual" (SpMV + preconditioner for the
// restart residual), "precond" (M^{-1} A v_j, including the distributed
// triangular solves, which self-tag "trisolve/forward" and
// "trisolve/backward"), "orthog" (modified Gram-Schmidt dots/axpys), and
// "update" (the x correction). SpMVs self-tag "spmv". See docs/TRACING.md.
#pragma once

#include "ptilu/dist/distcsr.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/pilut/pilut.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"

namespace ptilu {

/// Solve A x = b with left-preconditioned GMRES on the simulated machine,
/// using the parallel factorization's schedule for preconditioning.
/// b and x are in ORIGINAL row numbering (the permutation is handled
/// internally, as ilu_apply_permuted does serially). The machine is reset
/// at entry; on return machine.modeled_time() is the solve's modeled
/// parallel run time.
GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const PilutResult& factorization, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts = {});

/// Shared-solver overload for serving workloads: a DistTriangularSolver
/// built ONCE (its plan build is host work a per-request solve should not
/// repay — docs/SERVING.md) and reused across solves. The overload above
/// delegates here, so both are bit-identical. The solver must have been
/// built against a factorization of this dist matrix's permuted form.
GmresResult gmres_dist(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
                       const DistTriangularSolver& solver, std::span<const real> b,
                       std::span<real> x, const GmresOptions& opts = {});

}  // namespace ptilu
