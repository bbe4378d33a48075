// Sequential ILUT(m, t) — Saad's dual-threshold incomplete LU
// factorization, Algorithm 2.1 of the paper.
//
// For every row i, a working row w accumulates the Gaussian elimination of
// row i against already-factored rows:
//   * 1st dropping rule: a multiplier w_k = w_k / u_kk is discarded when
//     |w_k| < tau_i, where tau_i = t * ||a_i||_2 is the relative tolerance
//     from the ORIGINAL row's 2-norm;
//   * 2nd dropping rule: after elimination, entries below tau_i are
//     discarded and only the m largest-magnitude entries are kept in the
//     L part and the m largest in the U part. The diagonal is always kept.
#pragma once

#include <cstdint>

#include "ptilu/ilu/factors.hpp"
#include "ptilu/sparse/csr.hpp"

namespace ptilu {

struct IlutOptions {
  /// Maximum nonzeros kept per row of L and (separately) of U, excluding
  /// the always-kept diagonal of U.
  idx m = 10;
  /// Relative drop tolerance t; tau_i = t * ||a_i||_2.
  real tau = 1e-4;
  /// Pivot guard: if |u_ii| < pivot_rel * ||a_i||_2 after factoring row i,
  /// the pivot is replaced by that floor (keeping its sign; a +floor for an
  /// exact zero), and the substitution is counted in
  /// IlutStats::pivots_guarded (per rank under the parallel drivers, as
  /// the "factor/pivots_guarded" metrics counter).
  /// 0 disables the guard, in which case a zero or subnormal pivot throws
  /// ptilu::Error — the paper's algorithm has no recovery either, and a
  /// subnormal would overflow the reciprocal just as fatally.
  real pivot_rel = 0.0;
};

struct IlutStats {
  std::uint64_t flops = 0;        // multiply-adds and divides performed
  std::uint64_t dropped_rule1 = 0;
  std::uint64_t dropped_rule2 = 0;
  std::uint64_t pivots_guarded = 0;
};

/// Factor A (square, natural order). Throws on structural problems, a NaN
/// or Inf entry, or an unguarded zero pivot.
IluFactors ilut(const Csr& a, const IlutOptions& opts, IlutStats* stats = nullptr);

/// Reject a matrix whose rows the threshold drivers cannot factor, naming
/// the first bad row: one holding a NaN or Inf (and that entry's column),
/// else one that is entirely zero. `norms` are A's row 2-norms; a row whose
/// norm is finite and positive costs one comparison. Finite entries whose
/// squares overflow the norm pass, as before.
void check_ilut_rows(const Csr& a, const RealVec& norms);

/// Throw, naming the column and the value, if row i of A holds a NaN or
/// Inf. check_ilut_rows and the parallel factor drivers share it.
void check_finite_row(const Csr& a, idx i);

/// ILU(0): zero-fill incomplete factorization on the sparsity pattern of A
/// (the static baseline the paper contrasts with, Figure 1a).
IluFactors ilu0(const Csr& a, IlutStats* stats = nullptr);

/// ILU(k): level-of-fill incomplete factorization. Fill entries are allowed
/// when their fill level does not exceed `level`. ILU(0) == iluk(a, 0).
IluFactors iluk(const Csr& a, idx level, IlutStats* stats = nullptr);

}  // namespace ptilu
