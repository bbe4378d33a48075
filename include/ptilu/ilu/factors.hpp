// Container for incomplete LU factors and shared dropping-rule kernels.
#pragma once

#include <utility>
#include <vector>

#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

/// Result of an incomplete factorization A ≈ L·U.
/// L is strictly lower triangular with an implicit unit diagonal;
/// U is upper triangular and always stores the diagonal.
struct IluFactors {
  Csr l;
  Csr u;

  idx n() const { return l.n_rows; }

  /// Structural sanity: L strictly lower, U upper with full nonzero diagonal.
  void validate() const;

  /// nnz(L) + nnz(U) relative to nnz(A) — the usual fill-factor metric.
  double fill_factor(nnz_t nnz_a) const;
};

/// One sparse row under construction: parallel column/value arrays.
struct SparseRow {
  IdxVec cols;
  RealVec vals;

  void clear() {
    cols.clear();
    vals.clear();
  }
  std::size_t size() const { return cols.size(); }
  void push(idx c, real v) {
    cols.push_back(c);
    vals.push_back(v);
  }
};

/// Materialize a final U row diagonal-first from its selected strictly-upper
/// part: the size is reserved up front and the diagonal written first, so
/// the row never pays an O(row) insert-at-front.
inline void emit_urow(SparseRow& urow, idx i, real diag, const SparseRow& upper) {
  urow.cols.reserve(upper.size() + 1);
  urow.vals.reserve(upper.size() + 1);
  urow.push(i, diag);
  urow.cols.insert(urow.cols.end(), upper.cols.begin(), upper.cols.end());
  urow.vals.insert(urow.vals.end(), upper.vals.begin(), upper.vals.end());
}

/// The ILUT dropping-rule selection kernel: keep the entries with magnitude
/// >= tau, and of those at most keep_count of the largest. The comparator
/// is the strict total order (|value| descending, column ascending), so
/// selection is deterministic under ties — both the serial and the
/// simulated-parallel factorizations rely on agreeing here. always_keep
/// (if >= 0) names a column retained unconditionally (the diagonal).
/// The surviving entries are returned sorted by column.
///
/// The 5-argument form stages survivors in the caller-provided `kept`
/// buffer (cleared on entry), making the call allocation-free once the
/// buffer is warm — hot loops pass FactorScratch::kept. The 4-argument
/// convenience form uses a local buffer.
void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep,
                    std::vector<std::pair<idx, real>>& kept);
void select_largest(SparseRow& row, idx keep_count, real tau, idx always_keep = -1);

/// Concatenate per-row cols/vals into a CSR matrix in one pass over the
/// rows, writing into exactly-sized storage (no growth reallocation).
Csr rows_to_csr(idx n, const std::vector<SparseRow>& rows);

/// Supernodal/blocked incomplete factors: rows are grouped into contiguous
/// panels (see supernodes.hpp) and every factor column a panel keeps is one
/// dense nb-wide tile, nb = the panel width. Per panel p covering rows
/// [r0, r0+nb):
///
///  * `lcols[p]` — sorted external L columns (all < r0); `lvals[p]` holds
///    one tile per column, tile entry j = the multiplier of row r0+j
///    (explicit zeros pad rows whose scalar pattern lacked the column).
///  * `diag[p]` — the dense nb x nb diagonal block, row-major: the strict
///    lower part stores the intra-panel multipliers (unit diagonal
///    implicit), the upper part including the diagonal stores U.
///  * `ucols[p]` / `uvals[p]` — sorted external U columns (all >= r0+nb),
///    tiled the same way; entry j = U(r0+j, c).
///
/// The layout is what the register-blocked kernels consume directly: a
/// column's tile is contiguous, so the working-row update and both
/// trisolves run fixed-width dense loops (block_kernels.hpp).
struct BlockedFactors {
  idx n = 0;
  IdxVec panel_start;            ///< np+1 boundaries, power-of-two widths
  std::vector<IdxVec> lcols;
  std::vector<RealVec> lvals;
  std::vector<RealVec> diag;
  std::vector<IdxVec> ucols;
  std::vector<RealVec> uvals;

  idx n_panels() const { return static_cast<idx>(panel_start.size()) - 1; }
  int width(idx p) const {
    return static_cast<int>(panel_start[p + 1] - panel_start[p]);
  }

  /// Stored values (tiles are dense, so padding zeros count): the memory
  /// footprint the blocked format actually pays for.
  nnz_t stored_entries() const;

  /// Structural nonzeros (padding excluded) — comparable to scalar nnz.
  nnz_t nnz() const;

  /// Structural sanity: boundaries cover [0, n) with power-of-two widths,
  /// external column lists sorted and on the correct side of the panel,
  /// tile sizes consistent, U diagonal entries nonzero.
  void validate() const;

  /// nnz(L) + nnz(U) relative to nnz(A), padding excluded — directly
  /// comparable to IluFactors::fill_factor.
  double fill_factor(nnz_t nnz_a) const;

  /// Expand into scalar CSR factors (padding zeros skipped, U diag-first).
  /// For validation and differential tests, not the hot path.
  IluFactors to_csr() const;
};

}  // namespace ptilu
