#include "ptilu/ilu/ilut.hpp"

#include <algorithm>
#include <cmath>

#include "ptilu/ilu/factor_scratch.hpp"
#include "ptilu/ilu/pivot.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

void check_finite_row(const Csr& a, idx i) {
  for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
    PTILU_CHECK(std::isfinite(a.values[k]),
                "row " << i << " of A has a non-finite entry (" << a.values[k]
                       << ") in column " << a.col_idx[k]);
  }
}

void check_ilut_rows(const Csr& a, const RealVec& norms) {
  for (idx i = 0; i < a.n_rows; ++i) {
    if (norms[i] > 0.0 && std::isfinite(norms[i])) continue;
    check_finite_row(a, i);
    PTILU_CHECK(norms[i] > 0.0, "row " << i << " of A is entirely zero");
  }
}

IluFactors ilut(const Csr& a, const IlutOptions& opts, IlutStats* stats) {
  PTILU_CHECK(a.n_rows == a.n_cols, "ILUT needs a square matrix");
  PTILU_CHECK(opts.m >= 0 && opts.tau >= 0.0, "invalid ILUT options");
  const idx n = a.n_rows;
  const RealVec norms = row_norms(a, 2);
  check_ilut_rows(a, norms);

  std::vector<SparseRow> lrows(n), urows(n);
  RealVec udiag(n, 0.0);
  WorkingRow w(n);
  FactorScratch scratch;
  IlutStats local_stats;
  IlutStats* st = stats != nullptr ? stats : &local_stats;

  for (idx i = 0; i < n; ++i) {
    const real tau_i = opts.tau * norms[i];

    ColumnHeap heap = make_column_heap(scratch.heap);
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const idx c = a.col_idx[k];
      w.insert(c, a.values[k]);
      if (c < i) heap.push(c);
    }

    // Eliminate lower-part columns in ascending order; fill may enqueue
    // further lower columns (always larger than the one being processed).
    while (!heap.empty()) {
      const idx k = heap.pop();
      const real multiplier = w.value(k) / udiag[k];
      ++st->flops;
      if (std::abs(multiplier) < tau_i) {  // 1st dropping rule
        w.set(k, 0.0);
        ++st->dropped_rule1;
        continue;
      }
      w.set(k, multiplier);
      const SparseRow& urow = urows[k];
      // One multiply-add per strictly-upper entry of u_k; the stored
      // diagonal (slot 0) is consumed by the divide counted above, so it
      // must not be double-charged here.
      st->flops += 2 * static_cast<std::uint64_t>(urow.size() - 1);
      // p starts at 1: u rows store the diagonal first, and the update
      // w -= w_k * u_k uses only the strictly upper part of u_k.
      for (std::size_t p = 1; p < urow.size(); ++p) {
        const idx c = urow.cols[p];
        const real update = -multiplier * urow.vals[p];
        if (w.present(c)) {
          w.accumulate(c, update);
        } else {
          w.insert(c, update);
          if (c < i) heap.push(c);
        }
      }
    }

    // Split the working row into the pooled staging rows and apply the 2nd
    // dropping rule to each part.
    SparseRow& lstage = scratch.lstage;
    SparseRow& ustage = scratch.ustage;
    lstage.clear();
    ustage.clear();
    real diag = 0.0;
    for (const idx c : w.touched()) {
      const real v = w.value(c);
      if (c < i) {
        if (v != 0.0) lstage.push(c, v);
      } else if (c == i) {
        diag = v;
      } else {
        ustage.push(c, v);
      }
    }
    const std::size_t before = lstage.size() + ustage.size();
    select_largest(lstage, opts.m, tau_i, -1, scratch.kept);
    select_largest(ustage, opts.m, tau_i, -1, scratch.kept);
    st->dropped_rule2 += before - (lstage.size() + ustage.size());

    diag = safeguard_pivot(i, diag, opts.pivot_rel > 0.0 ? opts.pivot_rel * norms[i] : 0.0,
                           st->pivots_guarded);
    udiag[i] = diag;
    lrows[i].cols = lstage.cols;  // exact-sized copies of the survivors
    lrows[i].vals = lstage.vals;
    emit_urow(urows[i], i, diag, ustage);

    w.clear();
  }

  IluFactors factors;
  factors.l = rows_to_csr(n, lrows);
  factors.u = rows_to_csr(n, urows);
  return factors;
}

IluFactors ilu0(const Csr& a, IlutStats* stats) {
  return iluk(a, 0, stats);
}

IluFactors iluk(const Csr& a, idx level, IlutStats* stats) {
  PTILU_CHECK(a.n_rows == a.n_cols, "ILU(k) needs a square matrix");
  PTILU_CHECK(level >= 0, "fill level must be non-negative");
  const idx n = a.n_rows;
  FactorScratch scratch;

  // --- Symbolic phase: compute the level-of-fill pattern row by row.
  // lev(i,j) = 0 for original entries; a fill entry created by eliminating
  // column k gets level lev(i,k) + lev(k,j) + 1; entries with level > k_max
  // are excluded from the pattern.
  std::vector<IdxVec> pattern_cols(n);   // columns of each factored row (sorted)
  std::vector<IdxVec> pattern_levels(n); // matching fill levels
  {
    std::vector<idx> level_of(n, -1);  // -1 = absent from working row
    IdxVec touched;
    for (idx i = 0; i < n; ++i) {
      touched.clear();
      ColumnHeap heap = make_column_heap(scratch.heap);
      bool diag_present = false;
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        level_of[c] = 0;
        touched.push_back(c);
        if (c < i) heap.push(c);
        if (c == i) diag_present = true;
      }
      if (!diag_present) {  // ensure the diagonal is structurally present
        level_of[i] = 0;
        touched.push_back(i);
      }
      while (!heap.empty()) {
        const idx k = heap.pop();
        const idx base = level_of[k];
        if (base < 0 || base > level) continue;  // dropped from pattern
        const IdxVec& cols = pattern_cols[k];
        const IdxVec& levels = pattern_levels[k];
        for (std::size_t p = 0; p < cols.size(); ++p) {
          const idx c = cols[p];
          if (c <= k) continue;  // only the strict upper part spreads fill
          const idx fill = base + levels[p] + 1;
          if (fill > level) continue;
          if (level_of[c] < 0) {
            level_of[c] = fill;
            touched.push_back(c);
            if (c < i) heap.push(c);
          } else if (fill < level_of[c]) {
            level_of[c] = fill;
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      for (const idx c : touched) {
        if (level_of[c] <= level) {
          pattern_cols[i].push_back(c);
          pattern_levels[i].push_back(level_of[c]);
        }
        level_of[c] = -1;
      }
    }
  }

  // --- Numeric phase: standard IKJ elimination restricted to the pattern.
  IlutStats local_stats;
  IlutStats* st = stats != nullptr ? stats : &local_stats;
  std::vector<SparseRow> lrows(n), urows(n);
  RealVec udiag(n, 0.0);
  WorkingRow w(n);
  for (idx i = 0; i < n; ++i) {
    // Load pattern columns (value 0) then add A's row.
    for (const idx c : pattern_cols[i]) w.insert(c, 0.0);
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      w.accumulate(a.col_idx[k], a.values[k]);
    }
    for (const idx k : pattern_cols[i]) {
      if (k >= i) break;
      const real multiplier = w.value(k) / udiag[k];
      ++st->flops;
      w.set(k, multiplier);
      if (multiplier == 0.0) continue;
      const SparseRow& urow = urows[k];
      for (std::size_t p = 1; p < urow.size(); ++p) {  // skip stored diagonal
        const idx c = urow.cols[p];
        if (w.present(c)) {
          w.accumulate(c, -multiplier * urow.vals[p]);
          st->flops += 2;
        }
        // Updates landing outside the pattern are discarded (zero fill).
      }
    }
    // The pattern is sorted and structurally contains the diagonal, so the
    // split point gives both parts' exact sizes and the U row can be
    // written diagonal-first without a prepend.
    const IdxVec& cols = pattern_cols[i];
    const auto diag_it = std::lower_bound(cols.begin(), cols.end(), i);
    PTILU_ASSERT(diag_it != cols.end() && *diag_it == i,
                 "diagonal missing from ILU(k) pattern at row " << i);
    const std::size_t nlower = static_cast<std::size_t>(diag_it - cols.begin());
    const real diag = safeguard_pivot(i, w.value(i), 0.0, st->pivots_guarded);
    udiag[i] = diag;
    SparseRow& lrow = lrows[i];
    SparseRow& urow = urows[i];
    lrow.cols.reserve(nlower);
    lrow.vals.reserve(nlower);
    urow.cols.reserve(cols.size() - nlower);
    urow.vals.reserve(cols.size() - nlower);
    urow.push(i, diag);
    for (const idx c : cols) {
      if (c < i) {
        lrow.push(c, w.value(c));
      } else if (c > i) {
        urow.push(c, w.value(c));
      }
    }
    w.clear();
  }

  IluFactors factors;
  factors.l = rows_to_csr(n, lrows);
  factors.u = rows_to_csr(n, urows);
  return factors;
}

}  // namespace ptilu
