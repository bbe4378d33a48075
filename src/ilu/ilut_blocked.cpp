#include "ptilu/ilu/ilut_blocked.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ptilu/ilu/block_kernels.hpp"
#include "ptilu/ilu/factor_scratch.hpp"
#include "ptilu/ilu/pivot.hpp"
#include "ptilu/ilu/working_row.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

/// Block-wise 2nd dropping rule: from the staged (frob², col) tiles, keep
/// those whose root-mean-square entry clears tau_min, and of those at most
/// keep_count of the largest by Frobenius norm (ties: column ascending).
/// Survivors are returned sorted by column. Mirrors select_largest at tile
/// granularity with the same deterministic strict total order.
void select_largest_tiles(std::vector<std::pair<real, idx>>& tiles, idx keep_count,
                          real tau_min, int nb) {
  const real floor2 = tau_min * tau_min * static_cast<real>(nb);
  tiles.erase(std::remove_if(tiles.begin(), tiles.end(),
                             [&](const auto& t) { return t.first < floor2 || t.first == 0.0; }),
              tiles.end());
  const auto by_magnitude = [](const std::pair<real, idx>& a, const std::pair<real, idx>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  if (static_cast<idx>(tiles.size()) > keep_count) {
    std::nth_element(tiles.begin(), tiles.begin() + keep_count, tiles.end(), by_magnitude);
    tiles.resize(static_cast<std::size_t>(keep_count));
  }
  std::sort(tiles.begin(), tiles.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
}

/// Nonzero entries of a tile — what a dropped tile costs in scalar terms.
std::uint64_t tile_nonzeros(int nb, const real* t) {
  std::uint64_t count = 0;
  for (int j = 0; j < nb; ++j) count += t[j] != 0.0;
  return count;
}

}  // namespace

BlockedFactors ilut_blocked(const Csr& a, const BlockedIlutOptions& opts,
                            IlutStats* stats) {
  PTILU_CHECK(a.n_rows == a.n_cols, "blocked ILUT needs a square matrix");
  PTILU_CHECK(opts.base.m >= 0 && opts.base.tau >= 0.0, "invalid ILUT options");
  const idx n = a.n_rows;
  const RealVec norms = row_norms(a, 2);
  check_ilut_rows(a, norms);

  BlockedFactors f;
  f.n = n;
  f.panel_start = detect_panels(a, opts.panels);
  const idx np = f.n_panels();
  f.lcols.resize(np);
  f.lvals.resize(np);
  f.diag.resize(np);
  f.ucols.resize(np);
  f.uvals.resize(np);

  // Row -> owning panel, for fetching the U row of an external pivot.
  IdxVec panel_of(n);
  for (idx p = 0; p < np; ++p) {
    for (idx i = f.panel_start[p]; i < f.panel_start[p + 1]; ++i) panel_of[i] = p;
  }

  RealVec udiag(n, 0.0);  // dense mirror of the U diagonal for O(1) pivots
  PanelWorkingRow w(n, opts.panels.max_panel);
  PanelScratch scratch;
  scratch.mult.resize(static_cast<std::size_t>(opts.panels.max_panel));
  IlutStats local_stats;
  IlutStats* st = stats != nullptr ? stats : &local_stats;

  for (idx p = 0; p < np; ++p) {
    const idx r0 = f.panel_start[p];
    const int nb = f.width(p);

    real tau_min = std::numeric_limits<real>::infinity();
    for (int j = 0; j < nb; ++j) {
      tau_min = std::min(tau_min, opts.base.tau * norms[r0 + j]);
    }

    // --- Load the panel's rows of A into tiles; keep the diagonal block
    // structurally present so intra-panel elimination is always dense.
    ColumnHeap heap = make_column_heap(scratch.heap);
    for (int j = 0; j < nb; ++j) w.insert(r0 + j);
    for (int j = 0; j < nb; ++j) {
      const idx i = r0 + j;
      for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const idx c = a.col_idx[k];
        if (!w.present(c)) {
          w.insert(c);
          if (c < r0) heap.push(c);
        }
        w.tile(c)[j] = a.values[k];
      }
    }

    // --- External elimination: pivot columns k < r0 live in earlier,
    // fully factored panels. All nb rows eliminate k jointly — one heap
    // pop, one U-row walk, and nb-wide tile updates, where the scalar path
    // pays each of those per row.
    real* const mult = scratch.mult.data();
    while (!heap.empty()) {
      const idx k = heap.pop();
      const real u_kk = udiag[k];
      real* wk = w.tile(k);
      bool any = false;
      for (int j = 0; j < nb; ++j) {
        real m = wk[j] / u_kk;
        ++st->flops;
        if (m != 0.0 && std::abs(m) < opts.base.tau * norms[r0 + j]) {
          m = 0.0;  // 1st dropping rule, per row
          ++st->dropped_rule1;
        }
        mult[j] = m;
        wk[j] = m;
        any |= m != 0.0;
      }
      if (!any) continue;

      const idx q = panel_of[k];
      const idx q0 = f.panel_start[q];
      const int nbq = f.width(q);
      const int jk = static_cast<int>(k - q0);
      const auto apply = [&](idx c, real uval) {
        if (uval == 0.0) return;  // padding inside the source tile
        if (!w.present(c)) {
          w.insert(c);
          if (c < r0) heap.push(c);
        }
        tile_axpy_any(nb, w.tile(c), mult, uval);
        st->flops += 2 * static_cast<std::uint64_t>(nb);
      };
      // Strictly-upper part of U row k: first the tail of its diagonal
      // block, then its external U tiles (entry jk of each).
      const real* drow = f.diag[q].data() + static_cast<std::size_t>(jk) * nbq;
      for (int jj = jk + 1; jj < nbq; ++jj) apply(q0 + jj, drow[jj]);
      const IdxVec& qcols = f.ucols[q];
      const RealVec& qvals = f.uvals[q];
      for (std::size_t pos = 0; pos < qcols.size(); ++pos) {
        apply(qcols[pos], qvals[pos * static_cast<std::size_t>(nbq) + jk]);
      }
    }

    // --- Intra-panel elimination: dense LU of the diagonal block (no
    // dropping inside a supernode), then forward-substitute every external
    // U tile against its unit-lower multipliers.
    for (int jp = 0; jp < nb; ++jp) {
      real* pt = w.tile(r0 + jp);  // diag-block column jp
      const real floor_abs =
          opts.base.pivot_rel > 0.0 ? opts.base.pivot_rel * norms[r0 + jp] : 0.0;
      const real pivot = safeguard_pivot(r0 + jp, pt[jp], floor_abs, st->pivots_guarded);
      pt[jp] = pivot;
      for (int j = jp + 1; j < nb; ++j) {
        pt[j] /= pivot;
        ++st->flops;
      }
      for (int jj = jp + 1; jj < nb; ++jj) {
        real* t = w.tile(r0 + jj);
        const real uval = t[jp];
        if (uval == 0.0) continue;
        for (int j = jp + 1; j < nb; ++j) t[j] -= pt[j] * uval;
        st->flops += 2 * static_cast<std::uint64_t>(nb - jp - 1);
      }
    }
    // The finished diagonal block, row-major: strict lower = intra-panel
    // multipliers, upper incl. diagonal = U. Stored before the external
    // substitution because the tile kernel reads the multipliers from it.
    RealVec& dblock = f.diag[p];
    dblock.resize(static_cast<std::size_t>(nb) * nb);
    for (int jj = 0; jj < nb; ++jj) {
      const real* t = w.tile(r0 + jj);
      for (int j = 0; j < nb; ++j) dblock[static_cast<std::size_t>(j) * nb + jj] = t[j];
    }
    for (int j = 0; j < nb; ++j) udiag[r0 + j] = dblock[static_cast<std::size_t>(j) * nb + j];
    for (const idx c : w.touched()) {
      if (c < r0 + nb) continue;
      tile_trsv_lower_any(nb, w.tile(c), dblock.data());
      st->flops += static_cast<std::uint64_t>(nb) * (nb - 1);
    }

    // --- Block-wise dropping and copy-out.
    std::vector<std::pair<real, idx>>& tiles = scratch.tiles;
    for (const int side : {0, 1}) {
      tiles.clear();
      for (const idx c : w.touched()) {
        const bool is_l = c < r0;
        if ((side == 0) != is_l) continue;
        if (!is_l && c < r0 + nb) continue;  // diagonal block, always kept
        tiles.emplace_back(tile_frob2(nb, w.tile(c)), c);
      }
      std::uint64_t staged_nnz = 0;
      for (const auto& [frob2, c] : tiles) staged_nnz += tile_nonzeros(nb, w.tile(c));
      select_largest_tiles(tiles, opts.base.m, tau_min, nb);
      IdxVec& cols = side == 0 ? f.lcols[p] : f.ucols[p];
      RealVec& vals = side == 0 ? f.lvals[p] : f.uvals[p];
      cols.reserve(tiles.size());
      vals.reserve(tiles.size() * static_cast<std::size_t>(nb));
      std::uint64_t kept_nnz = 0;
      for (const auto& [frob2, c] : tiles) {
        cols.push_back(c);
        const real* t = w.tile(c);
        vals.insert(vals.end(), t, t + nb);
        kept_nnz += tile_nonzeros(nb, t);
      }
      st->dropped_rule2 += staged_nnz - kept_nnz;
    }

    w.clear();
  }
  return f;
}

}  // namespace ptilu
