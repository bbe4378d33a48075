// Distributed view of a sparse matrix: rows are distributed by a graph
// partition; nodes are classified interior/interface exactly as in §3 of
// the paper (an interior node is connected — in the symmetrized pattern —
// only to nodes of its own processor).
//
// The simulation runs in one address space, so the matrix itself is stored
// once; the SPMD algorithms only ever *read* rows they own and obtain
// everything else through explicit sim::Machine messages, which is what
// keeps the communication accounting faithful.
#pragma once

#include <span>
#include <vector>

#include "ptilu/part/partition.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/sparse/csr.hpp"
#include "ptilu/support/types.hpp"

namespace ptilu {

struct DistCsr {
  Csr a;                            ///< the global matrix (original indices)
  int nranks = 1;
  IdxVec owner;                     ///< owning rank of each row
  std::vector<IdxVec> owned_rows;   ///< per rank: owned rows, ascending
  std::vector<bool> interface;      ///< node touches another rank (symmetrized pattern)

  idx n() const { return a.n_rows; }
  idx interior_count(int rank) const;
  idx interface_count_total() const;

  static DistCsr create(Csr a, const Partition& p);
};

/// Static communication lists for halo exchanges of vector values, built
/// once from the matrix pattern (the paper's "communication setup phase"),
/// plus the receive side's ghost layout so an exchange does no per-call
/// list building or keyed lookup.
///
/// Rank r's ghosts occupy [ghost_ptr[r], ghost_ptr[r+1]) of a flat per-call
/// buffer, laid out as its recv_lists entries end to end, and slot[k] (per
/// matrix nonzero) is -1 when column col_idx[k] is owned by the row's rank,
/// else that column's position in the rank's region. A halo is tied to the
/// matrix and partition it was built from; dist_spmv rejects one whose
/// shape does not match.
struct Halo {
  /// send_lists[r] = { (peer, indices r owns and must ship to peer) },
  /// sorted by peer; indices ascending.
  std::vector<std::vector<std::pair<int, IdxVec>>> send_lists;
  /// recv_lists[r] = { (peer, indices r needs from peer) }, mirror image.
  std::vector<std::vector<std::pair<int, IdxVec>>> recv_lists;
  std::vector<std::size_t> ghost_ptr;
  IdxVec slot;

  static Halo build(const DistCsr& dist);

  /// Total values exchanged per full exchange (sum over ranks).
  std::size_t total_exchanged() const;
};

/// Parallel sparse matrix-vector product y = A x on the simulated machine:
/// one superstep ships boundary x values per the halo lists, the next
/// computes owned rows. x and y are global arrays; rank r only reads x at
/// owned indices (remote values come from its received ghosts) and writes
/// y at owned indices.
void dist_spmv(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
               std::span<const real> x, RealVec& y);

}  // namespace ptilu
