#include "ptilu/dist/distcsr.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

idx DistCsr::interior_count(int rank) const {
  idx count = 0;
  for (const idx row : owned_rows[rank]) count += interface[row] ? 0 : 1;
  return count;
}

idx DistCsr::interface_count_total() const {
  idx count = 0;
  for (idx v = 0; v < n(); ++v) count += interface[v] ? 1 : 0;
  return count;
}

DistCsr DistCsr::create(Csr a, const Partition& p) {
  PTILU_CHECK(a.n_rows == a.n_cols, "DistCsr needs a square matrix");
  p.validate(a.n_rows);

  DistCsr dist;
  dist.nranks = p.nparts;
  dist.owner = p.part;
  dist.owned_rows.resize(p.nparts);
  for (idx v = 0; v < a.n_rows; ++v) dist.owned_rows[p.part[v]].push_back(v);

  // Interface classification uses the symmetrized pattern: a directed
  // coupling in either direction makes both endpoints interface nodes.
  const Csr sym = symmetrize_pattern(a);
  dist.interface.assign(a.n_rows, false);
  for (idx v = 0; v < a.n_rows; ++v) {
    for (nnz_t k = sym.row_ptr[v]; k < sym.row_ptr[v + 1]; ++k) {
      const idx u = sym.col_idx[k];
      if (u != v && p.part[u] != p.part[v]) {
        dist.interface[v] = true;
        break;
      }
    }
  }
  dist.a = std::move(a);
  return dist;
}

Halo Halo::build(const DistCsr& dist) {
  const int p = dist.nranks;
  const Csr& a = dist.a;
  Halo halo;
  halo.send_lists.resize(p);
  halo.recv_lists.resize(p);
  halo.ghost_ptr.assign(static_cast<std::size_t>(p) + 1, 0);
  halo.slot.assign(static_cast<std::size_t>(a.nnz()), -1);

  // One pass per rank numbers its distinct remote columns in first-read
  // order (`position`) and records the remote entries; sorting the columns
  // by (owner, column) then yields the recv entries — consecutive runs per
  // peer — and renumbers just those entries' slots.
  IdxVec position(static_cast<std::size_t>(a.n_rows), -1);
  std::vector<nnz_t> remote;
  std::vector<std::tuple<int, idx, idx>> order;  // (owner, column, first-read number)
  IdxVec renumber;
  for (int r = 0; r < p; ++r) {
    remote.clear();
    order.clear();
    for (const idx row : dist.owned_rows[r]) {
      for (nnz_t k = a.row_ptr[row]; k < a.row_ptr[row + 1]; ++k) {
        const idx col = a.col_idx[k];
        if (dist.owner[col] == r) continue;
        if (position[col] < 0) {
          position[col] = static_cast<idx>(order.size());
          order.emplace_back(dist.owner[col], col, position[col]);
        }
        halo.slot[k] = position[col];
        remote.push_back(k);
      }
    }
    std::sort(order.begin(), order.end());
    renumber.resize(order.size());
    for (std::size_t t = 0; t < order.size(); ++t) {
      const auto [peer, col, first] = order[t];
      if (t == 0 || std::get<0>(order[t - 1]) != peer) {
        halo.recv_lists[r].emplace_back(peer, IdxVec{});
      }
      halo.recv_lists[r].back().second.push_back(col);
      renumber[first] = static_cast<idx>(t);
      position[col] = -1;
    }
    for (const nnz_t k : remote) halo.slot[k] = renumber[halo.slot[k]];
    // Ranks are visited in ascending order, so each send list stays sorted
    // by peer.
    for (const auto& [peer, indices] : halo.recv_lists[r]) {
      halo.send_lists[peer].emplace_back(r, indices);
    }
    halo.ghost_ptr[r + 1] = halo.ghost_ptr[r] + order.size();
  }
  return halo;
}

std::size_t Halo::total_exchanged() const {
  std::size_t total = 0;
  for (const auto& lists : send_lists) {
    for (const auto& [peer, indices] : lists) total += indices.size();
  }
  return total;
}

void dist_spmv(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
               std::span<const real> x, RealVec& y) {
  const int p = dist.nranks;
  PTILU_CHECK(machine.nranks() == p, "machine/partition rank mismatch");
  PTILU_CHECK(x.size() == static_cast<std::size_t>(dist.n()) && y.size() == x.size(),
              "dist_spmv size mismatch");
  PTILU_CHECK(halo.recv_lists.size() == static_cast<std::size_t>(p) &&
                  halo.slot.size() == static_cast<std::size_t>(dist.a.nnz()),
              "stale solve plan: halo built for "
                  << halo.recv_lists.size() << " ranks, nnz=" << halo.slot.size()
                  << "; called with " << p << " ranks, nnz=" << dist.a.nnz());
  sim::ScopedPhase phase(machine, "spmv");
  // One ghost region per rank, written only by that rank's body, and one
  // outbound-message lane per Machine::scratch_lanes().
  RealVec ghost(halo.ghost_ptr.back());
  std::size_t lane_size = 0;
  for (const auto& lists : halo.send_lists) {
    for (const auto& [peer, indices] : lists) lane_size = std::max(lane_size, indices.size());
  }
  RealVec lanes(lane_size * static_cast<std::size_t>(machine.scratch_lanes()));

  // Superstep 1: ship boundary values.
  machine.step([&](sim::RankContext& ctx) {
    real* values = lanes.data() + static_cast<std::size_t>(ctx.lane()) * lane_size;
    for (const auto& [peer, indices] : halo.send_lists[ctx.rank()]) {
      for (std::size_t i = 0; i < indices.size(); ++i) values[i] = x[indices[i]];
      ctx.charge_mem(indices.size() * sizeof(real));
      ctx.send_reals(peer, /*tag=*/0, std::span<const real>(values, indices.size()));
    }
  }, "spmv/halo_send");

  // Superstep 2: receive ghosts, compute owned rows.
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    real* g = ghost.data() + halo.ghost_ptr[r];
    // Messages arrive in ascending sender order, one per recv entry, and
    // the rank's ghost region is its recv entries laid end to end.
    const auto& recv = halo.recv_lists[r];
    const std::span<const sim::MessageView> inbox = ctx.recv_all();
    PTILU_CHECK(inbox.size() == recv.size(),
                "rank " << r << " expected " << recv.size() << " halo messages, got "
                        << inbox.size());
    real* next = g;
    for (std::size_t e = 0; e < recv.size(); ++e) {
      PTILU_CHECK(inbox[e].from == recv[e].first, "unexpected halo message");
      PTILU_CHECK(sim::payload_count<real>(inbox[e]) == recv[e].second.size(),
                  "halo message length mismatch");
      next += sim::decode_reals_into(inbox[e], {next, recv[e].second.size()});
    }
    std::uint64_t flops = 0;
    for (const idx row : dist.owned_rows[r]) {
      real acc = 0.0;
      for (nnz_t k = dist.a.row_ptr[row]; k < dist.a.row_ptr[row + 1]; ++k) {
        const idx s = halo.slot[k];
        acc += dist.a.values[k] * (s < 0 ? x[dist.a.col_idx[k]] : g[s]);
      }
      flops += 2 * static_cast<std::uint64_t>(dist.a.row_nnz(row));
      y[row] = acc;
    }
    ctx.charge_flops(flops);
  }, "spmv/compute");
  machine.check_quiescent("spmv/end");
}

}  // namespace ptilu
