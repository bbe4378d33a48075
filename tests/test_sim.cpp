// Tests for the simulated distributed-memory machine (BSP cost model).
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ptilu/sim/machine.hpp"

namespace ptilu::sim {
namespace {

TEST(Machine, StartsAtZero) {
  Machine m(4);
  EXPECT_EQ(m.nranks(), 4);
  EXPECT_DOUBLE_EQ(m.modeled_time(), 0.0);
  EXPECT_EQ(m.supersteps(), 0u);
}

TEST(Machine, FlopsAdvanceClock) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.charge_flops(1000);
  });
  // Barrier raises everyone to rank 0's time plus sync cost.
  const double expected = 1000 * m.params().flop;
  EXPECT_GE(m.modeled_time(), expected);
  EXPECT_DOUBLE_EQ(m.rank_time(0), m.rank_time(1));
}

TEST(Machine, BarrierTakesMaxOverRanks) {
  Machine m(3);
  m.step([](RankContext& ctx) {
    ctx.charge_flops(static_cast<std::uint64_t>(ctx.rank()) * 1000);
  });
  const double expected_work = 2000 * m.params().flop;  // slowest rank
  EXPECT_GE(m.modeled_time(), expected_work);
  EXPECT_LT(m.modeled_time(), expected_work + 1e-4);
}

TEST(Machine, MessagesDeliveredNextStep) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, /*tag=*/7, {10, 20, 30});
  });
  bool received = false;
  m.step([&](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    if (ctx.rank() == 1) {
      ASSERT_EQ(msgs.size(), 1u);
      EXPECT_EQ(msgs[0].from, 0);
      EXPECT_EQ(msgs[0].tag, 7);
      const IdxVec data = decode_indices(msgs[0]);
      EXPECT_EQ(data, (IdxVec{10, 20, 30}));
      received = true;
    } else {
      EXPECT_TRUE(msgs.empty());
    }
  });
  EXPECT_TRUE(received);
}

TEST(Machine, RealPayloadRoundTrips) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 1) ctx.send_reals(0, 1, {1.5, -2.25});
  });
  m.step([](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    if (ctx.rank() == 0) {
      ASSERT_EQ(msgs.size(), 1u);
      EXPECT_EQ(decode_reals(msgs[0]), (RealVec{1.5, -2.25}));
    }
  });
}

TEST(Machine, CountersAccumulate) {
  Machine m(2);
  m.step([](RankContext& ctx) {
    ctx.charge_flops(10);
    ctx.charge_mem(100);
    if (ctx.rank() == 0) ctx.send_reals(1, 0, {1.0, 2.0, 3.0});
  });
  EXPECT_EQ(m.counters(0).flops, 10u);
  EXPECT_EQ(m.counters(0).mem_bytes, 100u);
  EXPECT_EQ(m.counters(0).messages_sent, 1u);
  EXPECT_EQ(m.counters(0).bytes_sent, 24u);
  EXPECT_EQ(m.counters(1).messages_sent, 0u);
  const auto total = m.total_counters();
  EXPECT_EQ(total.flops, 20u);
  EXPECT_EQ(total.bytes_sent, 24u);
}

TEST(Machine, CommunicationCostsScaleWithBytes) {
  Machine small(2), big(2);
  small.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_reals(1, 0, RealVec(10, 1.0));
  });
  big.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_reals(1, 0, RealVec(100000, 1.0));
  });
  EXPECT_GT(big.modeled_time(), small.modeled_time());
}

TEST(Machine, MoreRanksCostMorePerBarrier) {
  Machine m2(2), m64(64);
  m2.step([](RankContext&) {});
  m64.step([](RankContext&) {});
  EXPECT_GT(m64.modeled_time(), m2.modeled_time());
}

TEST(Machine, AllreduceHelpers) {
  Machine m(4);
  const double sum = m.allreduce_sum([](int r) { return static_cast<double>(r); });
  EXPECT_DOUBLE_EQ(sum, 6.0);
  const double max = m.allreduce_max([](int r) { return static_cast<double>(r * r); });
  EXPECT_DOUBLE_EQ(max, 9.0);
  const long long count = m.allreduce_sum_ll([](int) { return 2LL; });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(m.supersteps(), 3u);
}

TEST(Machine, ResetClearsState) {
  Machine m(2);
  m.step([](RankContext& ctx) { ctx.charge_flops(5); });
  m.reset();
  EXPECT_DOUBLE_EQ(m.modeled_time(), 0.0);
  EXPECT_EQ(m.counters(0).flops, 0u);
  EXPECT_EQ(m.supersteps(), 0u);
}

TEST(Machine, WorkstationClusterHasSlowerNetwork) {
  const auto t3d = MachineParams::cray_t3d();
  const auto cluster = MachineParams::workstation_cluster();
  EXPECT_GT(cluster.alpha, t3d.alpha);
  EXPECT_GT(cluster.beta, t3d.beta);
}

TEST(Machine, RejectsBadRank) {
  Machine m(2);
  EXPECT_THROW(m.step([](RankContext& ctx) { ctx.send_reals(5, 0, {1.0}); }), Error);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run = [] {
    Machine m(8);
    for (int s = 0; s < 10; ++s) {
      m.step([s](RankContext& ctx) {
        ctx.charge_flops(static_cast<std::uint64_t>((ctx.rank() * 7 + s) % 5) * 100);
        ctx.send_reals((ctx.rank() + 1) % 8, s, RealVec(static_cast<std::size_t>(ctx.rank() + 1), 1.0));
        (void)ctx.recv_all();
      });
    }
    return m.modeled_time();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace ptilu::sim

namespace ptilu::sim {
namespace {

TEST(Machine, CollectiveAdvancesAllClocks) {
  Machine m(8);
  const double before = m.modeled_time();
  m.collective(1024);
  EXPECT_GT(m.modeled_time(), before);
  EXPECT_EQ(m.supersteps(), 1u);
  // All ranks synchronized.
  for (int r = 1; r < 8; ++r) EXPECT_DOUBLE_EQ(m.rank_time(r), m.rank_time(0));
}

TEST(Machine, CollectiveCostsGrowWithRanksAndBytes) {
  Machine m2(2), m64(64);
  m2.collective(1000);
  m64.collective(1000);
  EXPECT_GT(m64.modeled_time(), m2.modeled_time());
  Machine small(4), big(4);
  small.collective(10);
  big.collective(1000000);
  EXPECT_GT(big.modeled_time(), small.modeled_time());
}

TEST(Machine, CollectiveChargesTreeMessages) {
  // The time model prices a log2(p) combining tree; the counters must
  // charge the same tree: one message per hop per rank, plus the payload.
  Machine m8(8);
  m8.collective(100);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(m8.counters(r).messages_sent, 3u);  // ceil(log2(8)) hops
    EXPECT_EQ(m8.counters(r).bytes_sent, 100u);
  }
  Machine m1(1);
  m1.collective(64);
  EXPECT_EQ(m1.counters(0).messages_sent, 1u);  // degenerate tree: one hop
  Machine m5(5);
  m5.collective(0);
  EXPECT_EQ(m5.counters(3).messages_sent, 3u);  // ceil(log2(5)) == 3
}

TEST(Machine, RecvAllSecondDrainSeesEmptyInbox) {
  // recv_all consumes the inbox; a second drain in the same superstep (or
  // any later one) must see a well-defined empty inbox. Checking is
  // explicitly off: this test pins the unchecked fallback behavior, while
  // the conformance checker (test_conformance.cpp) reports the same double
  // drain as a protocol violation.
  Machine m(2, Machine::Options{.check = false});
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, 7, {1, 2, 3});
  });
  m.step([](RankContext& ctx) {
    if (ctx.rank() != 1) return;
    const auto first = ctx.recv_all();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(decode_indices(first[0]), (IdxVec{1, 2, 3}));
    const auto second = ctx.recv_all();
    EXPECT_TRUE(second.empty());
  });
  m.step([](RankContext& ctx) { EXPECT_TRUE(ctx.recv_all().empty()); });
}

TEST(Machine, ChargeTransferAccountsBothSides) {
  Machine m(3);
  m.charge_transfer(0, 2, 8000);
  EXPECT_EQ(m.counters(0).messages_sent, 1u);
  EXPECT_EQ(m.counters(0).bytes_sent, 8000u);
  EXPECT_GT(m.rank_time(0), 0.0);
  EXPECT_GT(m.rank_time(2), 0.0);
  EXPECT_DOUBLE_EQ(m.rank_time(1), 0.0);
  // Sender pays latency on top of bandwidth; receiver only bandwidth.
  EXPECT_GT(m.rank_time(0), m.rank_time(2));
}

TEST(Machine, ChargeTransferRejectsBadRanks) {
  Machine m(2);
  EXPECT_THROW(m.charge_transfer(0, 5, 10), Error);
  EXPECT_THROW(m.charge_transfer(-1, 1, 10), Error);
}

// ---- Message plane: send slabs, delivery order, view lifetime ----------

/// Error text of `body`, or "" when it does not throw.
template <typename Body>
std::string error_of(Body&& body) {
  try {
    body();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

class MessagePlane : public ::testing::TestWithParam<Backend> {
 protected:
  Machine::Options options(bool check = false) const {
    return {.check = check, .backend = GetParam(), .threads = 2, .metrics = false};
  }
};

TEST_P(MessagePlane, DeliversInSenderRankThenPostOrder) {
  // Every rank posts six messages to destinations in a scrambled order;
  // each receiver must see exactly its messages, ascending by sender and,
  // per sender, in post order.
  constexpr int p = 5;
  constexpr int kPosts = 6;
  const auto dest = [](int r, int seq) { return (3 * r + 2 * seq + seq * seq) % p; };
  Machine m(p, options());
  m.step([&](RankContext& ctx) {
    for (int seq = 0; seq < kPosts; ++seq) {
      ctx.send_indices(dest(ctx.rank(), seq), /*tag=*/seq, {ctx.rank(), seq});
    }
  });
  std::vector<std::vector<std::pair<int, int>>> got(p);
  m.step([&](RankContext& ctx) {
    for (const MessageView& msg : ctx.recv_all()) {
      const IdxVec data = decode_indices(msg);
      ASSERT_EQ(data.size(), 2u);
      EXPECT_EQ(data[0], msg.from);
      EXPECT_EQ(data[1], msg.tag);
      got[ctx.rank()].emplace_back(msg.from, msg.tag);
    }
  });
  for (int r = 0; r < p; ++r) {
    std::vector<std::pair<int, int>> expected;
    for (int s = 0; s < p; ++s) {
      for (int seq = 0; seq < kPosts; ++seq) {
        if (dest(s, seq) == r) expected.emplace_back(s, seq);
      }
    }
    EXPECT_EQ(got[r], expected) << "receiver " << r;
  }
}

TEST_P(MessagePlane, FirstDrainViewsSurviveSecondDrainAndNewPosts) {
  Machine m(3, options());
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_indices(1, /*tag=*/7, {1, 2, 3});
    if (ctx.rank() == 2) ctx.send_reals(1, /*tag=*/8, RealVec(1000, 0.5));
  });
  m.step([](RankContext& ctx) {
    const std::span<const MessageView> first = ctx.recv_all();
    // Every rank posts far more than the slabs have held so far, so any
    // view into a slab being refilled would dangle.
    ctx.send_reals((ctx.rank() + 1) % 3, /*tag=*/9, RealVec(20000, 2.0));
    if (ctx.rank() != 1) return;
    EXPECT_TRUE(ctx.recv_all().empty());
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].from, 0);
    EXPECT_EQ(decode_indices(first[0]), (IdxVec{1, 2, 3}));
    EXPECT_EQ(first[1].from, 2);
    EXPECT_EQ(decode_reals(first[1]), RealVec(1000, 0.5));
  });
  m.step([](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(decode_reals(msgs[0]), RealVec(20000, 2.0));
  });
}

TEST_P(MessagePlane, EmptyPayloadIsDeliveredAndCharged) {
  Machine m(2, options());
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_bytes(1, /*tag=*/4, {});
  });
  EXPECT_EQ(m.counters(0).messages_sent, 1u);
  EXPECT_EQ(m.counters(0).bytes_sent, 0u);
  Machine silent(2, options());
  silent.step([](RankContext&) {});
  EXPECT_DOUBLE_EQ(m.modeled_time(), silent.modeled_time() + m.params().alpha);
  m.step([](RankContext& ctx) {
    const auto msgs = ctx.recv_all();
    if (ctx.rank() == 0) {
      EXPECT_TRUE(msgs.empty());
      return;
    }
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].from, 0);
    EXPECT_EQ(msgs[0].tag, 4);
    EXPECT_TRUE(msgs[0].payload.empty());
    EXPECT_TRUE(decode_indices(msgs[0]).empty());
  });
}

TEST_P(MessagePlane, UndrainedEmptyPayloadIsReportedLost) {
  Machine m(2, options(/*check=*/true));
  m.step([](RankContext& ctx) {
    if (ctx.rank() == 0) ctx.send_bytes(1, /*tag=*/4, {});
  }, "test/send_empty");
  const std::string what = error_of([&] { m.step([](RankContext&) {}, "test/ignore"); });
  EXPECT_NE(what.find("rank 1 never received 1 message(s)"), std::string::npos) << what;
}

TEST_P(MessagePlane, SendToInvalidRankIsDiagnosed) {
  // Unchecked; the checker's report is pinned across backends by
  // BackendConformance.BadSendReportsMatch.
  for (const int to : {2, -1}) {
    Machine m(2, options());
    const std::string what = error_of([&] {
      m.step([&](RankContext& ctx) { ctx.send_reals(to, 0, {1.0}); });
    });
    EXPECT_NE(what.find("send to invalid rank " + std::to_string(to)), std::string::npos)
        << what;
  }
}

TEST_P(MessagePlane, DecodeRejectsPartialElements) {
  Machine m(2, options());
  m.step([](RankContext& ctx) {
    const std::byte three[3] = {};
    if (ctx.rank() == 0) ctx.send_bytes(1, /*tag=*/0, three);
  });
  m.step([](RankContext& ctx) {
    for (const MessageView& msg : ctx.recv_all()) {
      EXPECT_EQ(msg.payload.size(), 3u);
      EXPECT_NE(error_of([&] { (void)decode_reals(msg); }).find("not a multiple"),
                std::string::npos);
    }
  });
}

TEST_P(MessagePlane, ResetDropsMessagesInFlight) {
  Machine m(2, options());
  m.step([](RankContext& ctx) { ctx.send_indices(1 - ctx.rank(), 0, {1}); });
  m.step([](RankContext& ctx) { ctx.send_indices(1 - ctx.rank(), 0, {2}); });
  m.reset();
  m.step([](RankContext& ctx) { EXPECT_TRUE(ctx.recv_all().empty()); });
  m.step([](RankContext& ctx) { EXPECT_TRUE(ctx.recv_all().empty()); });
}

INSTANTIATE_TEST_SUITE_P(Backends, MessagePlane,
                         ::testing::Values(Backend::kSequential, Backend::kThreads),
                         [](const ::testing::TestParamInfo<Backend>& backend) {
                           return std::string(backend_name(backend.param));
                         });

}  // namespace
}  // namespace ptilu::sim
