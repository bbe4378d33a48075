// Fixture: message traffic outside any lexical ScopedPhase scope — traces
// and metrics would attribute it to the empty phase.
#include "ptilu/sim/machine.hpp"

void violating(ptilu::sim::Machine& machine, const ptilu::IdxVec& data) {
  machine.step([&](ptilu::sim::RankContext& ctx) {
    ctx.send_indices((ctx.rank() + 1) % ctx.nranks(), /*tag=*/0, data);
  }, "fixture/send");
  machine.step([&](ptilu::sim::RankContext& ctx) {
    for (const ptilu::sim::MessageView& msg : ctx.recv_all()) {
      (void)msg;
    }
  }, "fixture/drain");
}
