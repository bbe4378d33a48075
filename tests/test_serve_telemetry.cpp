// Serving-telemetry tests (serve/telemetry.hpp): the mergeable latency
// histogram's bit-exact bucketing and merge/quantile contracts, the
// request-lifecycle event log and its Chrome trace export, the batch and
// stream attribution identities (decomposition re-sums, first-argmax
// straggler elections, exact busy/idle rollups), and the telemetry
// counter mirroring into sim::Metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "ptilu/serve/serve_report.hpp"
#include "ptilu/serve/solve_service.hpp"
#include "ptilu/serve/telemetry.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"

namespace ptilu {
namespace {

using Hist = serve::LatencyHistogram;

TEST(LatencyHistogram, BucketEdgesAreExactDyadics) {
  // The first edge is 2^kMinExp exactly; every edge is ldexp(1 + i/32, e).
  EXPECT_EQ(Hist::bucket_lower(0), std::ldexp(1.0, Hist::kMinExp));
  EXPECT_EQ(Hist::bucket_lower(Hist::kBucketCount), std::ldexp(1.0, Hist::kMaxExp));
  for (const int index : {0, 1, 31, 32, 33, 960, Hist::kBucketCount - 1}) {
    const double lower = Hist::bucket_lower(index);
    const double upper = Hist::bucket_upper(index);
    EXPECT_LT(lower, upper);
    // Edges are exactly representable: the dyadic reconstruction round-trips.
    const int octave = Hist::kMinExp + index / Hist::kSubBuckets;
    const double sub = static_cast<double>(index % Hist::kSubBuckets) /
                       static_cast<double>(Hist::kSubBuckets);
    EXPECT_EQ(lower, std::ldexp(1.0 + sub, octave));
  }
}

TEST(LatencyHistogram, BucketIndexIsConsistentWithEdges) {
  // A boundary value belongs to the bucket it opens, values just below it
  // to the previous bucket — and every value lies inside its bucket.
  for (const int index : {0, 5, 31, 32, 100, Hist::kBucketCount - 1}) {
    const double lower = Hist::bucket_lower(index);
    EXPECT_EQ(Hist::bucket_index(lower), index);
    const double inside = lower * (1.0 + 1.0 / 128.0);  // < next edge (1/32 apart)
    EXPECT_EQ(Hist::bucket_index(inside), index);
  }
  EXPECT_EQ(Hist::bucket_index(std::nextafter(Hist::bucket_lower(10), 0.0)), 9);
  EXPECT_EQ(Hist::bucket_index(0.0), -1);
  EXPECT_EQ(Hist::bucket_index(-1.0), -1);
  EXPECT_EQ(Hist::bucket_index(std::ldexp(1.0, Hist::kMaxExp)), Hist::kBucketCount);
  EXPECT_EQ(Hist::bucket_index(1e30), Hist::kBucketCount);
}

TEST(LatencyHistogram, CountIdentityAndOverUnderflow) {
  Hist hist;
  hist.record(1.5);                             // regular bucket
  hist.record(0.0);                             // underflow
  hist.record(-2.0);                            // underflow
  hist.record(std::ldexp(1.0, Hist::kMaxExp));  // overflow
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.underflow(), 2u);
  EXPECT_EQ(hist.overflow(), 1u);
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t count : hist.counts()) in_buckets += count;
  // Σ bucket counts + underflow + overflow == values recorded, always.
  EXPECT_EQ(in_buckets + hist.underflow() + hist.overflow(), hist.total());
  EXPECT_THROW(hist.record(std::nan("")), Error);
}

TEST(LatencyHistogram, MergedHistogramIsBitIdenticalToDirectRecording) {
  Rng rng(42);
  std::vector<double> values(1000);
  for (double& v : values) v = rng.uniform(1e-6, 10.0);

  Hist direct;
  for (const double v : values) direct.record(v);

  serve::ServeTelemetry telemetry;
  std::vector<Hist> shards(4);
  for (std::size_t i = 0; i < values.size(); ++i) shards[i % 4].record(values[i]);
  for (int s = 1; s < 4; ++s) shards[0].merge(shards[static_cast<std::size_t>(s)], &telemetry);

  EXPECT_EQ(shards[0].total(), direct.total());
  EXPECT_EQ(shards[0].underflow(), direct.underflow());
  EXPECT_EQ(shards[0].overflow(), direct.overflow());
  EXPECT_EQ(shards[0].counts(), direct.counts());  // element-wise bit identity
  EXPECT_EQ(telemetry.stats().histogram_merges, 3u);
  // Same sample, same buckets -> identical quantile reads.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(shards[0].quantile(q), direct.quantile(q));
  }
}

TEST(LatencyHistogram, QuantileWithinResolutionBoundOfExactSample) {
  Rng rng(7);
  std::vector<double> values(500);
  for (double& v : values) v = rng.uniform(1e-4, 5.0);
  Hist hist;
  for (const double v : values) hist.record(v);
  const serve::SortedSample exact(values);
  const double bound = 1.0 + Hist::relative_error_bound();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double approx = hist.quantile(q);
    const double truth = exact.quantile(q);
    // Upper bucket edge: strictly above the truth, within one bucket width.
    EXPECT_GT(approx, truth) << "q=" << q;
    EXPECT_LE(approx, truth * bound) << "q=" << q;
  }
}

TEST(LatencyHistogram, QuantileEdgeRules) {
  Hist empty;
  EXPECT_THROW(empty.quantile(0.5), Error);

  Hist hist;
  hist.record(1.0);
  EXPECT_THROW(hist.quantile(-0.1), Error);
  EXPECT_THROW(hist.quantile(1.5), Error);
  // Single sample: every quantile reads its bucket's upper edge.
  const int bucket = Hist::bucket_index(1.0);
  EXPECT_EQ(hist.quantile(0.0), Hist::bucket_upper(bucket));
  EXPECT_EQ(hist.quantile(1.0), Hist::bucket_upper(bucket));

  Hist under;
  under.record(0.0);
  EXPECT_EQ(under.quantile(0.5), std::ldexp(1.0, Hist::kMinExp));
  Hist over;
  over.record(1e30);
  EXPECT_EQ(over.quantile(0.5), std::ldexp(1.0, Hist::kMaxExp));
}

// A small deterministic serving scenario shared by the attribution tests:
// four requests, a cap-2 plan formed from explicit unit costs.
struct Scenario {
  std::vector<serve::Request> schedule;
  serve::BatchCostModel costs;
  std::vector<serve::Batch> plan;

  Scenario() {
    costs.cache_resolve_s = 0.25;
    costs.stream_shared_s = 1.0;
    costs.column_solve_s = 0.5;
    for (const double arrival : {0.5, 0.6, 0.7, 5.0}) {
      serve::Request request;
      request.arrival_s = arrival;
      request.rhs_seed = static_cast<std::uint64_t>(schedule.size());
      schedule.push_back(request);
    }
    plan = serve::plan_serve(schedule, 2,
                             [this](int k) { return costs.total_s(k); });
  }
};

TEST(AttributeBatches, DecompositionResumsAndQueueRecursionMatches) {
  Scenario sc;
  serve::ServeTelemetry telemetry;
  const serve::ApplyAttribution attr =
      serve::attribute_batches(sc.schedule, sc.plan, sc.costs, 2, &telemetry);
  ASSERT_EQ(attr.batches.size(), sc.plan.size());
  int covered = 0;
  for (std::size_t b = 0; b < attr.batches.size(); ++b) {
    const serve::BatchAttribution& batch = attr.batches[b];
    EXPECT_EQ(batch.first, covered);
    covered += batch.count;
    // The decomposition re-sums to the planned service time BIT-EXACTLY
    // in the documented fold order.
    double acc = sc.costs.stream_shared_s;
    for (int c = 0; c < batch.count; ++c) acc += batch.column_solve_s[static_cast<std::size_t>(c)];
    EXPECT_EQ(sc.costs.cache_resolve_s + acc, batch.service_s);
    EXPECT_EQ(batch.service_s, sc.plan[b].service_s);
    EXPECT_EQ(batch.start_s, sc.plan[b].start_s);
    for (int c = 0; c < batch.count; ++c) {
      EXPECT_EQ(batch.queue_wait_s[static_cast<std::size_t>(c)],
                batch.start_s - batch.arrival_s[static_cast<std::size_t>(c)]);
      EXPECT_GE(batch.queue_wait_s[static_cast<std::size_t>(c)], 0.0);
    }
    // Uniform per-column costs: the first-argmax election is column 0.
    EXPECT_EQ(batch.straggler_column, 0);
  }
  EXPECT_EQ(covered, static_cast<int>(sc.schedule.size()));
  // Batch 0 starts at request 0's arrival (server idle), so it is
  // arrival-gated; the burst at 0.6/0.7 queues behind it.
  EXPECT_TRUE(attr.batches.front().arrival_gated);

  EXPECT_EQ(telemetry.stats().requests, sc.schedule.size());
  EXPECT_EQ(telemetry.stats().batches, sc.plan.size());
  EXPECT_EQ(telemetry.stats().straggler_elections, sc.plan.size());
}

TEST(AttributeBatches, LaneRollupIdentities) {
  Scenario sc;
  const serve::ApplyAttribution attr =
      serve::attribute_batches(sc.schedule, sc.plan, sc.costs, 2);
  const serve::LaneRollup& lanes = attr.lanes;
  ASSERT_EQ(lanes.busy_s.size(), 2u);
  // elapsed folds each batch's widest column; busy folds each lane's own
  // contributions (0 when the batch was narrower) -> busy <= elapsed and
  // idle derives exactly.
  std::uint64_t elections = 0;
  for (std::size_t lane = 0; lane < lanes.busy_s.size(); ++lane) {
    EXPECT_LE(lanes.busy_s[lane], lanes.elapsed_s);
    EXPECT_EQ(lanes.idle_s[lane], lanes.elapsed_s - lanes.busy_s[lane]);
    elections += lanes.elections[lane];
  }
  EXPECT_EQ(elections, sc.plan.size());  // exactly one election per batch
  // Lane 1 only works in batches of width 2, so it is strictly idler.
  EXPECT_GT(lanes.busy_s[0], lanes.busy_s[1]);
  EXPECT_GE(lanes.imbalance, 1.0);
}

TEST(LaneRollup, TieElectsLowestLaneAndZeroBusyReadsZero) {
  serve::LaneRollup rollup;
  rollup.busy_s.assign(3, 0.0);
  rollup.elections.assign(3, 0);
  EXPECT_EQ(rollup.elect(std::vector<double>{0.0, 0.0, 0.0}), 0u);
  rollup.finish();
  EXPECT_EQ(rollup.imbalance, 0.0);  // no lane did any work
  EXPECT_EQ(rollup.elect(std::vector<double>{1.0, 2.0, 2.0}), 1u);
  EXPECT_EQ(rollup.elect(std::vector<double>{3.0, 3.0}), 0u);  // narrower round
  rollup.finish();
  EXPECT_EQ(rollup.elapsed_s, 5.0);
  EXPECT_EQ(rollup.busy_s, (std::vector<double>{4.0, 5.0, 2.0}));
  EXPECT_EQ(rollup.idle_s, (std::vector<double>{1.0, 0.0, 3.0}));
  EXPECT_EQ(rollup.elections, (std::vector<std::uint64_t>{2, 1, 0}));
  EXPECT_EQ(rollup.imbalance, 5.0 / (11.0 / 3.0));
}

TEST(AttributeBatches, RejectsForeignPlansAndCosts) {
  Scenario sc;
  // A cost model the plan was NOT formed from: decomposition would not
  // re-sum, so attribution must refuse.
  serve::BatchCostModel other = sc.costs;
  other.column_solve_s *= 2.0;
  EXPECT_THROW(serve::attribute_batches(sc.schedule, sc.plan, other, 2), Error);
  // A lane count narrower than the widest batch cannot hold the rollup.
  EXPECT_THROW(serve::attribute_batches(sc.schedule, sc.plan, sc.costs, 1), Error);
  // A plan that does not cover the schedule is rejected.
  std::vector<serve::Batch> truncated(sc.plan.begin(), sc.plan.end() - 1);
  EXPECT_THROW(serve::attribute_batches(sc.schedule, truncated, sc.costs, 2), Error);
}

TEST(AttributeStreams, RoundsElectionsAndRollups) {
  const std::vector<long long> matvecs = {3, 5, 7, 2, 6};
  const double step = 0.125;  // dyadic, so every cost is exact
  serve::ServeTelemetry telemetry;
  const serve::StreamAttribution attr =
      serve::attribute_streams(2, matvecs, step, &telemetry);
  ASSERT_EQ(attr.rounds.size(), 3u);  // ceil(5 / 2)
  // Round 0: {3,5} -> straggler 1; round 1: {7,2} -> 0; round 2: {6,-} -> 0.
  EXPECT_EQ(attr.rounds[0].straggler, 1);
  EXPECT_EQ(attr.rounds[1].straggler, 0);
  EXPECT_EQ(attr.rounds[2].straggler, 0);
  EXPECT_EQ(attr.rounds[0].elapsed_s, 5.0 * step);
  EXPECT_EQ(attr.rounds[2].cost_s[1], 0.0);  // tail round: stream 1 idles
  EXPECT_EQ(attr.rollup.elapsed_s, (5.0 + 7.0 + 6.0) * step);
  EXPECT_EQ(attr.rollup.busy_s[0], (3.0 + 7.0 + 6.0) * step);
  EXPECT_EQ(attr.rollup.busy_s[1], (5.0 + 2.0) * step);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(attr.rollup.idle_s[static_cast<std::size_t>(s)],
              attr.rollup.elapsed_s - attr.rollup.busy_s[static_cast<std::size_t>(s)]);
  }
  EXPECT_EQ(attr.rollup.elections[0], 2u);
  EXPECT_EQ(attr.rollup.elections[1], 1u);
  const double mean = (attr.rollup.busy_s[0] + attr.rollup.busy_s[1]) / 2.0;
  EXPECT_EQ(attr.rollup.imbalance, attr.rollup.busy_s[0] / mean);
  EXPECT_EQ(telemetry.stats().straggler_elections, 3u);

  EXPECT_THROW(serve::attribute_streams(0, matvecs, step), Error);
  EXPECT_THROW(serve::attribute_streams(2, {}, step), Error);
  EXPECT_THROW(serve::attribute_streams(2, matvecs, 0.0), Error);
}

TEST(ServeTelemetry, MirrorsIntoMetricsRegistryWithTopUp) {
  serve::ServeTelemetry telemetry;
  telemetry.count_requests(10);
  telemetry.count_batches(3);

  // Attaching AFTER activity replays history: registry == stats() from
  // the first read (the FactorCache serve/cache/* idiom).
  sim::Metrics registry(1);
  telemetry.attach_metrics(&registry);
  EXPECT_EQ(registry.counter_value("serve/telemetry/requests", 0), 10u);
  EXPECT_EQ(registry.counter_value("serve/telemetry/batches", 0), 3u);
  EXPECT_EQ(registry.counter_value("serve/telemetry/straggler_elections", 0), 0u);

  telemetry.count_elections(4);
  telemetry.count_histogram_merge();
  EXPECT_EQ(registry.counter_value("serve/telemetry/straggler_elections", 0), 4u);
  EXPECT_EQ(registry.counter_value("serve/telemetry/histogram_merges", 0), 1u);
  EXPECT_EQ(telemetry.stats().requests, 10u);
  EXPECT_EQ(telemetry.stats().straggler_elections, 4u);
}

TEST(EventLog, LifecycleJournalAndChromeExport) {
  Scenario sc;
  const serve::ApplyAttribution attr =
      serve::attribute_batches(sc.schedule, sc.plan, sc.costs, 2);
  serve::EventLog log;
  // Recording without a group is a contract violation.
  EXPECT_THROW(log.record(serve::ServeEvent{}), Error);
  log.begin_group("apply b<=2");
  const std::vector<bool> hits(sc.plan.size(), true);
  serve::append_lifecycle_events(log, sc.schedule, attr, sc.costs,
                                 0xDEADBEEFCAFEF00DULL, hits);
  // One enqueue + admit + complete per request, one resolve + solve-start
  // per batch.
  EXPECT_EQ(log.size(), 3 * sc.schedule.size() + 2 * sc.plan.size());

  // Every request's events are causally ordered on the modeled clock.
  std::vector<double> enqueue(sc.schedule.size(), -1.0), admit(sc.schedule.size(), -1.0),
      complete(sc.schedule.size(), -1.0);
  for (const serve::ServeEvent& event : log.events()) {
    if (event.request < 0) continue;
    const auto r = static_cast<std::size_t>(event.request);
    if (event.stage == serve::ServeStage::kEnqueue) enqueue[r] = event.t_model_s;
    if (event.stage == serve::ServeStage::kAdmit) admit[r] = event.t_model_s;
    if (event.stage == serve::ServeStage::kComplete) complete[r] = event.t_model_s;
  }
  for (std::size_t r = 0; r < sc.schedule.size(); ++r) {
    EXPECT_LE(enqueue[r], admit[r]);
    EXPECT_LT(admit[r], complete[r]);
  }

  std::ostringstream os;
  log.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("apply b<=2 requests"), std::string::npos);
  EXPECT_NE(trace.find("apply b<=2 batches"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"solve batch\""), std::string::npos);
  EXPECT_NE(trace.find("deadbeefcafef00d"), std::string::npos);
  EXPECT_NE(trace.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
}

TEST(ServeReport, SerializesDeterministically) {
  Scenario sc;
  serve::ServeTelemetry telemetry;
  serve::ServeReportV1 report;
  report.run = {{"workload", "\"unit\""}, {"requests", "4"}};
  report.histogram_shards = 2;
  serve::ApplySection section;
  section.cap = 2;
  section.n = 16;
  section.nnz = 64;
  section.nnz_l = 40;
  section.nnz_u = 40;
  section.fingerprint = 0x0123456789ABCDEFULL;
  section.costs = sc.costs;
  section.attribution = serve::attribute_batches(sc.schedule, sc.plan, sc.costs, 2, &telemetry);
  section.cache_hit.assign(sc.plan.size(), true);
  std::vector<double> latencies;
  for (const serve::Request& request : sc.schedule) latencies.push_back(request.arrival_s + 1.0);
  for (const double v : latencies) section.hist.record(v);
  const serve::SortedSample exact(latencies);
  section.exact_p50 = exact.quantile(0.5);
  section.exact_p99 = exact.quantile(0.99);
  section.hist_p50 = section.hist.quantile(0.5);
  section.hist_p99 = section.hist.quantile(0.99);
  report.apply.push_back(section);
  report.has_stream = true;
  report.stream = serve::attribute_streams(2, {3, 5, 4}, 0.25, &telemetry);
  report.telemetry = telemetry.stats();

  const std::string a = serve::write_serve_report_json(report);
  const std::string b = serve::write_serve_report_json(report);
  EXPECT_EQ(a, b);  // bit-stable serialization
  EXPECT_NE(a.find("\"schema\":\"ptilu-serve-report-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"fingerprint\":\"0123456789abcdef\""), std::string::npos);
  EXPECT_NE(a.find("\"sub_buckets\":32"), std::string::npos);
  EXPECT_NE(a.find("\"straggler_elections\":"), std::string::npos);
  // No backend/thread identity: the report must byte-diff across backends.
  EXPECT_EQ(a.find("backend"), std::string::npos);
  EXPECT_EQ(a.find("threads"), std::string::npos);
}

TEST(BatchCostModel, FoldOrderAndLegacyWrapper) {
  const serve::BatchCostModel costs =
      serve::modeled_batch_costs(1000, 4000, 5000, 5000, 40e-9, 5e-9);
  EXPECT_GT(costs.cache_resolve_s, 0.0);
  EXPECT_GT(costs.stream_shared_s, 0.0);
  EXPECT_GT(costs.column_solve_s, 0.0);
  for (const int k : {1, 2, 7}) {
    double acc = costs.stream_shared_s;
    for (int c = 0; c < k; ++c) acc += costs.column_solve_s;
    EXPECT_EQ(costs.total_s(k), costs.cache_resolve_s + acc);
  }
  EXPECT_THROW(costs.total_s(0), Error);
  // The legacy wrapper is the same fold without the cache-resolve term.
  serve::BatchCostModel no_cache = serve::modeled_batch_costs(1000, 0, 5000, 5000, 40e-9, 5e-9);
  no_cache.cache_resolve_s = 0.0;
  EXPECT_EQ(serve::modeled_batch_service_s(3, 1000, 5000, 5000, 40e-9, 5e-9),
            no_cache.total_s(3));
}

TEST(ModeledStreamStep, PositiveAndMonotoneInWork) {
  const double base = serve::modeled_stream_step_s(1000, 4000, 5000, 5000, 40e-9, 5e-9);
  EXPECT_GT(base, 0.0);
  EXPECT_GT(serve::modeled_stream_step_s(1000, 8000, 5000, 5000, 40e-9, 5e-9), base);
  EXPECT_GT(serve::modeled_stream_step_s(1000, 4000, 9000, 5000, 40e-9, 5e-9), base);
}

}  // namespace
}  // namespace ptilu
