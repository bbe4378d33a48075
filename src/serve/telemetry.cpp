#include "ptilu/serve/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>

#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/report.hpp"

namespace ptilu::serve {

// --- ServeTelemetry ---------------------------------------------------------

void ServeTelemetry::attach_metrics(sim::Metrics* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  requests_id_ = metrics_->counter_id("serve/telemetry/requests");
  batches_id_ = metrics_->counter_id("serve/telemetry/batches");
  elections_id_ = metrics_->counter_id("serve/telemetry/straggler_elections");
  merges_id_ = metrics_->counter_id("serve/telemetry/histogram_merges");
  // Replay pre-attachment history so registry == stats() from the first
  // read (same top-up idiom as FactorCache::attach_metrics).
  const auto top_up = [this](std::uint32_t id, const char* name, std::uint64_t want) {
    const std::uint64_t have = metrics_->counter_value(name, 0);
    if (want > have) metrics_->add_counter(id, 0, want - have);
  };
  top_up(requests_id_, "serve/telemetry/requests", stats_.requests);
  top_up(batches_id_, "serve/telemetry/batches", stats_.batches);
  top_up(elections_id_, "serve/telemetry/straggler_elections", stats_.straggler_elections);
  top_up(merges_id_, "serve/telemetry/histogram_merges", stats_.histogram_merges);
}

void ServeTelemetry::bump(std::uint64_t TelemetryStats::* slot, std::uint32_t counter,
                          std::uint64_t n) {
  stats_.*slot += n;
  if (metrics_ != nullptr && n > 0) metrics_->add_counter(counter, 0, n);
}

void ServeTelemetry::count_requests(std::uint64_t n) {
  bump(&TelemetryStats::requests, requests_id_, n);
}

void ServeTelemetry::count_batches(std::uint64_t n) {
  bump(&TelemetryStats::batches, batches_id_, n);
}

void ServeTelemetry::count_elections(std::uint64_t n) {
  bump(&TelemetryStats::straggler_elections, elections_id_, n);
}

void ServeTelemetry::count_histogram_merge() {
  bump(&TelemetryStats::histogram_merges, merges_id_, 1);
}

// --- LatencyHistogram -------------------------------------------------------

int LatencyHistogram::bucket_index(double v) {
  PTILU_CHECK(v == v, "LatencyHistogram: NaN value");
  if (v < bucket_lower(0)) return -1;  // zero/negative/subnormal-small → underflow
  if (v >= bucket_lower(kBucketCount)) return kBucketCount;  // incl. +inf
  int exp2 = 0;
  const double frac = std::frexp(v, &exp2);  // v = frac·2^exp2, frac ∈ [0.5, 1)
  const int octave = exp2 - 1;               // v ∈ [2^octave, 2^(octave+1))
  // (frac·2 − 1)·kSubBuckets is exact: frac·2 ∈ [1, 2) doubles, the
  // subtraction is exact by Sterbenz, and the scale is a power of two —
  // so the floor, and therefore the bucket, is platform-independent.
  const double within = (frac * 2.0 - 1.0) * static_cast<double>(kSubBuckets);
  const int sub = static_cast<int>(within);
  return (octave - kMinExp) * kSubBuckets + sub;
}

double LatencyHistogram::bucket_lower(int index) {
  PTILU_ASSERT(index >= 0 && index <= kBucketCount,
               "LatencyHistogram: bucket index out of range");
  const int octave = kMinExp + index / kSubBuckets;
  const double sub =
      static_cast<double>(index % kSubBuckets) / static_cast<double>(kSubBuckets);
  // 1 + i/32 is a dyadic rational: ldexp of it is exactly representable
  // and exactly recomputable (math.ldexp in the Python validator).
  return std::ldexp(1.0 + sub, octave);
}

double LatencyHistogram::bucket_upper(int index) { return bucket_lower(index + 1); }

void LatencyHistogram::record(double v) {
  const int index = bucket_index(v);
  if (index < 0) {
    ++underflow_;
  } else if (index >= kBucketCount) {
    ++overflow_;
  } else {
    ++counts_[static_cast<std::size_t>(index)];
  }
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other, ServeTelemetry* telemetry) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  if (telemetry != nullptr) telemetry->count_histogram_merge();
}

double LatencyHistogram::quantile(double q) const {
  PTILU_CHECK(total_ > 0, "LatencyHistogram: empty histogram has no quantiles");
  PTILU_CHECK(q >= 0.0 && q <= 1.0, "quantile order out of [0, 1]");
  // Same nearest-rank convention as SortedSample::quantile, so the two
  // reads target the SAME sample and the bucket-resolution bound applies.
  const auto rank_raw =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  const std::uint64_t rank = std::max<std::uint64_t>(1, std::min(rank_raw, total_));
  std::uint64_t cumulative = underflow_;
  if (rank <= cumulative) return bucket_lower(0);  // underflow upper edge
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += counts_[static_cast<std::size_t>(i)];
    if (rank <= cumulative) return bucket_upper(i);
  }
  return bucket_lower(kBucketCount);  // overflow: its (unbounded) lower edge
}

// --- EventLog ---------------------------------------------------------------

const char* serve_stage_name(ServeStage stage) {
  switch (stage) {
    case ServeStage::kEnqueue: return "enqueue";
    case ServeStage::kCacheResolve: return "cache_resolve";
    case ServeStage::kAdmit: return "admit";
    case ServeStage::kSolveStart: return "solve_start";
    case ServeStage::kComplete: return "complete";
  }
  return "unknown";
}

int EventLog::begin_group(const std::string& label) {
  group_labels_.push_back(label);
  return static_cast<int>(group_labels_.size()) - 1;
}

void EventLog::record(const ServeEvent& event) {
  PTILU_CHECK(!group_labels_.empty(), "EventLog: begin_group before recording");
  events_.push_back(event);
  event_group_.push_back(static_cast<int>(group_labels_.size()) - 1);
}

void EventLog::write_chrome_trace(std::ostream& os) const {
  // Rebuild spans from the journal. Keyed std::maps (ordered) keep the
  // reconstruction deterministic — no unordered iteration on this path.
  struct RequestSpans {
    double enqueue = -1.0, admit = -1.0, complete = -1.0, wall = -1.0;
  };
  struct BatchSpans {
    double resolve = -1.0, solve_start = -1.0, complete = -1.0, wall = -1.0;
    bool hit = false;
    std::uint64_t fingerprint = 0;
  };
  std::map<std::pair<int, int>, RequestSpans> requests;  // (group, request)
  std::map<std::pair<int, int>, BatchSpans> batches;     // (group, batch)
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const ServeEvent& event = events_[i];
    const int group = event_group_[i];
    switch (event.stage) {
      case ServeStage::kEnqueue:
        requests[{group, event.request}].enqueue = event.t_model_s;
        break;
      case ServeStage::kAdmit:
        requests[{group, event.request}].admit = event.t_model_s;
        break;
      case ServeStage::kComplete: {
        RequestSpans& spans = requests[{group, event.request}];
        spans.complete = event.t_model_s;
        spans.wall = event.t_wall_s;
        BatchSpans& batch = batches[{group, event.batch}];
        batch.complete = event.t_model_s;
        if (event.t_wall_s >= 0.0) batch.wall = event.t_wall_s;
        break;
      }
      case ServeStage::kCacheResolve: {
        BatchSpans& batch = batches[{group, event.batch}];
        batch.resolve = event.t_model_s;
        batch.hit = event.cache_hit;
        batch.fingerprint = event.fingerprint;
        break;
      }
      case ServeStage::kSolveStart:
        batches[{group, event.batch}].solve_start = event.t_model_s;
        break;
    }
  }

  std::string out;
  out.reserve(256 + events_.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  // Two Perfetto processes per group: requests (tid = request id) and
  // batches (tid = batch id) — same layout idea as sim::Trace's one
  // process per rank.
  for (std::size_t g = 0; g < group_labels_.size(); ++g) {
    for (int half = 0; half < 2; ++half) {
      const int pid = static_cast<int>(g) * 2 + half;
      sep();
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":0,\"args\":{\"name\":\"";
      out += group_labels_[g];
      out += half == 0 ? " requests" : " batches";
      out += "\"}}";
      sep();
      out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":0,\"args\":{\"sort_index\":";
      out += std::to_string(pid);
      out += "}}";
    }
  }
  const auto span = [&](const char* name, int pid, int tid, double start_s,
                        double end_s, const std::string& args_json) {
    if (start_s < 0.0 || end_s < start_s) return;  // incomplete lifecycle
    sep();
    out += "{\"name\":\"";
    out += name;
    out += "\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":";
    report::append_number(out, start_s * 1e6);  // trace_event timestamps are in µs
    out += ",\"dur\":";
    report::append_number(out, (end_s - start_s) * 1e6);
    out += ",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{";
    out += args_json;
    out += "}}";
  };
  for (const auto& [key, spans] : requests) {
    const int pid = key.first * 2;
    std::string args = "\"request\":" + std::to_string(key.second);
    span("wait", pid, key.second, spans.enqueue, spans.admit, args);
    if (spans.wall >= 0.0) {
      args += ",\"wall_complete_s\":";
      report::append_number(args, spans.wall);
    }
    span("solve", pid, key.second, spans.admit, spans.complete, args);
  }
  for (const auto& [key, spans] : batches) {
    const int pid = key.first * 2 + 1;
    std::string args = "\"batch\":" + std::to_string(key.second);
    args += ",\"cache_hit\":";
    args += spans.hit ? "true" : "false";
    args += ",\"fingerprint\":\"";
    report::append_hex16(args, spans.fingerprint);
    args += "\"";
    span("resolve", pid, key.second, spans.resolve, spans.solve_start, args);
    if (spans.wall >= 0.0) {
      args += ",\"wall_complete_s\":";
      report::append_number(args, spans.wall);
    }
    span("solve batch", pid, key.second, spans.solve_start, spans.complete, args);
  }
  out += "\n]}\n";
  os << out;
}

void EventLog::write_chrome_trace_file(const std::string& path) const {
  std::ofstream file(path);
  PTILU_CHECK(file.good(), "cannot open serve trace file " << path);
  write_chrome_trace(file);
  file.flush();
  PTILU_CHECK(file.good(), "failed writing serve trace file " << path);
}

// --- Batch attribution ------------------------------------------------------

std::size_t LaneRollup::elect(std::span<const double> cost) {
  const std::size_t winner = report::first_argmax(cost);
  elapsed_s += cost[winner];
  for (std::size_t c = 0; c < cost.size(); ++c) busy_s[c] += cost[c];
  ++elections[winner];
  return winner;
}

void LaneRollup::finish() {
  // busy <= elapsed bit-exactly (each round adds at most its winner's
  // cost, and IEEE addition is monotone), so derived idle is never negative.
  idle_s.resize(busy_s.size());
  for (std::size_t c = 0; c < busy_s.size(); ++c) idle_s[c] = elapsed_s - busy_s[c];
  imbalance = report::busy_imbalance(busy_s);
}


ApplyAttribution attribute_batches(const std::vector<Request>& schedule,
                                   const std::vector<Batch>& plan,
                                   const BatchCostModel& costs, int lanes,
                                   ServeTelemetry* telemetry) {
  PTILU_CHECK(!plan.empty(), "attribute_batches: empty plan");
  PTILU_CHECK(lanes >= 1, "attribute_batches: lane count must be >= 1");
  ApplyAttribution out;
  out.batches.reserve(plan.size());
  out.lanes.busy_s.assign(static_cast<std::size_t>(lanes), 0.0);
  out.lanes.elections.assign(static_cast<std::size_t>(lanes), 0);

  double server_free = 0.0;
  int expected_first = 0;
  std::uint64_t total_requests = 0;
  for (const Batch& batch : plan) {
    PTILU_CHECK(batch.first == expected_first && batch.count >= 1,
                "attribute_batches: plan is not a FIFO partition of the schedule");
    PTILU_CHECK(batch.count <= lanes,
                "attribute_batches: batch wider than the lane count");
    PTILU_CHECK(batch.first + batch.count <= static_cast<int>(schedule.size()),
                "attribute_batches: plan overruns the schedule");

    BatchAttribution attr;
    attr.first = batch.first;
    attr.count = batch.count;
    // Re-run the queueing recursion and demand agreement with the plan:
    // the decomposition must describe the batches that actually formed.
    const double last_arrival =
        schedule[static_cast<std::size_t>(batch.first + batch.count - 1)].arrival_s;
    attr.start_s = std::max(server_free, last_arrival);
    PTILU_CHECK(attr.start_s == batch.start_s,
                "attribute_batches: plan start_s diverges from the queue recursion");
    attr.arrival_gated = last_arrival > server_free;  // the server sat idle
    attr.arrival_s.reserve(static_cast<std::size_t>(batch.count));
    attr.queue_wait_s.reserve(static_cast<std::size_t>(batch.count));
    attr.column_solve_s.assign(static_cast<std::size_t>(batch.count),
                               costs.column_solve_s);
    for (int c = 0; c < batch.count; ++c) {
      const double arrival =
          schedule[static_cast<std::size_t>(batch.first + c)].arrival_s;
      attr.arrival_s.push_back(arrival);
      attr.queue_wait_s.push_back(attr.start_s - arrival);
    }
    attr.service_s = costs.total_s(batch.count);
    PTILU_CHECK(attr.service_s == batch.service_s,
                "attribute_batches: plan service times were not formed from this "
                "cost model — decomposition would not re-sum");

    // Lane c is column c; the lowest column at the maximum wins, as the
    // first rank at the maximum clock wins a Metrics::on_sync barrier.
    attr.straggler_column = static_cast<int>(out.lanes.elect(attr.column_solve_s));

    server_free = attr.start_s + attr.service_s;
    expected_first += batch.count;
    total_requests += static_cast<std::uint64_t>(batch.count);
    out.batches.push_back(std::move(attr));
  }
  PTILU_CHECK(expected_first == static_cast<int>(schedule.size()),
              "attribute_batches: plan does not cover the schedule");

  out.lanes.finish();

  if (telemetry != nullptr) {
    telemetry->count_requests(total_requests);
    telemetry->count_batches(plan.size());
    telemetry->count_elections(plan.size());
  }
  return out;
}

// --- Stream attribution -----------------------------------------------------

double modeled_stream_step_s(idx n, std::uint64_t nnz, std::uint64_t nnz_l,
                             std::uint64_t nnz_u, double flop_t, double mem_t) {
  // One preconditioned GMRES iteration: an SpMV (2 flops per nonzero) plus
  // an ILU apply (forward + backward substitution), streaming the matrix
  // and both factors (index + value per entry) and four n-vectors.
  const double flops = 2.0 * static_cast<double>(nnz) +
                       2.0 * static_cast<double>(nnz_l + nnz_u) +
                       static_cast<double>(n);
  const double bytes =
      static_cast<double>(nnz + nnz_l + nnz_u) * (sizeof(real) + sizeof(idx)) +
      4.0 * static_cast<double>(n) * sizeof(real);
  return flops * flop_t + bytes * mem_t;
}

StreamAttribution attribute_streams(int streams,
                                    const std::vector<long long>& matvecs_per_solve,
                                    double step_s, ServeTelemetry* telemetry) {
  PTILU_CHECK(streams >= 1, "attribute_streams: stream count must be >= 1");
  PTILU_CHECK(!matvecs_per_solve.empty(), "attribute_streams: no solves");
  PTILU_CHECK(step_s > 0.0, "attribute_streams: step cost must be positive");
  StreamAttribution out;
  out.streams = streams;
  out.solves = static_cast<int>(matvecs_per_solve.size());
  out.step_s = step_s;
  out.rollup.busy_s.assign(static_cast<std::size_t>(streams), 0.0);
  out.rollup.elections.assign(static_cast<std::size_t>(streams), 0);
  const int rounds = (out.solves + streams - 1) / streams;
  out.rounds.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    StreamRound round;
    round.cost_s.assign(static_cast<std::size_t>(streams), 0.0);
    round.matvecs.assign(static_cast<std::size_t>(streams), 0);
    for (int s = 0; s < streams; ++s) {
      const int q = r * streams + s;
      if (q >= out.solves) continue;  // tail round: stream idles
      const long long matvecs = matvecs_per_solve[static_cast<std::size_t>(q)];
      PTILU_CHECK(matvecs >= 0, "attribute_streams: negative matvec count");
      round.matvecs[static_cast<std::size_t>(s)] = matvecs;
      round.cost_s[static_cast<std::size_t>(s)] =
          static_cast<double>(matvecs) * step_s;
    }
    const std::size_t winner = out.rollup.elect(round.cost_s);
    round.straggler = static_cast<int>(winner);
    round.elapsed_s = round.cost_s[winner];
    out.rounds.push_back(std::move(round));
  }
  out.rollup.finish();
  if (telemetry != nullptr) telemetry->count_elections(static_cast<std::uint64_t>(rounds));
  return out;
}

// --- Lifecycle journaling ---------------------------------------------------

void append_lifecycle_events(EventLog& log, const std::vector<Request>& schedule,
                             const ApplyAttribution& attribution,
                             const BatchCostModel& costs, std::uint64_t fingerprint,
                             const std::vector<bool>& cache_hit_per_batch,
                             const std::vector<double>& wall_complete_s) {
  PTILU_CHECK(cache_hit_per_batch.size() == attribution.batches.size(),
              "append_lifecycle_events: one cache-hit flag per batch required");
  PTILU_CHECK(wall_complete_s.empty() ||
                  wall_complete_s.size() == attribution.batches.size(),
              "append_lifecycle_events: one wall completion per batch or none");
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    ServeEvent event;
    event.request = static_cast<int>(r);
    event.stage = ServeStage::kEnqueue;
    event.t_model_s = schedule[r].arrival_s;
    log.record(event);
  }
  for (std::size_t b = 0; b < attribution.batches.size(); ++b) {
    const BatchAttribution& attr = attribution.batches[b];
    ServeEvent resolve;
    resolve.batch = static_cast<int>(b);
    resolve.stage = ServeStage::kCacheResolve;
    resolve.t_model_s = attr.start_s;
    resolve.fingerprint = fingerprint;
    resolve.cache_hit = cache_hit_per_batch[b];
    log.record(resolve);
    for (int c = 0; c < attr.count; ++c) {
      ServeEvent admit;
      admit.request = attr.first + c;
      admit.batch = static_cast<int>(b);
      admit.stage = ServeStage::kAdmit;
      admit.t_model_s = attr.start_s;
      log.record(admit);
    }
    ServeEvent solve;
    solve.batch = static_cast<int>(b);
    solve.stage = ServeStage::kSolveStart;
    solve.t_model_s = attr.start_s + costs.cache_resolve_s;
    log.record(solve);
    for (int c = 0; c < attr.count; ++c) {
      ServeEvent complete;
      complete.request = attr.first + c;
      complete.batch = static_cast<int>(b);
      complete.stage = ServeStage::kComplete;
      complete.t_model_s = attr.start_s + attr.service_s;
      if (!wall_complete_s.empty()) complete.t_wall_s = wall_complete_s[b];
      log.record(complete);
    }
  }
}

}  // namespace ptilu::serve
