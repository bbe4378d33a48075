#include "ptilu/serve/serve_report.hpp"

#include <fstream>

#include "ptilu/support/check.hpp"
#include "ptilu/support/report.hpp"

namespace ptilu::serve {

namespace {

using report::append_hex16;
using report::append_int_array;
using report::append_number;
using report::append_real_array;

constexpr std::string_view kSep = ",";  // the serve report's array separator

void append_histogram(std::string& out, const LatencyHistogram& hist) {
  out += "{\"total\":";
  out += std::to_string(hist.total());
  out += ",\"underflow\":";
  out += std::to_string(hist.underflow());
  out += ",\"overflow\":";
  out += std::to_string(hist.overflow());
  // Sparse [index, count] pairs in index order — the dense vector is
  // mostly zeros (kBucketCount buckets, dozens of samples).
  out += ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t count = hist.counts()[static_cast<std::size_t>(i)];
    if (count == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(i);
    out += ',';
    out += std::to_string(count);
    out += ']';
  }
  out += "]}";
}

void append_rollup(std::string& out, const LaneRollup& rollup) {
  out += "{\"elapsed_s\":";
  append_number(out, rollup.elapsed_s);
  out += ",\"busy_s\":";
  append_real_array(out, rollup.busy_s, kSep);
  out += ",\"idle_s\":";
  append_real_array(out, rollup.idle_s, kSep);
  out += ",\"elections\":";
  append_int_array(out, rollup.elections, kSep);
  out += ",\"imbalance\":";
  append_number(out, rollup.imbalance);
  out += '}';
}

void append_apply_section(std::string& out, const ApplySection& section) {
  out += "{\"cap\":";
  out += std::to_string(section.cap);
  out += ",\"n\":";
  out += std::to_string(section.n);
  out += ",\"nnz\":";
  out += std::to_string(section.nnz);
  out += ",\"nnz_l\":";
  out += std::to_string(section.nnz_l);
  out += ",\"nnz_u\":";
  out += std::to_string(section.nnz_u);
  out += ",\"fingerprint\":\"";
  append_hex16(out, section.fingerprint);
  out += "\",\"costs\":{\"cache_resolve_s\":";
  append_number(out, section.costs.cache_resolve_s);
  out += ",\"stream_shared_s\":";
  append_number(out, section.costs.stream_shared_s);
  out += ",\"column_solve_s\":";
  append_number(out, section.costs.column_solve_s);
  out += "},\"batches\":[";
  PTILU_CHECK(section.cache_hit.size() == section.attribution.batches.size(),
              "serve report: one cache-hit flag per batch required");
  for (std::size_t b = 0; b < section.attribution.batches.size(); ++b) {
    const BatchAttribution& batch = section.attribution.batches[b];
    if (b != 0) out += ',';
    out += "{\"first\":";
    out += std::to_string(batch.first);
    out += ",\"count\":";
    out += std::to_string(batch.count);
    out += ",\"start_s\":";
    append_number(out, batch.start_s);
    out += ",\"arrival_gated\":";
    out += batch.arrival_gated ? "true" : "false";
    out += ",\"cache_hit\":";
    out += section.cache_hit[b] ? "true" : "false";
    out += ",\"arrival_s\":";
    append_real_array(out, batch.arrival_s, kSep);
    out += ",\"queue_wait_s\":";
    append_real_array(out, batch.queue_wait_s, kSep);
    out += ",\"column_solve_s\":";
    append_real_array(out, batch.column_solve_s, kSep);
    out += ",\"service_s\":";
    append_number(out, batch.service_s);
    out += ",\"straggler_column\":";
    out += std::to_string(batch.straggler_column);
    out += '}';
  }
  out += "],\"lanes\":";
  append_rollup(out, section.attribution.lanes);
  out += ",\"latency\":{\"hist\":";
  append_histogram(out, section.hist);
  out += ",\"hist_p50\":";
  append_number(out, section.hist_p50);
  out += ",\"hist_p99\":";
  append_number(out, section.hist_p99);
  out += ",\"exact_p50\":";
  append_number(out, section.exact_p50);
  out += ",\"exact_p99\":";
  append_number(out, section.exact_p99);
  out += "}}";
}

void append_stream_section(std::string& out, const StreamAttribution& stream) {
  out += "{\"streams\":";
  out += std::to_string(stream.streams);
  out += ",\"solves\":";
  out += std::to_string(stream.solves);
  out += ",\"step_s\":";
  append_number(out, stream.step_s);
  out += ",\"rounds\":[";
  for (std::size_t r = 0; r < stream.rounds.size(); ++r) {
    const StreamRound& round = stream.rounds[r];
    if (r != 0) out += ',';
    out += "{\"matvecs\":";
    append_int_array(out, round.matvecs, kSep);
    out += ",\"cost_s\":";
    append_real_array(out, round.cost_s, kSep);
    out += ",\"elapsed_s\":";
    append_number(out, round.elapsed_s);
    out += ",\"straggler\":";
    out += std::to_string(round.straggler);
    out += '}';
  }
  out += "],\"rollup\":";
  append_rollup(out, stream.rollup);
  out += '}';
}

}  // namespace

std::string write_serve_report_json(const ServeReportV1& report) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"ptilu-serve-report-v1\",\"run\":{";
  for (std::size_t i = 0; i < report.run.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += report.run[i].first;
    out += "\":";
    out += report.run[i].second;  // raw JSON value, caller-encoded
  }
  out += "},\"histogram_spec\":{\"sub_buckets\":";
  out += std::to_string(LatencyHistogram::kSubBuckets);
  out += ",\"min_exp\":";
  out += std::to_string(LatencyHistogram::kMinExp);
  out += ",\"max_exp\":";
  out += std::to_string(LatencyHistogram::kMaxExp);
  out += ",\"bucket_count\":";
  out += std::to_string(LatencyHistogram::kBucketCount);
  out += ",\"relative_error_bound\":";
  append_number(out, LatencyHistogram::relative_error_bound());
  out += ",\"shards\":";
  out += std::to_string(report.histogram_shards);
  out += "},\"apply\":[";
  for (std::size_t i = 0; i < report.apply.size(); ++i) {
    if (i != 0) out += ',';
    append_apply_section(out, report.apply[i]);
  }
  out += ']';
  if (report.has_stream) {
    out += ",\"stream\":";
    append_stream_section(out, report.stream);
  }
  out += ",\"telemetry\":{\"requests\":";
  out += std::to_string(report.telemetry.requests);
  out += ",\"batches\":";
  out += std::to_string(report.telemetry.batches);
  out += ",\"straggler_elections\":";
  out += std::to_string(report.telemetry.straggler_elections);
  out += ",\"histogram_merges\":";
  out += std::to_string(report.telemetry.histogram_merges);
  out += "}}\n";
  return out;
}

void write_serve_report_file(const ServeReportV1& report, const std::string& path) {
  std::ofstream file(path);
  PTILU_CHECK(file.good(), "cannot open serve report file " << path);
  file << write_serve_report_json(report);
  file.flush();
  PTILU_CHECK(file.good(), "failed writing serve report file " << path);
}

}  // namespace ptilu::serve
