#include "ptilu/sim/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "ptilu/sim/machine.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/report.hpp"
#include "ptilu/support/table.hpp"

namespace ptilu::sim {

ScopedPhase::ScopedPhase(Machine& machine, std::string_view name)
    : machine_(&machine) {
  machine_->push_phase(name);
}

ScopedPhase::~ScopedPhase() {
  if (machine_ != nullptr) {
    machine_->pop_phase();
  } else if (trace_ != nullptr) {
    trace_->pop_phase();
  }
}

namespace {

constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// Trace values are microseconds; 12 significant digits keep sub-ns
/// resolution even for hour-long modeled runs, so adjacent spans stay
/// non-overlapping after round-tripping.
constexpr int kTraceDigits = 12;

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCompute: return "compute";
    case SpanKind::kSend: return "send";
    case SpanKind::kRecv: return "recv";
    case SpanKind::kBarrier: return "barrier";
    case SpanKind::kAllreduce: return "allreduce";
  }
  return "?";
}

Trace::Trace(TraceOptions options) : options_(options) {
  phase_names_.emplace_back();  // id 0: the root ("" -> "(untagged)")
  phase_ids_.emplace("", 0);
  stats_.emplace_back();
  phase_stack_.push_back(0);
}

std::uint32_t Trace::intern(std::string path) {
  const auto it = phase_ids_.find(path);
  if (it != phase_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(phase_names_.size());
  phase_ids_.emplace(path, id);
  phase_names_.push_back(std::move(path));
  stats_.emplace_back();
  return id;
}

void Trace::push_phase(std::string_view name) {
  const std::string& parent = phase_names_[phase_stack_.back()];
  std::string path;
  path.reserve(parent.size() + 1 + name.size());
  if (!parent.empty()) {
    path = parent;
    path += '/';
  }
  path += name;
  phase_stack_.push_back(intern(std::move(path)));
}

void Trace::pop_phase() {
  PTILU_CHECK(phase_stack_.size() > 1, "pop_phase without matching push_phase");
  phase_stack_.pop_back();
}

void Trace::set_nranks(int nranks) {
  nranks_ = std::max(nranks_, nranks);
  open_span_.resize(static_cast<std::size_t>(nranks_), kNoSpan);
}

void Trace::record(int rank, SpanKind kind, double start, double end,
                   std::uint64_t flops, std::uint64_t bytes, std::uint64_t messages) {
  if (end == start && flops == 0 && bytes == 0 && messages == 0) return;
  const std::uint32_t phase = phase_stack_.back();
  last_phase_ = phase;

  PhaseStats& ps = stats_[phase];
  ps.busy[static_cast<int>(kind)] += end - start;
  ps.flops += flops;
  ++ps.spans;
  switch (kind) {
    case SpanKind::kCompute: ps.mem_bytes += bytes; break;
    case SpanKind::kSend:
    case SpanKind::kAllreduce:
      ps.bytes_sent += bytes;
      ps.messages += messages;
      break;
    case SpanKind::kRecv: ps.bytes_recv += bytes; break;
    case SpanKind::kBarrier: break;
  }

  const double abs_start = epoch_offset_ + start;
  const double abs_end = epoch_offset_ + end;
  max_end_ = std::max(max_end_, abs_end);
  if (!options_.record_spans) return;

  if (static_cast<std::size_t>(rank) >= open_span_.size()) {
    open_span_.resize(static_cast<std::size_t>(rank) + 1, kNoSpan);
  }
  const std::size_t prev = open_span_[static_cast<std::size_t>(rank)];
  if (prev != kNoSpan) {
    Span& p = spans_[prev];
    if (p.kind == kind && p.phase == phase && p.end == abs_start) {
      p.end = abs_end;
      p.flops += flops;
      p.bytes += bytes;
      p.messages += messages;
      return;
    }
  }
  spans_.push_back(Span{abs_start, abs_end, flops, bytes, messages, rank, phase, kind});
  open_span_[static_cast<std::size_t>(rank)] = spans_.size() - 1;
}

void Trace::sync(double horizon) {
  const double delta = horizon - last_horizon_;
  if (delta > 0.0) stats_[phase_stack_.back()].elapsed += delta;
  last_horizon_ = horizon;
  max_end_ = std::max(max_end_, epoch_offset_ + horizon);
}

void Trace::on_machine_reset() {
  epoch_offset_ = max_end_;
  last_horizon_ = 0.0;
  std::fill(open_span_.begin(), open_span_.end(), kNoSpan);
}

std::vector<Trace::PhaseRow> Trace::phase_rollup() const {
  // Clock advance since the last barrier (e.g. a trailing charge_transfer
  // with no closing superstep) has not been attributed by sync(); credit it
  // to the phase of the most recent span so the rows still sum to the
  // machine's modeled time.
  const double residual = (max_end_ - epoch_offset_) - last_horizon_;
  std::vector<PhaseRow> rows;
  for (std::uint32_t id = 0; id < stats_.size(); ++id) {
    PhaseStats s = stats_[id];
    if (id == last_phase_ && residual > 0.0) s.elapsed += residual;
    const bool active = s.elapsed != 0.0 || s.spans != 0;
    if (!active) continue;
    rows.push_back({phase_names_[id].empty() ? "(untagged)" : phase_names_[id], s});
  }
  return rows;
}

double Trace::attributed_time() const {
  double total = 0.0;
  for (const auto& row : phase_rollup()) total += row.stats.elapsed;
  return total;
}

void Trace::write_phase_table(std::ostream& os) const {
  const auto rows = phase_rollup();
  if (rows.empty()) {
    os << "(no traced activity)\n";
    return;
  }
  double total = 0.0;
  for (const auto& row : rows) total += row.stats.elapsed;

  Table table({"phase", "modeled s", "%", "compute s", "send s", "recv s", "barrier s",
               "allreduce s", "Mflop", "msgs", "MB sent"});
  const auto emit = [&](const std::string& name, const PhaseStats& s, double elapsed) {
    table.row()
        .cell(name)
        .cell(elapsed, 6)
        .cell(total > 0.0 ? 100.0 * elapsed / total : 0.0, 1)
        .cell(s.busy[static_cast<int>(SpanKind::kCompute)], 6)
        .cell(s.busy[static_cast<int>(SpanKind::kSend)], 6)
        .cell(s.busy[static_cast<int>(SpanKind::kRecv)], 6)
        .cell(s.busy[static_cast<int>(SpanKind::kBarrier)], 6)
        .cell(s.busy[static_cast<int>(SpanKind::kAllreduce)], 6)
        .cell(static_cast<double>(s.flops) / 1e6, 3)
        .cell(static_cast<long long>(s.messages))
        .cell(static_cast<double>(s.bytes_sent) / 1e6, 3);
  };
  for (const auto& row : rows) emit(row.name, row.stats, row.stats.elapsed);
  PhaseStats sum;
  for (const auto& row : rows) {
    for (int k = 0; k < kSpanKindCount; ++k) sum.busy[k] += row.stats.busy[k];
    sum.flops += row.stats.flops;
    sum.messages += row.stats.messages;
    sum.bytes_sent += row.stats.bytes_sent;
  }
  emit("TOTAL", sum, total);
  table.print(os);
}

void Trace::write_chrome_trace(std::ostream& os) const {
  std::string out;
  out.reserve(256 + spans_.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  // One Perfetto process per rank, ordered by rank id.
  const int tracks = std::max(nranks_, 1);
  for (int r = 0; r < tracks; ++r) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(r);
    out += ",\"tid\":0,\"args\":{\"name\":\"rank ";
    out += std::to_string(r);
    out += "\"}}";
    sep();
    out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(r);
    out += ",\"tid\":0,\"args\":{\"sort_index\":";
    out += std::to_string(r);
    out += "}}";
  }
  for (const Span& span : spans_) {
    sep();
    out += "{\"name\":\"";
    const std::string& phase = phase_names_[span.phase];
    report::append_escaped(out, phase.empty() ? span_kind_name(span.kind) : phase);
    out += "\",\"cat\":\"";
    out += span_kind_name(span.kind);
    out += "\",\"ph\":\"X\",\"ts\":";  // trace_event timestamps are in µs
    report::append_number(out, span.start * 1e6, kTraceDigits);
    out += ",\"dur\":";
    report::append_number(out, (span.end - span.start) * 1e6, kTraceDigits);
    out += ",\"pid\":";
    out += std::to_string(span.rank);
    out += ",\"tid\":0,\"args\":{\"kind\":\"";
    out += span_kind_name(span.kind);
    out += '"';
    if (span.flops != 0) {
      out += ",\"flops\":";
      out += std::to_string(span.flops);
    }
    if (span.bytes != 0) {
      out += ",\"bytes\":";
      out += std::to_string(span.bytes);
    }
    if (span.messages != 0) {
      out += ",\"messages\":";
      out += std::to_string(span.messages);
    }
    out += "}}";
  }
  out += "\n]}\n";
  os << out;
}

void Trace::write_chrome_trace_file(const std::string& path) const {
  std::ofstream file(path);
  PTILU_CHECK(file.good(), "cannot open trace file " << path);
  write_chrome_trace(file);
  file.flush();
  PTILU_CHECK(file.good(), "failed writing trace file " << path);
}

void Trace::clear() {
  phase_names_.clear();
  phase_ids_.clear();
  stats_.clear();
  phase_stack_.clear();
  spans_.clear();
  phase_names_.emplace_back();
  phase_ids_.emplace("", 0);
  stats_.emplace_back();
  phase_stack_.push_back(0);
  std::fill(open_span_.begin(), open_span_.end(), kNoSpan);
  epoch_offset_ = 0.0;
  last_horizon_ = 0.0;
  max_end_ = 0.0;
  last_phase_ = 0;
}

}  // namespace ptilu::sim
