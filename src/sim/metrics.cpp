#include "ptilu/sim/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "ptilu/support/check.hpp"
#include "ptilu/support/report.hpp"
#include "ptilu/support/table.hpp"

namespace ptilu::sim {

namespace {

using report::append_escaped;
using report::append_int_array;
using report::append_number;
using report::append_real_array;

constexpr std::string_view kSep = ", ";  // the run report's array separator

}  // namespace

bool metrics_enabled_by_env() noexcept {
  const char* value = std::getenv("PTILU_METRICS");
  if (value == nullptr) return false;
  std::string lower;
  for (const char* p = value; *p != '\0'; ++p) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  return lower == "1" || lower == "on" || lower == "true" || lower == "yes";
}

double Metrics::PhaseMetrics::imbalance() const { return report::busy_imbalance(busy); }

int Metrics::PhaseMetrics::critical_rank() const {
  const std::size_t r = report::first_argmax(critical_s);
  return r < critical_s.size() && critical_s[r] > 0.0 ? static_cast<int>(r) : -1;
}

Metrics::Metrics(int nranks) : nranks_(nranks) {
  PTILU_CHECK(nranks >= 1, "metrics need at least one rank");
  phase_names_.emplace_back();  // id 0: the root ("" -> "(untagged)")
  phase_ids_.emplace("", 0);
  phases_.emplace_back();
  phase_stack_.push_back(0);
  ensure_storage(0);  // sends may arrive before any phase is pushed
}

std::uint32_t Metrics::intern(std::string path) {
  const auto it = phase_ids_.find(path);
  if (it != phase_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(phase_names_.size());
  phase_ids_.emplace(path, id);
  phase_names_.push_back(std::move(path));
  phases_.emplace_back();
  return id;
}

void Metrics::push_phase(std::string_view name) {
  const std::string& parent = phase_names_[phase_stack_.back()];
  std::string path;
  path.reserve(parent.size() + 1 + name.size());
  if (!parent.empty()) {
    path = parent;
    path += '/';
  }
  path += name;
  const std::uint32_t id = intern(std::move(path));
  // Preallocate the per-rank storage here, on the main thread: phases only
  // change between supersteps, so rank bodies never race a reallocation.
  ensure_storage(id);
  phase_stack_.push_back(id);
}

void Metrics::pop_phase() {
  PTILU_CHECK(phase_stack_.size() > 1, "pop_phase without matching push_phase");
  phase_stack_.pop_back();
}

Metrics::PhaseMetrics& Metrics::ensure_storage(std::uint32_t id) {
  PhaseMetrics& pm = phases_[id];
  if (pm.busy.empty()) {
    const auto n = static_cast<std::size_t>(nranks_);
    pm.busy.assign(n, 0.0);
    pm.critical_s.assign(n, 0.0);
    pm.critical_steps.assign(n, 0);
    pm.comm.resize(n);
  }
  return pm;
}

void Metrics::on_sync(const std::vector<double>& clocks, double horizon) {
  const std::uint32_t pid = phase_stack_.back();
  PhaseMetrics& pm = ensure_storage(pid);
  const double delta = horizon - last_horizon_;
  pm.elapsed += delta;
  pm.supersteps += 1;
  // The straggler is the first rank at the pre-barrier maximum — the same
  // first-max rule the barrier's max_element used to place the horizon.
  const std::size_t straggler = report::first_argmax(clocks);
  pm.critical_s[straggler] += delta;
  pm.critical_steps[straggler] += 1;
  // Busy shares: each term is fl(clock_r - last_horizon) <= the elapsed
  // term fl(horizon - last_horizon) because clock_r <= horizon and rounded
  // subtraction/addition are monotone. Accumulated busy therefore never
  // exceeds accumulated elapsed — exactly, not just up to drift — which is
  // what makes the serialized idle = elapsed - busy identity airtight.
  for (int r = 0; r < nranks_; ++r) {
    pm.busy[static_cast<std::size_t>(r)] +=
        clocks[static_cast<std::size_t>(r)] - last_horizon_;
  }
  last_horizon_ = horizon;
  last_active_ = pid;
}

void Metrics::on_send(int from, int to, std::uint64_t bytes) {
  PhaseMetrics& pm = phases_[phase_stack_.back()];
  CommCell& cell = pm.comm[static_cast<std::size_t>(from)][to];
  cell.messages += 1;
  cell.bytes += bytes;
}

void Metrics::on_transfer(int from, int to, std::uint64_t bytes) {
  const std::uint32_t pid = phase_stack_.back();
  PhaseMetrics& pm = phases_[pid];
  CommCell& cell = pm.comm[static_cast<std::size_t>(from)][to];
  cell.messages += 1;
  cell.bytes += bytes;
  last_active_ = pid;
}

void Metrics::on_collective(std::uint64_t hop_messages, std::uint64_t payload_bytes) {
  // Every rank is charged identically by Machine::collective, so one scalar
  // per phase carries the full per-rank accounting — no O(p) work or
  // storage per collective.
  PhaseMetrics& pm = phases_[phase_stack_.back()];
  pm.collective_messages += hop_messages;
  pm.collective_bytes += payload_bytes;
}

void Metrics::flush_clocks(const std::vector<double>& clocks) {
  const double max_clock = *std::max_element(clocks.begin(), clocks.end());
  if (max_clock <= last_horizon_) return;
  // Clock advance since the last barrier (e.g. a trailing charge_transfer
  // with no closing superstep): credit it to the last active phase, like
  // Trace::phase_rollup's residual, keeping sum(elapsed) == modeled time.
  PhaseMetrics& pm = ensure_storage(last_active_);
  const double delta = max_clock - last_horizon_;
  pm.elapsed += delta;
  pm.critical_s[report::first_argmax(clocks)] += delta;
  for (int r = 0; r < nranks_; ++r) {
    const double busy = clocks[static_cast<std::size_t>(r)] - last_horizon_;
    if (busy > 0.0) pm.busy[static_cast<std::size_t>(r)] += busy;
  }
  last_horizon_ = max_clock;
}

void Metrics::on_reset(const std::vector<double>& clocks,
                       const std::vector<RankCounters>& counters) {
  flush_clocks(clocks);
  last_horizon_ = 0.0;
  // The machine is about to zero its RankCounters; bank them so the report
  // still reconciles comm-matrix totals against full-run counters when one
  // machine times several epochs.
  if (banked_counters_.empty()) banked_counters_.resize(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    RankCounters& bank = banked_counters_[static_cast<std::size_t>(r)];
    const RankCounters& c = counters[static_cast<std::size_t>(r)];
    bank.flops += c.flops;
    bank.mem_bytes += c.mem_bytes;
    bank.messages_sent += c.messages_sent;
    bank.bytes_sent += c.bytes_sent;
  }
}

std::uint32_t Metrics::counter_id(std::string_view name) {
  std::string key(name);
  const auto it = counter_ids_.find(key);
  if (it != counter_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(counter_names_.size());
  counter_ids_.emplace(key, id);
  counter_names_.push_back(std::move(key));
  counter_values_.emplace_back(static_cast<std::size_t>(nranks_), 0);
  return id;
}

void Metrics::add_counter(std::uint32_t id, int rank, std::uint64_t n) {
  counter_values_[id][static_cast<std::size_t>(rank)] += n;
}

std::uint64_t Metrics::counter_value(std::string_view name, int rank) const {
  const auto it = counter_ids_.find(std::string(name));
  if (it == counter_ids_.end()) return 0;
  return counter_values_[it->second][static_cast<std::size_t>(rank)];
}

void Metrics::flush(const Machine& machine) {
  std::vector<double> clocks(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    clocks[static_cast<std::size_t>(r)] = machine.rank_time(r);
  }
  flush_clocks(clocks);
}

std::vector<Metrics::PhaseRow> Metrics::phase_rows() const {
  std::vector<PhaseRow> rows;
  for (std::uint32_t id = 0; id < phases_.size(); ++id) {
    if (!phases_[id].active()) continue;
    rows.push_back({phase_names_[id].empty() ? "(untagged)" : phase_names_[id],
                    &phases_[id]});
  }
  return rows;
}

double Metrics::total_elapsed() const {
  double total = 0.0;
  for (std::uint32_t id = 0; id < phases_.size(); ++id) {
    if (phases_[id].active()) total += phases_[id].elapsed;
  }
  return total;
}

std::string Metrics::payload_json(const Machine& machine) {
  flush(machine);
  const auto rows = phase_rows();
  std::string out;
  out.reserve(1024 + rows.size() * 512);

  std::uint64_t total_supersteps = 0;
  for (const PhaseRow& row : rows) total_supersteps += row.stats->supersteps;
  out += "  \"supersteps\": ";
  out += std::to_string(total_supersteps);
  out += ",\n  \"modeled_s\": ";
  // Sum in phase-id order — the same order the phases are serialized in, so
  // the validator recomputes this value bit-exactly by folding them back up.
  append_number(out, total_elapsed());
  out += ",\n  \"phases\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PhaseMetrics& pm = *rows[i].stats;
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_escaped(out, rows[i].name);
    out += "\",\n     \"elapsed_s\": ";
    append_number(out, pm.elapsed);
    out += ", \"supersteps\": ";
    out += std::to_string(pm.supersteps);
    out += ", \"imbalance\": ";
    append_number(out, pm.imbalance());
    out += ", \"critical_rank\": ";
    out += std::to_string(pm.critical_rank());
    out += ",\n     \"busy_s\": ";
    append_real_array(out, pm.busy, kSep);
    out += ",\n     \"idle_s\": [";
    for (std::size_t r = 0; r < pm.busy.size(); ++r) {
      if (r != 0) out += ", ";
      // Derived, not accumulated: the busy+idle identity is exact by
      // construction because this very difference is what gets serialized.
      append_number(out, pm.elapsed - pm.busy[r]);
    }
    out += "],\n     \"critical_s\": ";
    append_real_array(out, pm.critical_s, kSep);
    out += ",\n     \"critical_steps\": ";
    append_int_array(out, pm.critical_steps, kSep);
    // v2: collectives charge every rank identically, so these are scalars
    // (the uniform per-rank value), not nranks-long arrays.
    out += ",\n     \"collective_messages\": ";
    out += std::to_string(pm.collective_messages);
    out += ", \"collective_bytes\": ";
    out += std::to_string(pm.collective_bytes);
    // Sparse comm summary: how many (from, to) pairs carried traffic, the
    // phase-total messages/bytes over those pairs, and the widest per-rank
    // fanout — readable at p=4096 where eyeballing the cell list is not.
    std::uint64_t comm_pairs = 0;
    std::uint64_t comm_messages = 0;
    std::uint64_t comm_bytes = 0;
    std::size_t comm_max_fanout = 0;
    for (const auto& row : pm.comm) {
      comm_pairs += row.size();
      comm_max_fanout = std::max(comm_max_fanout, row.size());
      for (const auto& [to, cell] : row) {
        comm_messages += cell.messages;
        comm_bytes += cell.bytes;
      }
    }
    out += ",\n     \"comm_pairs\": ";
    out += std::to_string(comm_pairs);
    out += ", \"comm_messages\": ";
    out += std::to_string(comm_messages);
    out += ", \"comm_bytes\": ";
    out += std::to_string(comm_bytes);
    out += ", \"comm_max_fanout\": ";
    out += std::to_string(comm_max_fanout);
    out += ",\n     \"comm\": [";
    bool first_cell = true;
    for (std::size_t from = 0; from < pm.comm.size(); ++from) {
      for (const auto& [to, cell] : pm.comm[from]) {
        if (!first_cell) out += ", ";
        first_cell = false;
        out += "{\"from\": ";
        out += std::to_string(from);
        out += ", \"to\": ";
        out += std::to_string(to);
        out += ", \"messages\": ";
        out += std::to_string(cell.messages);
        out += ", \"bytes\": ";
        out += std::to_string(cell.bytes);
        out += '}';
      }
    }
    out += "]}";
  }
  out += "\n  ],\n  \"counters\": [";
  for (std::size_t id = 0; id < counter_names_.size(); ++id) {
    out += id == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_escaped(out, counter_names_[id]);
    out += "\", \"per_rank\": ";
    append_int_array(out, counter_values_[id], kSep);
    out += ", \"total\": ";
    std::uint64_t total = 0;
    for (const std::uint64_t v : counter_values_[id]) total += v;
    out += std::to_string(total);
    out += '}';
  }
  out += counter_names_.empty() ? "],\n" : "\n  ],\n";

  std::vector<std::uint64_t> flops;
  std::vector<std::uint64_t> mem_bytes;
  std::vector<std::uint64_t> messages_sent;
  std::vector<std::uint64_t> bytes_sent;
  for (int r = 0; r < nranks_; ++r) {
    RankCounters c = machine.counters(r);
    if (!banked_counters_.empty()) {
      const RankCounters& bank = banked_counters_[static_cast<std::size_t>(r)];
      c.flops += bank.flops;
      c.mem_bytes += bank.mem_bytes;
      c.messages_sent += bank.messages_sent;
      c.bytes_sent += bank.bytes_sent;
    }
    flops.push_back(c.flops);
    mem_bytes.push_back(c.mem_bytes);
    messages_sent.push_back(c.messages_sent);
    bytes_sent.push_back(c.bytes_sent);
  }
  out += "  \"rank_counters\": {\n    \"flops\": ";
  append_int_array(out, flops, kSep);
  out += ",\n    \"mem_bytes\": ";
  append_int_array(out, mem_bytes, kSep);
  out += ",\n    \"messages_sent\": ";
  append_int_array(out, messages_sent, kSep);
  out += ",\n    \"bytes_sent\": ";
  append_int_array(out, bytes_sent, kSep);
  out += "\n  }\n";
  return out;
}

void Metrics::write_report(
    std::ostream& os, const Machine& machine,
    const std::vector<std::pair<std::string, std::string>>& run_info) {
  std::string out;
  out += "{\n  \"schema\": \"ptilu-report-v2\",\n  \"ranks\": ";
  out += std::to_string(nranks_);
  out += ",\n  \"run\": {";
  for (std::size_t i = 0; i < run_info.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_escaped(out, run_info[i].first);
    out += "\": ";
    out += run_info[i].second;  // raw JSON value, caller-formatted
  }
  out += run_info.empty() ? "},\n" : "\n  },\n";
  out += payload_json(machine);
  out += "}\n";
  os << out;
}

void Metrics::write_report_file(
    const std::string& path, const Machine& machine,
    const std::vector<std::pair<std::string, std::string>>& run_info) {
  std::ofstream file(path);
  PTILU_CHECK(file.good(), "cannot open report file " << path);
  write_report(file, machine, run_info);
  file.flush();
  PTILU_CHECK(file.good(), "failed writing report file " << path);
}

std::uint64_t Metrics::payload_checksum(const Machine& machine) {
  return report::fnv1a(payload_json(machine));
}

void Metrics::write_straggler_table(std::ostream& os, const Machine& machine) {
  flush(machine);
  const auto rows = phase_rows();
  if (rows.empty()) {
    os << "(no recorded activity)\n";
    return;
  }
  const double total = total_elapsed();
  Table table({"phase", "modeled s", "%", "steps", "critical rank", "crit %",
               "imbalance", "idle %"});
  for (const PhaseRow& row : rows) {
    const PhaseMetrics& pm = *row.stats;
    const int crit = pm.critical_rank();
    double crit_share = 0.0;
    if (crit >= 0 && pm.elapsed > 0.0) {
      crit_share = 100.0 * pm.critical_s[static_cast<std::size_t>(crit)] / pm.elapsed;
    }
    double busy_sum = 0.0;
    for (const double b : pm.busy) busy_sum += b;
    const double capacity = static_cast<double>(nranks_) * pm.elapsed;
    const double idle_pct =
        capacity > 0.0 ? 100.0 * (capacity - busy_sum) / capacity : 0.0;
    table.row()
        .cell(row.name)
        .cell(pm.elapsed, 6)
        .cell(total > 0.0 ? 100.0 * pm.elapsed / total : 0.0, 1)
        .cell(static_cast<long long>(pm.supersteps))
        .cell(crit >= 0 ? std::to_string(crit) : std::string("-"))
        .cell(crit_share, 1)
        .cell(pm.imbalance(), 2)
        .cell(idle_pct, 1);
  }
  table.print(os);
}

void Metrics::clear() {
  phase_names_.clear();
  phase_ids_.clear();
  phases_.clear();
  phase_stack_.clear();
  phase_names_.emplace_back();
  phase_ids_.emplace("", 0);
  phases_.emplace_back();
  phase_stack_.push_back(0);
  ensure_storage(0);
  last_active_ = 0;
  last_horizon_ = 0.0;
  counter_names_.clear();
  counter_ids_.clear();
  counter_values_.clear();
  banked_counters_.clear();
}

}  // namespace ptilu::sim
