// ttsbench — time-to-solution benchmark for ptilu.
//
// Runs one workload for a wall-time budget, checks every output, and prints
// the metrics named in BENCHMARK.json: human-readable lines first, then one
// JSON object as the last line of standard output
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones, taken from a traced pass that
// times every call this program makes into a module's public functions (one
// span each, held in memory and written to --out when the run ends) and
// reads the counters the modules expose (PilutStats, Machine::supersteps,
// GmresResult, CacheStats, sim::Trace, sim::Metrics). The same run first
// repeats the workload untraced so trace.overhead_frac can report the
// difference. WORKLOADS.md records why each workload exists and what it
// loads and bypasses.
//
// Workloads (sequential simulator backend throughout):
//   torso_p16         TORSO analogue, k-way partitioned to p=16, PILUT factor
//                     and one distributed GMRES solve (all-ones solution).
//   g0_p64_multi_rhs  G0 at p=64: one factor, several seeded right-hand
//                     sides through one shared DistTriangularSolver.
//   serial_cache_mix  closed loop, one client, no simulated machine: seeded
//                     requests over {G0, TORSO} x {scalar, blocked} through
//                     serve::FactorCache, each followed by a serial GMRES.
//
// Usage: ttsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--scale tiny] [--perturb-solution]
// --scale tiny and --perturb-solution exist for smoke_test.py: tiny inputs,
// and a deliberately spoiled first solution that the gate must reject.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/ilut_blocked.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/serve/factor_cache.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/support/timer.hpp"

namespace {

using namespace ptilu;

// Common settings: ILUT(10, 1e-4) with the pivot guard, GMRES(50) to 1e-8
// from x0 = 0, blocked panels as in bench_wallclock.
const IlutOptions kIlut{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};
const PilutOptions kPilut{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};
const BlockedIlutOptions kBlocked{.base = kIlut,
                                  .panels = {.max_panel = 8, .slack = 3.0}};
const GmresOptions kGmres{.restart = 50, .max_matvecs = 20000, .rtol = 1e-8};
// GMRES stops on the preconditioned residual; the gate checks the true
// relative residual ||b - Ax|| / ||b|| against this bound.
constexpr double kResidualBound = 1e-6;
// Set-up repeats per run; setup_s is their median.
constexpr int kSetups = 5;
// serial_cache_mix: cache capacity below the four keys, so misses stay a
// steady share (about one request in seven).
constexpr std::size_t kCacheCapacity = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

double relative_residual(const Csr& a, const RealVec& x, const RealVec& b) {
  RealVec ax(b.size());
  spmv(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

double checksum(const IluFactors& f) {
  double s = 0.0;
  for (const real v : f.l.values) s += v;
  for (const real v : f.u.values) s += v;
  return s + static_cast<double>(f.l.nnz() + f.u.nnz());
}

double checksum(const BlockedFactors& f) {
  double s = 0.0;
  for (idx p = 0; p < f.n_panels(); ++p) {
    for (const real v : f.lvals[p]) s += v;
    for (const real v : f.uvals[p]) s += v;
    for (const real v : f.diag[p]) s += v;
  }
  return s + static_cast<double>(f.nnz());
}

/// Bytes a CSR matrix occupies (values, column indices, row pointers).
double csr_bytes(const Csr& a) {
  return static_cast<double>(a.values.size() * sizeof(real) +
                             a.col_idx.size() * sizeof(idx) +
                             a.row_ptr.size() * sizeof(nnz_t));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: one per public call this program makes, with the span that caused
// it and the request/solve id. Recording is off in untraced passes, where
// the same calls are only timed.

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t id = 0;
    std::vector<std::pair<std::string, double>> counts;
  };

  void set_recording(bool on) { recording_ = on; }

  /// Run `body` inside a span and return its wall seconds.
  double time(const char* name, std::uint64_t id, const std::function<void()>& body) {
    int self = -1;
    if (recording_) {
      self = static_cast<int>(spans_.size());
      spans_.push_back({name, 0.0, 0.0, open_.empty() ? -1 : open_.back(), id, {}});
      open_.push_back(self);
    }
    const double start = clock_.seconds();
    body();
    const double end = clock_.seconds();
    if (self >= 0) {
      spans_[self].start = start;
      spans_[self].end = end;
      open_.pop_back();
      last_ = self;
    }
    return end - start;
  }

  /// Attach a count to the span that closed last (no-op when not recording).
  void count(const char* name, double value) {
    if (recording_ && last_ >= 0) spans_[last_].counts.emplace_back(name, value);
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    PTILU_CHECK(os.good(), "cannot open " << path << " for writing");
    os << "{\"spans\": [\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"parent\": %d, \"id\": %llu, \"counts\": {",
                    s.name.c_str(), s.start, s.end, s.parent,
                    static_cast<unsigned long long>(s.id));
      os << buf;
      for (std::size_t k = 0; k < s.counts.size(); ++k) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", k == 0 ? "" : ", ",
                      s.counts[k].first.c_str(), s.counts[k].second);
        os << buf;
      }
      os << (i + 1 < spans_.size() ? "}},\n" : "}}\n");
    }
    os << "]}\n";
  }

 private:
  bool recording_ = false;
  WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int last_ = -1;
};

// ---------------------------------------------------------------------------
// Results: metrics by name and unit, the correctness gate, and exact values
// that must repeat bit-for-bit within the run.

class Results {
 public:
  void end_to_end(const std::string& name, double value, const char* unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    layer_[name] = {value, unit};
  }

  /// Count one attempted operation; a failed one is reported, never retried.
  bool attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  /// An exact value: the first occurrence is recorded and printed, later
  /// ones must equal it bit-for-bit. Returns false on a mismatch.
  bool exact(const std::string& name, double value) {
    const auto [it, inserted] = exact_.emplace(name, value);
    if (inserted) return true;
    if (std::memcmp(&it->second, &value, sizeof value) == 0) return true;
    std::printf("MISMATCH: %s %.17g != %.17g\n", name.c_str(), value, it->second);
    return false;
  }

  void print(bool trace) const {
    std::printf("exact values (repeat within a run and across runs of a seed):\n");
    for (const auto& [name, value] : exact_) {
      std::printf("  exact %s %.17g\n", name.c_str(), value);
    }
    const auto table = [](const char* title, const auto& metrics) {
      std::printf("%s:\n", title);
      for (const auto& [name, m] : metrics) {
        std::printf("  %-44s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
      }
    };
    if (!trace) table("end-to-end metrics", e2e_);
    if (trace) table("per-layer metrics", layer_);
    const double failed_frac =
        attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                       : 1.0;
    std::printf("  %-44s %16.6g ratio (%llu of %llu operations)\n", "failed_frac",
                failed_frac, static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    const auto& metrics = trace ? layer_ : e2e_;
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, double> exact_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  std::string out;
};

/// Problem sizes: the harnesses' default scale, or a tiny one for the
/// benchmark's own smoke test.
struct Sizes {
  bench::Scale scale;
  int torso_ranks = 16;
  int g0_ranks = 64;
  int g0_rhs = 4;
  std::size_t min_requests = 100;  // >= 10 requests beyond the p90 sample

  static Sizes of(bool tiny) {
    if (!tiny) return {};
    return {{24, 24, 6, 6, 8}, 4, 8, 2, 20};
  }
};

sim::Machine::Options machine_options(bool observed) {
  sim::Machine::Options opts;
  opts.backend = sim::Backend::kSequential;
  opts.check = false;
  opts.metrics = observed;
  return opts;
}

// serial_cache_mix's cache keys: {G0, TORSO} x {scalar, blocked}.
const char* const kKeys[] = {"g0.scalar", "g0.blocked", "torso.scalar", "torso.blocked"};

/// Every per-layer metric at 0, so each workload prints the full set and a
/// layer the workload bypasses reads 0.
void declare_layers(Results& out) {
  for (const char* name :
       {"graph.from_pattern_s", "part.partition_kway_s", "dist.create_s",
        "dist.halo_build_s", "dist.spmv_call_s", "pilut.s_per_superstep",
        "pilut.trisolver_build_s", "pilut.trisolve_apply_s",
        "krylov.gmres_dist_s_per_matvec", "serve.get_hit_s", "sparse.spmv_s.g0",
        "sparse.spmv_s.torso"}) {
    out.layer(name, 0.0, "s");
  }
  for (const char* name :
       {"part.edge_cut", "part.interface_nodes", "pilut.levels", "pilut.supersteps",
        "pilut.messages", "pilut.flops", "pilut.max_reduced_row", "sim.solve_supersteps",
        "serve.cache_hits", "serve.cache_misses", "serve.cache_evictions"}) {
    out.layer(name, 0.0, "count");
  }
  for (const char* name :
       {"pilut.modeled.interior_s", "pilut.modeled.interface.form_reduced_s",
        "pilut.modeled.interface.setup_s", "pilut.modeled.interface.mis_s",
        "pilut.modeled.interface.number_s", "pilut.modeled.interface.factor_s",
        "pilut.modeled.interface.exchange_s", "pilut.modeled.interface.reduce_s",
        "pilut.modeled.factor_s", "krylov.modeled.residual_s", "krylov.modeled.spmv_s",
        "krylov.modeled.precond_s", "krylov.modeled.orthog_s", "krylov.modeled.update_s",
        "krylov.modeled.solve_s"}) {
    out.layer(name, 0.0, "modeled_s");
  }
  out.layer("pilut.bytes_sent", 0.0, "bytes");
  out.layer("sim.host_us_per_solve_superstep", 0.0, "us");
  out.layer("sim.modeled.idle_frac", 0.0, "ratio");
  out.layer("serve.hit_ratio", 0.0, "ratio");
  out.layer("trace.overhead_frac", 0.0, "ratio");
  for (const std::string key : kKeys) {
    out.layer("ilu.factor_s." + key, 0.0, "s");
    out.layer("ilu.apply_s." + key, 0.0, "s");
    out.layer("ilu.factor_nnz." + key, 0.0, "count");
    out.layer("ilu.apply_bytes." + key, 0.0, "bytes_computed");
    out.layer("krylov.gmres_s_per_matvec." + key, 0.0, "s");
    out.layer("krylov.matvecs." + key, 0.0, "count");
  }
}

// ---------------------------------------------------------------------------
// Distributed workloads: set-up, PILUT factor, distributed GMRES.

struct DistSpec {
  bench::TestMatrix matrix;
  int nranks = 1;
  std::vector<RealVec> rhs;
};

struct DistSetup {
  DistCsr dist;
  Halo halo;
  std::unique_ptr<sim::Machine> machine;
  double graph_s = 0, part_s = 0, create_s = 0, halo_s = 0;
  long long edge_cut = 0;
  idx interface_nodes = 0;
};

DistSetup dist_setup(Tracer& tracer, const DistSpec& spec, bool observed) {
  DistSetup s;
  Graph g;
  Partition part;
  s.graph_s = tracer.time("graph.graph_from_pattern", 0,
                          [&] { g = graph_from_pattern(spec.matrix.a); });
  s.part_s = tracer.time("part.partition_kway", 0,
                         [&] { part = partition_kway(g, spec.nranks, {.seed = 1}); });
  s.edge_cut = edge_cut(g, part);
  s.interface_nodes = count_interface(g, part);
  tracer.count("edge_cut", static_cast<double>(s.edge_cut));
  s.create_s = tracer.time("dist.DistCsr::create", 0,
                           [&] { s.dist = DistCsr::create(spec.matrix.a, part); });
  s.halo_s = tracer.time("dist.Halo::build", 0, [&] { s.halo = Halo::build(s.dist); });
  tracer.time("sim.Machine", 0, [&] {
    s.machine = std::make_unique<sim::Machine>(spec.nranks, machine_options(observed));
  });
  return s;
}

/// One time-to-solution: factor, build the triangular solver, solve every
/// right-hand side. Wall times per stage; exact values checked by `out`.
struct RepTimes {
  double factor_s = 0;
  double build_s = 0;
  std::vector<double> solve_s;  // one per right-hand side
  int matvecs = 0;
  std::uint64_t solve_supersteps = 0;
  double modeled_factor = 0;
  double modeled_solve = 0;
  bool ok = false;
  std::optional<PilutResult> fact;
};

RepTimes dist_rep(Tracer& tracer, Results& out, const DistSpec& spec, DistSetup& s,
                  std::uint64_t rep, bool perturb) {
  RepTimes t;
  sim::Machine& machine = *s.machine;
  std::optional<PilutResult>& fact = t.fact;
  bool factor_ok = true;
  try {
    t.factor_s = tracer.time("pilut.pilut_factor", rep,
                             [&] { fact = pilut_factor(machine, s.dist, kPilut); });
    tracer.count("supersteps", static_cast<double>(fact->stats.supersteps));
    fact->schedule.validate();
  } catch (const std::exception& e) {
    out.attempt(false, std::string("pilut_factor: ") + e.what());
    t.fact.reset();
    return t;
  }
  const PilutStats& st = fact->stats;
  t.modeled_factor = st.time_total;
  for (const auto& [name, value] :
       std::initializer_list<std::pair<const char*, double>>{
           {"factor_checksum", checksum(fact->factors)},
           {"modeled_factor_s", st.time_total},
           {"pilut.levels", st.levels},
           {"pilut.supersteps", static_cast<double>(st.supersteps)},
           {"pilut.messages", static_cast<double>(st.messages)},
           {"pilut.bytes_sent", static_cast<double>(st.bytes_sent)},
           {"pilut.flops", static_cast<double>(st.flops)},
           {"pilut.max_reduced_row", static_cast<double>(st.max_reduced_row)}}) {
    factor_ok = out.exact(name, value) && factor_ok;
  }
  out.attempt(factor_ok, "pilut_factor output differs from the run's first one");

  std::optional<DistTriangularSolver> solver;
  t.build_s = tracer.time("pilut.DistTriangularSolver", rep,
                          [&] { solver.emplace(fact->factors, fact->schedule); });
  bool all_ok = factor_ok;
  for (std::size_t j = 0; j < spec.rhs.size(); ++j) {
    const RealVec& b = spec.rhs[j];
    RealVec x(b.size(), 0.0);
    GmresResult r;
    std::string error;
    const double wall = tracer.time("krylov.gmres_dist", j, [&] {
      try {
        r = gmres_dist(machine, s.dist, s.halo, *solver, b, x, kGmres);
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    tracer.count("matvecs", r.matvecs);
    t.solve_s.push_back(wall);
    if (perturb && rep == 0 && j == 0) x[0] += 1.0;
    const double res = relative_residual(spec.matrix.a, x, b);
    const std::string tag = "rhs" + std::to_string(j);
    bool ok = error.empty() && r.converged && res <= kResidualBound;
    ok = out.exact("gmres_matvecs." + tag, r.matvecs) && ok;
    ok = out.exact("modeled_solve_s." + tag, machine.modeled_time()) && ok;
    ok = out.exact("sim.solve_supersteps." + tag,
                   static_cast<double>(machine.supersteps())) &&
         ok;
    char what[160];
    std::snprintf(what, sizeof what, "gmres_dist %s: converged=%d residual=%.3e %s",
                  tag.c_str(), r.converged ? 1 : 0, res, error.c_str());
    all_ok = out.attempt(ok, what) && all_ok;
    t.matvecs += r.matvecs;
    t.solve_supersteps += machine.supersteps();
    t.modeled_solve += machine.modeled_time();
  }
  t.ok = all_ok;
  return t;
}

/// Sum of the modeled elapsed time of every trace phase under `prefix`.
double modeled_under(const sim::Trace& trace, const std::string& prefix) {
  double total = 0.0;
  for (const auto& row : trace.phase_rollup()) {
    if (row.name == prefix || row.name.rfind(prefix + "/", 0) == 0) {
      total += row.stats.elapsed;
    }
  }
  return total;
}

void run_distributed(const Settings& cfg, const DistSpec& spec, Results& out) {
  Tracer tracer;

  // Set-up several times; setup_s is the median, the last one is used.
  std::vector<double> setups;
  DistSetup s;
  for (int i = 0; i < kSetups; ++i) {
    WallTimer setup_clock;
    s = dist_setup(tracer, spec, false);
    setups.push_back(setup_clock.seconds());
  }

  // Untraced repetitions of the whole time-to-solution. A trace run spends
  // half its budget here (for trace.overhead_frac) and then one traced rep.
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  // Each stage is a median over repetitions: the solver build, and every
  // right-hand side's solve on its own, so solve_s rests on all solves.
  std::vector<double> factor, build, per_rhs;
  std::vector<std::vector<double>> rhs_solves(spec.rhs.size());
  RepTimes last;
  WallTimer loop_clock;
  for (std::uint64_t rep = 0;; ++rep) {
    last = dist_rep(tracer, out, spec, s, rep, cfg.perturb);
    if (!last.fact) break;  // the factorization failed
    factor.push_back(last.factor_s);
    build.push_back(last.build_s);
    for (std::size_t j = 0; j < last.solve_s.size(); ++j) {
      rhs_solves[j].push_back(last.solve_s[j]);
    }
    per_rhs.insert(per_rhs.end(), last.solve_s.begin(), last.solve_s.end());
    // Stop at the repetition that ends nearest the budget; at least two.
    const double elapsed = loop_clock.seconds();
    const double mean = elapsed / static_cast<double>(rep + 1);
    if (elapsed + 0.5 * mean > budget && rep + 1 >= 2) break;
  }
  const double wall = loop_clock.seconds();
  const double setup_s = median(setups);
  const double factor_s = median(factor);
  double solve_s = median(build);
  for (const auto& samples : rhs_solves) solve_s += median(samples);
  const double solution_s = setup_s + factor_s + solve_s;

  out.end_to_end("setup_s", setup_s, "s");
  out.end_to_end("factor_s", factor_s, "s");
  out.end_to_end("solve_s", solve_s, "s");
  out.end_to_end("solution_s", solution_s, "s");
  out.end_to_end("gmres_matvecs", last.matvecs, "count");
  out.end_to_end("requests_per_s", static_cast<double>(per_rhs.size()) / wall, "1/s");
  out.end_to_end("latency_p50_s", quantile(per_rhs, 0.5), "s");
  out.end_to_end("latency_p90_s", quantile(per_rhs, 0.9), "s");
  std::printf("share of solution_s: setup %.3f, factor %.3f, solve %.3f\n",
              setup_s / solution_s, factor_s / solution_s, solve_s / solution_s);
  std::printf("modeled_factor_s %.9g modeled s\nmodeled_solve_s %.9g modeled s\n",
              last.modeled_factor, last.modeled_solve);
  std::printf("latency samples %zu (right-hand sides solved), repetitions %zu\n",
              per_rhs.size(), factor.size());
  if (last.fact) {
    std::printf("computed bytes: matrix %.0f, factors %.0f (L+U CSR)\n",
                csr_bytes(spec.matrix.a),
                csr_bytes(last.fact->factors.l) + csr_bytes(last.fact->factors.u));
  }
  if (!cfg.trace) {
    out.end_to_end("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  // ---- Traced pass: spans, sim::Trace rollups, sim::Metrics.
  tracer.set_recording(true);
  sim::Trace trace(sim::TraceOptions{.record_spans = false});
  DistSetup ts;
  const double traced_setup =
      tracer.time("setup", 0, [&] { ts = dist_setup(tracer, spec, true); });
  ts.machine->attach_trace(&trace);
  RepTimes tr;
  const double traced_rep_s = tracer.time("time_to_solution", 0, [&] {
    tr = dist_rep(tracer, out, spec, ts, 0, false);
  });
  if (!tr.fact) return;
  ts.machine->attach_trace(nullptr);
  const double traced_solution = traced_setup + traced_rep_s;
  out.layer("trace.overhead_frac", traced_solution / solution_s - 1.0, "ratio");

  out.layer("graph.from_pattern_s", ts.graph_s, "s");
  out.layer("part.partition_kway_s", ts.part_s, "s");
  out.layer("part.edge_cut", static_cast<double>(ts.edge_cut), "count");
  out.layer("part.interface_nodes", ts.interface_nodes, "count");
  out.layer("dist.create_s", ts.create_s, "s");
  out.layer("dist.halo_build_s", ts.halo_s, "s");

  // pilut: counters from the traced factorization (dist_rep checked them
  // against the untraced ones), modeled phases from the trace rollup.
  const PilutResult& fact = *tr.fact;
  const PilutStats& st = fact.stats;
  out.layer("pilut.levels", st.levels, "count");
  out.layer("pilut.supersteps", static_cast<double>(st.supersteps), "count");
  out.layer("pilut.messages", static_cast<double>(st.messages), "count");
  out.layer("pilut.bytes_sent", static_cast<double>(st.bytes_sent), "bytes");
  out.layer("pilut.flops", static_cast<double>(st.flops), "count");
  out.layer("pilut.max_reduced_row", static_cast<double>(st.max_reduced_row), "count");
  out.layer("pilut.s_per_superstep", tr.factor_s / static_cast<double>(st.supersteps),
            "s");
  out.layer("pilut.modeled.factor_s", st.time_total, "modeled_s");
  out.layer("pilut.modeled.interior_s", modeled_under(trace, "factor/interior"),
            "modeled_s");
  for (const char* phase :
       {"form_reduced", "setup", "mis", "number", "factor", "exchange", "reduce"}) {
    out.layer(std::string("pilut.modeled.interface.") + phase + "_s",
              modeled_under(trace, std::string("factor/interface/") + phase),
              "modeled_s");
  }
  out.layer("pilut.trisolver_build_s", tr.build_s, "s");

  // krylov / sim: the traced rep's solves.
  const double gmres_wall = sum(tr.solve_s);
  out.layer("krylov.gmres_dist_s_per_matvec", gmres_wall / tr.matvecs, "s");
  for (const char* phase : {"residual", "spmv", "precond", "orthog", "update"}) {
    out.layer(std::string("krylov.modeled.") + phase + "_s",
              modeled_under(trace, std::string("gmres/") + phase), "modeled_s");
  }
  out.layer("krylov.modeled.solve_s", tr.modeled_solve, "modeled_s");
  out.layer("sim.solve_supersteps", static_cast<double>(tr.solve_supersteps), "count");
  out.layer("sim.host_us_per_solve_superstep",
            1e6 * gmres_wall / static_cast<double>(tr.solve_supersteps), "us");
  double busy = 0.0, capacity = 0.0;
  if (sim::Metrics* metrics = ts.machine->metrics()) {
    metrics->flush(*ts.machine);
    for (const auto& row : metrics->phase_rows()) {
      for (const double b : row.stats->busy) busy += b;
      capacity += row.stats->elapsed * ts.machine->nranks();
    }
  }
  out.layer("sim.modeled.idle_frac", capacity > 0 ? 1.0 - busy / capacity : 0.0, "ratio");

  // Standalone calls: one distributed SpMV and one preconditioner apply.
  const DistTriangularSolver solver(fact.factors, fact.schedule);
  const RealVec& b = spec.rhs.front();
  RealVec y(b.size()), permuted(b.size());
  std::vector<double> spmv_s, apply_s;
  for (int i = 0; i < 5; ++i) {
    ts.machine->reset();
    spmv_s.push_back(tracer.time("dist.dist_spmv", i, [&] {
      dist_spmv(*ts.machine, ts.dist, ts.halo, b, y);
    }));
    apply_s.push_back(tracer.time("pilut.DistTriangularSolver::apply", i, [&] {
      solver.apply(*ts.machine, b, permuted);
    }));
  }
  out.layer("dist.spmv_call_s", median(spmv_s), "s");
  out.layer("pilut.trisolve_apply_s", median(apply_s), "s");
  if (!cfg.out.empty()) {
    const std::string path =
        cfg.out + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".spans.json";
    tracer.write(path);
    std::printf("spans: %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// serial_cache_mix: closed loop, one client, FactorCache + serial GMRES.

struct KeySpec {
  std::string name;
  const Csr* a = nullptr;
  bool blocked = false;
};

// Requests arrive in blocks of 20 holding each key a fixed number of times,
// shuffled by the seed: shares stay exact while order (and so which
// requests miss) and right-hand sides follow the seed. The shares put the
// median latency inside the G0-scalar solves and the 90th percentile inside
// the G0-blocked ones, away from the edges between groups. TORSO-blocked
// solves are the slow tail (their GMRES needs 400-1500 matvecs depending on
// the right-hand side), so they are one in twenty.
// In kKeys order: g0.scalar, g0.blocked, torso.scalar, torso.blocked.
constexpr int kBlockShare[] = {8, 5, 6, 1};

class RequestStream {
 public:
  struct Request {
    int key = 0;
    std::uint64_t rhs_seed = 0;
  };
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}

  Request next() {
    if (pos_ == block_.size()) refill();
    const int key = block_[pos_++];
    return {key, rng_.next_u64()};
  }

 private:
  void refill() {
    block_.clear();
    for (int k = 0; k < 4; ++k) block_.insert(block_.end(), kBlockShare[k], k);
    for (std::size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.next_below(i + 1)]);
    }
    pos_ = 0;
  }
  Rng rng_;
  std::vector<int> block_;
  std::size_t pos_ = 0;
};

struct MixStats {
  std::vector<double> latency, get_hit, solve;
  // Per key, in kKeys order. miss_factor[k] starts with the warm-up miss.
  std::array<std::vector<double>, 4> miss_factor;
  std::array<double, 4> key_gmres_s{};
  std::array<double, 4> key_matvecs{};
  std::array<int, 4> first_matvecs{-1, -1, -1, -1};
  // Exact per seed: totals over the first `min_requests` requests.
  double counted_matvecs = 0;
  serve::CacheStats counted;
  double wall = 0;
};

double factor_checksum(const Preconditioner& pc) {
  if (const auto* ilu = dynamic_cast<const IluPreconditioner*>(&pc)) {
    return checksum(ilu->factors());
  }
  if (const auto* blk = dynamic_cast<const BlockedIluPreconditioner*>(&pc)) {
    return checksum(blk->factors());
  }
  return 0.0;
}

/// Serve requests until `budget` seconds and `min_requests` have passed.
MixStats serve_loop(Tracer& tracer, Results& out, const std::vector<KeySpec>& keys,
                    std::uint64_t seed, double budget, std::size_t min_requests,
                    bool perturb) {
  MixStats m;
  serve::FactorCache cache(kCacheCapacity);
  std::vector<std::shared_ptr<const Preconditioner>> held(keys.size());
  const auto get = [&](int k) {
    const KeySpec& key = keys[k];
    return key.blocked ? cache.get_blocked(*key.a, kBlocked) : cache.get(*key.a, kIlut);
  };
  const auto check_factor = [&](int k, const Preconditioner& pc) {
    out.attempt(out.exact("factor_checksum." + keys[k].name, factor_checksum(pc)),
                "factorization of " + keys[k].name + " differs from its first");
  };
  // Warm-up: one cold miss per key before timing requests.
  for (int k = 0; k < static_cast<int>(keys.size()); ++k) {
    std::shared_ptr<const Preconditioner> pc;
    m.miss_factor[k].push_back(
        tracer.time("serve.FactorCache::get", 0, [&] { pc = get(k); }));
    check_factor(k, *pc);
  }
  const serve::CacheStats warm = cache.stats();

  RequestStream stream(seed);
  WallTimer clock;
  for (std::uint64_t id = 1;; ++id) {
    const auto req = stream.next();
    const KeySpec& key = keys[req.key];
    const RealVec b = serve::make_rhs(key.a->n_rows, req.rhs_seed);
    RealVec x(b.size(), 0.0);
    const std::uint64_t misses_before = cache.stats().misses;
    std::shared_ptr<const Preconditioner> pc;
    GmresResult r;
    std::string error;
    double get_s = 0, solve_s = 0;
    const double latency = tracer.time("request", id, [&] {
      get_s = tracer.time("serve.FactorCache::get", id, [&] { pc = get(req.key); });
      solve_s = tracer.time("krylov.gmres", id, [&] {
        try {
          r = gmres(*key.a, *pc, b, x, kGmres);
        } catch (const std::exception& e) {
          error = e.what();
        }
      });
      tracer.count("matvecs", r.matvecs);
    });
    const bool miss = cache.stats().misses != misses_before;
    tracer.count("miss", miss ? 1 : 0);
    if (miss) {
      m.miss_factor[req.key].push_back(get_s);
      check_factor(req.key, *pc);
    } else {
      m.get_hit.push_back(get_s);
    }
    if (perturb && id == 1) x[0] += 1.0;
    const double res = relative_residual(*key.a, x, b);
    char what[160];
    std::snprintf(what, sizeof what, "request %llu (%s): converged=%d residual=%.3e %s",
                  static_cast<unsigned long long>(id), key.name.c_str(),
                  r.converged ? 1 : 0, res, error.c_str());
    out.attempt(error.empty() && r.converged && res <= kResidualBound, what);

    m.latency.push_back(latency);
    m.solve.push_back(solve_s);
    m.key_gmres_s[req.key] += solve_s;
    m.key_matvecs[req.key] += r.matvecs;
    if (m.first_matvecs[req.key] < 0) m.first_matvecs[req.key] = r.matvecs;
    if (id <= min_requests) {
      m.counted_matvecs += r.matvecs;
      const serve::CacheStats now = cache.stats();
      m.counted = {now.hits - warm.hits, now.misses - warm.misses,
                   now.evictions - warm.evictions};
    }
    if (clock.seconds() >= budget && m.latency.size() >= min_requests) break;
  }
  m.wall = clock.seconds();
  return m;
}

void run_serial_mix(const Settings& cfg, const Sizes& sizes, Results& out) {
  Tracer tracer;
  // Set-up: build the two operators the client serves.
  std::vector<double> setups;
  bench::TestMatrix g0, torso;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(tracer.time("workloads.build", 0, [&] {
      g0 = bench::build_g0(sizes.scale);
      torso = bench::build_torso(sizes.scale);
    }));
  }
  const std::vector<KeySpec> keys = {
      {kKeys[0], &g0.a, false}, {kKeys[1], &g0.a, true},
      {kKeys[2], &torso.a, false}, {kKeys[3], &torso.a, true}};

  // A trace run splits its budget between an untraced and a traced pass of
  // the same stream and needs no latency percentiles, so fewer requests.
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::size_t min_requests =
      cfg.trace ? sizes.min_requests / 2 : sizes.min_requests;
  const MixStats m =
      serve_loop(tracer, out, keys, cfg.seed, budget, min_requests, cfg.perturb);

  const double setup_s = median(setups);
  double factor_s = 0.0;
  for (const auto& samples : m.miss_factor) factor_s += median(samples);
  const double solve_s = sum(m.solve) / static_cast<double>(m.solve.size());
  const double requests_per_s = static_cast<double>(m.latency.size()) / m.wall;
  out.end_to_end("setup_s", setup_s, "s");
  out.end_to_end("factor_s", factor_s, "s");
  out.end_to_end("solve_s", solve_s, "s");
  out.end_to_end("solution_s", setup_s + factor_s + solve_s, "s");
  out.end_to_end("gmres_matvecs", m.counted_matvecs, "count");
  out.end_to_end("requests_per_s", requests_per_s, "1/s");
  out.end_to_end("latency_p50_s", quantile(m.latency, 0.5), "s");
  out.end_to_end("latency_p90_s", quantile(m.latency, 0.9), "s");
  std::uint64_t misses = 0;
  double miss_s = 0.0;
  for (const auto& samples : m.miss_factor) {  // the first sample is the warm-up
    misses += samples.size() - 1;
    miss_s += sum(samples) - samples.front();
  }
  std::printf(
      "share of request wall: factor on a miss %.3f, lookup on a hit %.3f, gmres %.3f\n",
      miss_s / m.wall, sum(m.get_hit) / m.wall, sum(m.solve) / m.wall);
  std::printf("latency samples %zu requests, %llu misses (miss share %.3f)\n",
              m.latency.size(), static_cast<unsigned long long>(misses),
              static_cast<double>(misses) / static_cast<double>(m.latency.size()));
  const auto check_exact = [&](const MixStats& s) {
    for (int k = 0; k < 4; ++k) {
      out.exact("krylov.matvecs." + keys[k].name, s.first_matvecs[k]);
    }
    const std::string prefix = ".first" + std::to_string(min_requests);
    out.exact("gmres_matvecs" + prefix, s.counted_matvecs);
    out.exact("serve.cache_misses" + prefix, static_cast<double>(s.counted.misses));
  };
  check_exact(m);
  if (!cfg.trace) {
    out.end_to_end("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  // ---- Traced pass over the same stream.
  tracer.set_recording(true);
  MixStats t;
  tracer.time("serve_loop", 0, [&] {
    t = serve_loop(tracer, out, keys, cfg.seed, budget, min_requests, false);
  });
  check_exact(t);
  const double traced_rate = static_cast<double>(t.latency.size()) / t.wall;
  out.layer("trace.overhead_frac", requests_per_s / traced_rate - 1.0, "ratio");
  const serve::CacheStats& c = t.counted;
  out.layer("serve.cache_hits", static_cast<double>(c.hits), "count");
  out.layer("serve.cache_misses", static_cast<double>(c.misses), "count");
  out.layer("serve.cache_evictions", static_cast<double>(c.evictions), "count");
  out.layer("serve.hit_ratio",
            static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses),
            "ratio");
  out.layer("serve.get_hit_s", median(t.get_hit), "s");

  for (const auto& [name, a] : {std::pair<const char*, const Csr*>{"g0", &g0.a},
                                {"torso", &torso.a}}) {
    const RealVec x = serve::make_rhs(a->n_rows, cfg.seed);
    RealVec y(x.size());
    std::vector<double> samples;
    for (int i = 0; i < 20; ++i) {
      samples.push_back(tracer.time("sparse.spmv", i, [&] { spmv(*a, x, y); }));
    }
    out.layer(std::string("sparse.spmv_s.") + name, median(samples), "s");
  }
  for (int k = 0; k < 4; ++k) {
    const KeySpec& key = keys[k];
    serve::FactorCache cache(1);
    std::shared_ptr<const Preconditioner> pc =
        key.blocked ? cache.get_blocked(*key.a, kBlocked) : cache.get(*key.a, kIlut);
    const RealVec b = serve::make_rhs(key.a->n_rows, cfg.seed);
    RealVec x(b.size());
    std::vector<double> samples;
    for (int i = 0; i < 10; ++i) {
      samples.push_back(
          tracer.time("ilu.Preconditioner::apply", i, [&] { pc->apply(b, x); }));
    }
    // Computed bytes of one apply: every factor array read once, b read,
    // x written.
    const double n = key.a->n_rows;
    double factor_nnz = 0, factor_bytes = 0;
    if (const auto* ilu = dynamic_cast<const IluPreconditioner*>(pc.get())) {
      factor_nnz = static_cast<double>(ilu->factors().l.nnz() + ilu->factors().u.nnz());
      factor_bytes = csr_bytes(ilu->factors().l) + csr_bytes(ilu->factors().u);
    } else if (const auto* blk =
                   dynamic_cast<const BlockedIluPreconditioner*>(pc.get())) {
      const BlockedFactors& f = blk->factors();
      factor_nnz = static_cast<double>(f.nnz());
      double indices = static_cast<double>(f.panel_start.size());
      for (idx p = 0; p < f.n_panels(); ++p) {
        indices += static_cast<double>(f.lcols[p].size() + f.ucols[p].size());
      }
      factor_bytes = static_cast<double>(f.stored_entries()) * sizeof(real) +
                     indices * sizeof(idx);
    }
    out.layer("ilu.factor_s." + key.name, median(t.miss_factor[k]), "s");
    out.layer("ilu.apply_s." + key.name, median(samples), "s");
    out.layer("ilu.factor_nnz." + key.name, factor_nnz, "count");
    out.layer("ilu.apply_bytes." + key.name, factor_bytes + 2 * n * sizeof(real),
              "bytes_computed");
    out.layer("krylov.gmres_s_per_matvec." + key.name,
              t.key_matvecs[k] > 0 ? t.key_gmres_s[k] / t.key_matvecs[k] : 0.0, "s");
    out.layer("krylov.matvecs." + key.name, t.first_matvecs[k], "count");
    std::printf("computed bytes: %s matrix %.0f, factors %.0f\n", key.name.c_str(),
                csr_bytes(*key.a), factor_bytes);
  }
  if (!cfg.out.empty()) {
    const std::string path =
        cfg.out + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".spans.json";
    tracer.write(path);
    std::printf("spans: %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    Settings cfg;
    cfg.workload = cli.get_choice("workload", "",
                                  {"torso_p16", "g0_p64_multi_rhs", "serial_cache_mix"});
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    cfg.seconds = cli.get_double("seconds", 10.0);
    cfg.trace = cli.get_int("trace", 0) != 0;
    cfg.tiny = cli.get_choice("scale", "default", {"default", "tiny"}) == "tiny";
    cfg.perturb = cli.get_bool("perturb-solution", false);
    cfg.out = cli.get_string("out", "");
    cli.check_all_consumed();
    PTILU_CHECK(!cfg.workload.empty(), "--workload is required");
    PTILU_CHECK(cfg.seconds > 0, "--seconds must be positive");

    const Sizes sizes = Sizes::of(cfg.tiny);
    std::printf("ttsbench: workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? "tiny" : "default");
    Results out;
    if (cfg.trace) declare_layers(out);
    if (cfg.workload == "serial_cache_mix") {
      run_serial_mix(cfg, sizes, out);
    } else {
      DistSpec spec;
      if (cfg.workload == "torso_p16") {
        spec.matrix = bench::build_torso(sizes.scale);
        spec.nranks = sizes.torso_ranks;
        spec.rhs.push_back(workloads::rhs_all_ones_solution(spec.matrix.a));
      } else {
        spec.matrix = bench::build_g0(sizes.scale);
        spec.nranks = sizes.g0_ranks;
        for (int j = 0; j < sizes.g0_rhs; ++j) {
          spec.rhs.push_back(serve::make_rhs(spec.matrix.a.n_rows, mix64(cfg.seed + j)));
        }
      }
      std::printf("matrix %s: %s\n", spec.matrix.name.c_str(),
                  workloads::describe(workloads::matrix_stats(spec.matrix.a)).c_str());
      run_distributed(cfg, spec, out);
    }
    out.print(cfg.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttsbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
