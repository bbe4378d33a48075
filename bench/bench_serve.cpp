// Preconditioner-as-a-service benchmark: seeded synthetic traffic against
// a FactorCache-backed solve service, measuring what batching and factor
// reuse buy at serving time.
//
// Three bench families, one JSON file ("ptilu-bench-serve-v1"):
//
//  * apply_benches — the core serving loop. A deterministic Poisson
//    arrival schedule (serve/traffic.hpp; modeled seconds, never the wall
//    clock) is pushed through the single-server FIFO batching policy of
//    serve/solve_service.hpp at several --batch caps. Batch formation uses
//    MODELED service times, so WHICH requests batch together is identical
//    on every backend and every run; each planned batch is then executed
//    for real through the batched DenseRhsBlock trisolves and its measured
//    wall time replayed through the same queueing recursion, yielding wall
//    p50/p99 latency and solves/sec for identical batching decisions.
//    Arrival times live on the modeled axis and cannot be meaningfully
//    compared against wall seconds, so the wall replay is CLOSED-LOOP:
//    every request is treated as already queued at t=0 and the frozen
//    batches run back-to-back — wall_total_s is exactly the sum of the
//    measured batch times, and wall latency is time-in-system under full
//    backlog. The arrival rate oversubscribes the modeled k=1 server, so
//    the wall throughput ratio between --batch=8 and --batch=1 exposes the
//    batched kernels' own speedup (factor streamed once per batch, k
//    register-resident accumulators).
//
//  * stream_benches — c host threads each running serial preconditioned
//    GMRES end to end against ONE shared cached factor (the pipelined
//    front-end; apply is const and thread-safe by construction). The
//    checksum folds every stream's residuals/matvecs in stream order, so
//    it is identical no matter how the OS schedules the threads — the
//    tsan preset runs exactly this bench's test-suite twin.
//
//  * dist_benches — the simulated-parallel side: one batched
//    DistTriangularSolver::apply over k right-hand sides versus k
//    single-RHS applies on the same machine, comparing modeled time and
//    message counts (the batched level sweep sends ONE message pair per
//    peer per level regardless of k).
//
// Serving telemetry (serve/telemetry.hpp, docs/SERVING.md §6) rides the
// apply and stream benches: every request's lifecycle is journaled into
// an EventLog (exported as Chrome trace spans with --serve-trace), modeled
// latencies stream into sharded-and-merged LatencyHistograms whose
// quantiles are checked against the exact SortedSample within the
// documented bucket-resolution bound, every batch is decomposed by
// attribute_batches (queue-wait / cache-resolve / per-column solve, with
// first-argmax straggler elections and lane rollups), and the final
// stream bench is decomposed by attribute_streams. --serve-report writes
// the versioned "ptilu-serve-report-v1" JSON (serve/serve_report.hpp),
// which scripts/check_serve_report.py re-derives identity by identity;
// the report carries no backend or wall fields, so the same command on
// both backends produces byte-identical files.
//
// The top-level "payload_checksum" is an FNV-1a 64 hash over the
// deterministic fields only (modeled numbers, checksums, cache counters —
// never wall-clock), so two runs on different backends must produce the
// same value. With --exact all wall_* fields are omitted from the JSON,
// making the whole file byte-comparable across runs and backends; CI and
// the determinism ctests diff exactly that.
//
// Flags: --smoke / --quick (problem size), --requests=N, --batch=LIST
// (batch caps for apply_benches), --streams=LIST (thread counts for
// stream_benches), --procs=P and --dist-k=K (dist_benches shape),
// --seed=N, --cache-cap=N (FactorCache capacity; default from
// PTILU_SERVE_CACHE_CAP), --json=PATH, --exact (deterministic-only JSON),
// --serve-report[=PATH] (ptilu-serve-report-v1; default serve_report.json),
// --serve-trace[=PATH] (lifecycle Chrome trace; default serve_trace.json),
// --trace/--trace-dir and --report/--report-dir (shared harness
// observability: an observed rerun of the dist bench with per-phase
// breakdown and the standard ptilu-report-v2 run report),
// --backend=<sequential|threads> / --threads=N (simulated-machine backend
// for dist_benches, default from PTILU_BACKEND / PTILU_THREADS).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ptilu/ilu/ilut.hpp"
#include "ptilu/ilu/rhs_block.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/preconditioner.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/serve/factor_cache.hpp"
#include "ptilu/serve/serve_report.hpp"
#include "ptilu/serve/solve_service.hpp"
#include "ptilu/serve/telemetry.hpp"
#include "ptilu/serve/traffic.hpp"
#include "ptilu/support/report.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/support/timer.hpp"

namespace {

using namespace ptilu;
using bench::TestMatrix;

/// Latencies are split round-robin into this many shard histograms and
/// merged back — exercising (and counting) the mergeable-histogram path
/// the way a multi-worker frontend would use it. Merging is element-wise
/// count addition, so the merged histogram is bit-identical to recording
/// into one histogram directly (test_serve_telemetry pins this).
constexpr int kHistShards = 4;

struct ApplyBench {
  int batch_max = 0;
  std::size_t batches = 0;
  serve::ServeReport modeled;
  serve::ServeReport wall;  // valid only when `measured`
  bool measured = false;
  double checksum = 0.0;
  double exact_p50 = 0.0, exact_p99 = 0.0;  ///< SortedSample reads (modeled)
  double hist_p50 = 0.0, hist_p99 = 0.0;    ///< LatencyHistogram reads (modeled)
  double wall_p50 = 0.0, wall_p99 = 0.0;    ///< valid only when `measured`
};

struct StreamBench {
  int streams = 0;
  int solves = 0;
  long long matvecs = 0;
  double wall_total_s = 0.0;  // valid only when `measured`
  bool measured = false;
  double checksum = 0.0;
};

struct DistBench {
  int procs = 0;
  int k = 0;
  double modeled_batched_s = 0.0;
  double modeled_single_s = 0.0;
  std::uint64_t batched_messages = 0;
  std::uint64_t single_messages = 0;
  double checksum = 0.0;
};

double block_checksum(const DenseRhsBlock& x) {
  double sum = 0.0;
  for (const real v : x.data) sum += v;
  return sum;
}

/// Append "key=<%.17g value>;" to the payload checksum's input: the
/// deterministic report fields in the same form the JSON writer uses, so
/// "same checksum" means "same deterministic payload".
void append_field(std::string& out, const char* key, double value) {
  out += key;
  out += '=';
  report::append_number(out, value);
  out += ';';
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const bool quick = cli.get_bool("quick", false);
  bench::Scale scale;
  if (smoke) {
    scale = {48, 48, 8, 8, 12};
  } else if (quick) {
    scale = {96, 96, 16, 16, 24};
  }
  const int requests = static_cast<int>(cli.get_int("requests", smoke ? 48 : (quick ? 96 : 256)));
  const std::vector<int> batch_caps = cli.get_int_list("batch", {1, 2, 4, 8});
  const std::vector<int> stream_counts =
      cli.get_int_list("streams", smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4});
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const int dist_k = static_cast<int>(cli.get_int("dist-k", 8));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto cache_cap = static_cast<std::size_t>(
      cli.get_int("cache-cap", static_cast<long long>(serve::FactorCache::capacity_from_env())));
  const std::string json_path = cli.get_string("json", "");
  const bool exact = cli.get_bool("exact", false);
  // Bare --serve-report / --serve-trace parse as the value "true": treat
  // that as "use the default file name in the working directory".
  std::string serve_report_path = cli.get_string("serve-report", "");
  if (serve_report_path == "true") serve_report_path = "serve_report.json";
  std::string serve_trace_path = cli.get_string("serve-trace", "");
  if (serve_trace_path == "true") serve_trace_path = "serve_trace.json";
  const sim::Machine::Options machine_opts = bench::machine_options_from_cli(cli);
  bench::Observability obs(cli, "serve");
  cli.check_all_consumed();
  PTILU_CHECK(requests >= 1 && procs >= 1 && dist_k >= 1, "invalid bench shape");

  const TestMatrix g0 = bench::build_g0(scale);
  const idx n = g0.a.n_rows;
  const auto nnz = static_cast<std::uint64_t>(g0.a.nnz());
  const IlutOptions serial_opts{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};

  serve::FactorCache cache(cache_cap);
  sim::Metrics registry(1);
  cache.attach_metrics(&registry);
  serve::ServeTelemetry telemetry;
  telemetry.attach_metrics(&registry);
  serve::EventLog event_log;

  std::printf("bench_serve: scale=%s requests=%d seed=%llu cache-cap=%zu backend=%s%s\n",
              smoke ? "smoke" : (quick ? "quick" : "default"), requests,
              static_cast<unsigned long long>(seed), cache_cap,
              sim::backend_name(machine_opts.backend), exact ? " (exact)" : "");

  // Shared modeled cost model: every batch pays one cache resolve
  // (fingerprint probe), streams the factors once, and pays k columns of
  // substitution flops, at the simulator's T3D rates. costs.total_s IS the
  // planned service time, so the telemetry decomposition re-sums to the
  // plan bit-exactly.
  const std::shared_ptr<const Preconditioner> factor = cache.get(g0.a, serial_opts);
  const auto* ilu = dynamic_cast<const IluPreconditioner*>(factor.get());
  PTILU_CHECK(ilu != nullptr, "serve bench expects a scalar ILUT factor");
  const auto nnz_l = static_cast<std::uint64_t>(ilu->factors().l.nnz());
  const auto nnz_u = static_cast<std::uint64_t>(ilu->factors().u.nnz());
  const sim::MachineParams rates = sim::MachineParams::cray_t3d();
  const serve::BatchCostModel costs =
      serve::modeled_batch_costs(n, nnz, nnz_l, nnz_u, rates.flop, rates.mem);
  const std::uint64_t fingerprint = serve::matrix_fingerprint(g0.a);
  const auto modeled_service = [&](int k) { return costs.total_s(k); };

  // Oversubscribe the k=1 server (arrivals 8x faster than it can solve):
  // under this load the batch caps separate cleanly, and solves/sec
  // becomes a measurement of per-batch service cost, i.e. of the batched
  // kernels themselves.
  serve::TrafficOptions traffic;
  traffic.requests = requests;
  traffic.mean_interarrival_s = modeled_service(1) / 8.0;
  traffic.seed = seed;
  const std::vector<serve::Request> schedule = serve::make_schedule(traffic);

  // --- apply_benches: queue the same schedule at each batch cap.
  std::vector<ApplyBench> apply_benches;
  std::vector<serve::ApplySection> apply_sections;
  for (const int batch_max : batch_caps) {
    PTILU_CHECK(batch_max >= 1, "--batch entries must be >= 1");
    ApplyBench bench;
    bench.batch_max = batch_max;
    const std::vector<serve::Batch> plan =
        serve::plan_serve(schedule, batch_max, modeled_service);
    bench.batches = plan.size();

    std::vector<double> planned_s(plan.size());
    for (std::size_t b = 0; b < plan.size(); ++b) planned_s[b] = plan[b].service_s;
    bench.modeled = serve::replay_latencies(plan, schedule, planned_s);

    // Decompose every planned batch: queue-wait per member, resolve /
    // shared-stream / per-column costs, first-argmax straggler, lane
    // rollups. attribute_batches re-runs the queue recursion and throws
    // if the plan was not formed from this schedule and cost model.
    serve::ApplyAttribution attribution =
        serve::attribute_batches(schedule, plan, costs, batch_max, &telemetry);

    // Execute every batch for real through the cache-held factor — one
    // cache resolve per batch, exactly as the cost model charges. The same
    // factor serves every batch, so after the warmup miss this loop is all
    // cache hits; the hit/miss outcome per batch feeds the event log and
    // the serve report. Wall time per batch feeds the replay; the solve
    // values feed the checksum either way.
    std::vector<bool> cache_hits(plan.size(), false);
    std::vector<double> wall_s(plan.size(), 0.0);
    std::vector<double> wall_done_s(plan.size(), 0.0);
    WallTimer cap_timer;
    for (std::size_t b = 0; b < plan.size(); ++b) {
      const serve::Batch& batch = plan[b];
      const std::uint64_t hits_before = cache.stats().hits;
      const std::shared_ptr<const Preconditioner> served = cache.get(g0.a, serial_opts);
      cache_hits[b] = cache.stats().hits > hits_before;
      DenseRhsBlock rhs(n, batch.count);
      for (int c = 0; c < batch.count; ++c) {
        rhs.set_col(c, serve::make_rhs(
                           n, schedule[static_cast<std::size_t>(batch.first + c)].rhs_seed));
      }
      DenseRhsBlock x(n, batch.count);
      WallTimer timer;
      serve::apply_batch(*served, rhs, x);
      wall_s[b] = timer.seconds();
      wall_done_s[b] = cap_timer.seconds();
      bench.checksum += block_checksum(x);
    }

    // Journal the full lifecycle of this cap's plan: enqueue → resolve →
    // admit → solve start → complete, modeled timestamps throughout, wall
    // completion stamps when measuring (never under --exact).
    event_log.begin_group("apply b<=" + std::to_string(batch_max));
    serve::append_lifecycle_events(event_log, schedule, attribution, costs, fingerprint,
                                   cache_hits,
                                   exact ? std::vector<double>{} : wall_done_s);

    // Modeled latencies through the mergeable histogram, sharded the way a
    // multi-worker frontend would shard them, then merged. Σ counts must
    // equal the requests served — the exact-count identity.
    std::vector<serve::LatencyHistogram> shards(kHistShards);
    for (std::size_t r = 0; r < bench.modeled.latency_s.size(); ++r) {
      shards[r % kHistShards].record(bench.modeled.latency_s[r]);
    }
    for (int s = 1; s < kHistShards; ++s) shards[0].merge(shards[static_cast<std::size_t>(s)], &telemetry);
    const serve::LatencyHistogram& hist = shards[0];
    PTILU_CHECK(hist.total() == static_cast<std::uint64_t>(requests),
                "histogram bucket counts must sum to the requests served");

    // Both quantile paths read the SAME sample: the histogram returns the
    // bucket's upper edge, so it must bound the exact quantile from above
    // within the documented 1/kSubBuckets resolution.
    const serve::SortedSample sample(bench.modeled.latency_s);
    bench.exact_p50 = sample.quantile(0.50);
    bench.exact_p99 = sample.quantile(0.99);
    bench.hist_p50 = hist.quantile(0.50);
    bench.hist_p99 = hist.quantile(0.99);
    const double bound = 1.0 + serve::LatencyHistogram::relative_error_bound();
    PTILU_CHECK(bench.hist_p50 > bench.exact_p50 && bench.hist_p50 <= bench.exact_p50 * bound &&
                    bench.hist_p99 > bench.exact_p99 && bench.hist_p99 <= bench.exact_p99 * bound,
                "histogram quantiles outside the bucket-resolution bound");

    if (!exact) {
      // Closed-loop wall replay: same batches, arrivals pinned to t=0 (see
      // the file comment — modeled arrivals and wall seconds are different
      // axes), so wall_total_s is the pure back-to-back service time.
      std::vector<serve::Request> saturated = schedule;
      for (serve::Request& request : saturated) request.arrival_s = 0.0;
      bench.wall = serve::replay_latencies(plan, saturated, wall_s);
      const serve::SortedSample wall_sample(bench.wall.latency_s);
      bench.wall_p50 = wall_sample.quantile(0.50);
      bench.wall_p99 = wall_sample.quantile(0.99);
      bench.measured = true;
    }

    serve::ApplySection section;
    section.cap = batch_max;
    section.n = n;
    section.nnz = nnz;
    section.nnz_l = nnz_l;
    section.nnz_u = nnz_u;
    section.fingerprint = fingerprint;
    section.costs = costs;
    section.attribution = std::move(attribution);
    section.cache_hit = cache_hits;
    section.hist = hist;
    section.hist_p50 = bench.hist_p50;
    section.hist_p99 = bench.hist_p99;
    section.exact_p50 = bench.exact_p50;
    section.exact_p99 = bench.exact_p99;
    apply_sections.push_back(std::move(section));

    const double modeled_rate = static_cast<double>(requests) / bench.modeled.total_s;
    std::printf("apply  batch<=%-2d %4zu batches  modeled %8.1f solves/s  p99 %.3e s"
                " (hist %.3e s)  straggler lane %d",
                batch_max, bench.batches, modeled_rate, bench.exact_p99, bench.hist_p99,
                apply_sections.back().attribution.batches.front().straggler_column);
    if (bench.measured) {
      std::printf("  wall %8.1f solves/s",
                  static_cast<double>(requests) / bench.wall.total_s);
    }
    std::printf("\n");
    apply_benches.push_back(std::move(bench));
  }

  // The headline ratio the acceptance gate watches: wall solves/sec at the
  // largest batch cap over batch cap 1.
  if (!exact && apply_benches.size() >= 2 && apply_benches.front().batch_max == 1) {
    const ApplyBench& widest = apply_benches.back();
    const double ratio = apply_benches.front().wall.total_s / widest.wall.total_s;
    std::printf("batched wall speedup (batch<=%d vs 1): %.2fx\n", widest.batch_max, ratio);
  }

  // --- stream_benches: c concurrent GMRES streams, one shared factor.
  std::vector<StreamBench> stream_benches;
  const int stream_solves = smoke ? 8 : (quick ? 12 : 24);
  // Per-solve matvec counts, recorded by solve id: solve q's iteration
  // count is a property of (matrix, rhs seed), not of the thread count, so
  // every stream bench writes the same values. They feed the stream
  // attribution below.
  std::vector<long long> solve_matvecs(static_cast<std::size_t>(stream_solves), 0);
  for (const int streams : stream_counts) {
    PTILU_CHECK(streams >= 1, "--streams entries must be >= 1");
    StreamBench bench;
    bench.streams = streams;
    bench.solves = stream_solves;
    const std::shared_ptr<const Preconditioner> shared = cache.get(g0.a, serial_opts);
    std::vector<double> stream_sums(static_cast<std::size_t>(streams), 0.0);
    std::vector<long long> stream_matvecs(static_cast<std::size_t>(streams), 0);
    WallTimer timer;
    {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(streams));
      for (int s = 0; s < streams; ++s) {
        pool.emplace_back([&, s]() {
          // Stream s owns solves s, s+streams, s+2*streams, ... — a fixed
          // partition, so the per-stream sums (and therefore the checksum)
          // do not depend on thread scheduling, and solve_matvecs[q] has
          // exactly one writer.
          for (int q = s; q < stream_solves; q += streams) {
            const RealVec b = serve::make_rhs(
                n, mix64(seed ^ (0xB0A715ULL + static_cast<std::uint64_t>(q))));
            RealVec x(static_cast<std::size_t>(n), 0.0);
            const GmresResult solve = gmres(g0.a, *shared, b, x, {.restart = 20});
            stream_sums[static_cast<std::size_t>(s)] +=
                solve.final_residual + static_cast<double>(solve.matvecs);
            stream_matvecs[static_cast<std::size_t>(s)] += solve.matvecs;
            solve_matvecs[static_cast<std::size_t>(q)] = solve.matvecs;
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    bench.wall_total_s = timer.seconds();
    bench.measured = !exact;
    for (int s = 0; s < streams; ++s) {
      bench.checksum += stream_sums[static_cast<std::size_t>(s)];
      bench.matvecs += stream_matvecs[static_cast<std::size_t>(s)];
    }
    std::printf("stream c=%-2d %d solves  checksum %.6g", streams, bench.solves,
                bench.checksum);
    if (bench.measured) {
      std::printf("  wall %6.1f solves/s",
                  static_cast<double>(bench.solves) / bench.wall_total_s);
    }
    std::printf("\n");
    stream_benches.push_back(bench);
  }

  // Attribute the widest stream sweep: solve q costs matvecs[q] modeled
  // GMRES iterations, rounds barrier at the slowest stream (first-argmax
  // straggler election), per-stream busy/idle/imbalance roll up — real
  // variance, since iteration counts differ across right-hand sides.
  const double step_s =
      serve::modeled_stream_step_s(n, nnz, nnz_l, nnz_u, rates.flop, rates.mem);
  const serve::StreamAttribution stream_attr =
      serve::attribute_streams(stream_counts.back(), solve_matvecs, step_s, &telemetry);
  std::printf("stream attribution c=%d: %zu rounds  modeled %.3e s  imbalance %.3f\n",
              stream_attr.streams, stream_attr.rounds.size(),
              stream_attr.rollup.elapsed_s, stream_attr.rollup.imbalance);

  // --- dist_benches: batched vs single-RHS distributed trisolve applies.
  std::vector<DistBench> dist_benches;
  {
    DistBench bench;
    bench.procs = procs;
    bench.k = dist_k;
    const DistCsr dist = bench::distribute(g0.a, procs);
    sim::Machine machine(procs, machine_opts);
    const PilutOptions pilut_opts{.m = 10, .tau = 1e-4, .pivot_rel = 1e-12};
    const PilutResult fact = pilut_factor(machine, dist, pilut_opts);
    const DistTriangularSolver solver(fact.factors, fact.schedule);

    DenseRhsBlock rhs(n, dist_k);
    for (int c = 0; c < dist_k; ++c) {
      rhs.set_col(c, serve::make_rhs(
                         n, mix64(seed ^ (0xD157ULL + static_cast<std::uint64_t>(c)))));
    }

    machine.reset();
    RealVec x_single(static_cast<std::size_t>(n));
    for (int c = 0; c < dist_k; ++c) {
      const RealVec b(rhs.col(c).begin(), rhs.col(c).end());
      solver.apply(machine, b, x_single);
      for (const real v : x_single) bench.checksum += v;
    }
    bench.modeled_single_s = machine.modeled_time();
    bench.single_messages = machine.total_counters().messages_sent;

    machine.reset();
    DenseRhsBlock x_batched(n, dist_k);
    solver.apply(machine, rhs, x_batched);
    bench.modeled_batched_s = machine.modeled_time();
    bench.batched_messages = machine.total_counters().messages_sent;
    std::printf("dist   p=%-3d k=%d  modeled %.3e s batched vs %.3e s single (%.2fx), "
                "messages %llu vs %llu\n",
                procs, dist_k, bench.modeled_batched_s, bench.modeled_single_s,
                bench.modeled_single_s / bench.modeled_batched_s,
                static_cast<unsigned long long>(bench.batched_messages),
                static_cast<unsigned long long>(bench.single_messages));
    dist_benches.push_back(bench);

    if (obs.enabled()) {
      // Observed rerun of the batched dist solve with the shared harness
      // observability (trace rollups / metrics report) attached — the
      // measurement runs above stay uninstrumented.
      sim::Machine observed(procs, obs.machine_options(machine_opts));
      obs.attach(observed);
      const PilutResult ofact = pilut_factor(observed, dist, pilut_opts);
      const DistTriangularSolver osolver(ofact.factors, ofact.schedule);
      DenseRhsBlock x_obs(n, dist_k);
      osolver.apply(observed, rhs, x_obs);
      const std::string label =
          "dist p=" + std::to_string(procs) + " k=" + std::to_string(dist_k);
      obs.report(observed, label,
                 {{"procs", std::to_string(procs)}, {"k", std::to_string(dist_k)}});
    }
  }

  const serve::CacheStats& cache_stats = cache.stats();
  std::printf("cache  cap=%zu hits=%llu misses=%llu evictions=%llu\n", cache.capacity(),
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.evictions));
  // stats() and the attached registry must always tell the same story.
  PTILU_CHECK(registry.counter_value("serve/cache/hits", 0) == cache_stats.hits &&
                  registry.counter_value("serve/cache/misses", 0) == cache_stats.misses &&
                  registry.counter_value("serve/cache/evictions", 0) == cache_stats.evictions,
              "cache stats / metrics registry mismatch");

  const serve::TelemetryStats& tstats = telemetry.stats();
  std::printf("telemetry requests=%llu batches=%llu elections=%llu hist-merges=%llu\n",
              static_cast<unsigned long long>(tstats.requests),
              static_cast<unsigned long long>(tstats.batches),
              static_cast<unsigned long long>(tstats.straggler_elections),
              static_cast<unsigned long long>(tstats.histogram_merges));
  PTILU_CHECK(
      registry.counter_value("serve/telemetry/requests", 0) == tstats.requests &&
          registry.counter_value("serve/telemetry/batches", 0) == tstats.batches &&
          registry.counter_value("serve/telemetry/straggler_elections", 0) ==
              tstats.straggler_elections &&
          registry.counter_value("serve/telemetry/histogram_merges", 0) ==
              tstats.histogram_merges,
      "telemetry stats / metrics registry mismatch");

  // Deterministic payload checksum: everything modeled, nothing wall.
  std::string payload = "ptilu-bench-serve-v1;";
  payload += g0.name + ";";
  payload += std::to_string(n) + ";" + std::to_string(g0.a.nnz()) + ";";
  payload += std::to_string(requests) + ";" + std::to_string(seed) + ";";
  payload += std::to_string(cache_stats.hits) + ";" + std::to_string(cache_stats.misses) +
             ";" + std::to_string(cache_stats.evictions) + ";";
  payload += "telemetry:" + std::to_string(tstats.requests) + ":" +
             std::to_string(tstats.batches) + ":" +
             std::to_string(tstats.straggler_elections) + ":" +
             std::to_string(tstats.histogram_merges) + ";";
  for (const ApplyBench& bench : apply_benches) {
    payload += "apply:" + std::to_string(bench.batch_max) + ":" +
               std::to_string(bench.batches) + ";";
    append_field(payload, "total", bench.modeled.total_s);
    append_field(payload, "p50", bench.exact_p50);
    append_field(payload, "p99", bench.exact_p99);
    append_field(payload, "hp50", bench.hist_p50);
    append_field(payload, "hp99", bench.hist_p99);
    append_field(payload, "sum", bench.checksum);
  }
  for (const StreamBench& bench : stream_benches) {
    payload += "stream:" + std::to_string(bench.streams) + ":" +
               std::to_string(bench.matvecs) + ";";
    append_field(payload, "sum", bench.checksum);
  }
  for (const DistBench& bench : dist_benches) {
    payload += "dist:" + std::to_string(bench.procs) + ":" + std::to_string(bench.k) + ":" +
               std::to_string(bench.batched_messages) + ":" +
               std::to_string(bench.single_messages) + ";";
    append_field(payload, "batched", bench.modeled_batched_s);
    append_field(payload, "single", bench.modeled_single_s);
    append_field(payload, "sum", bench.checksum);
  }
  const std::uint64_t payload_checksum = report::fnv1a(payload);
  std::printf("payload checksum %016llx\n",
              static_cast<unsigned long long>(payload_checksum));

  if (!serve_report_path.empty()) {
    serve::ServeReportV1 sreport;
    sreport.run = {{"workload", "\"" + g0.name + "\""},
                   {"smoke", smoke ? "true" : "false"},
                   {"quick", quick ? "true" : "false"},
                   {"exact", exact ? "true" : "false"},
                   {"requests", std::to_string(requests)},
                   {"seed", std::to_string(seed)},
                   {"mean_interarrival_s", report::number(traffic.mean_interarrival_s)},
                   {"stream_solves", std::to_string(stream_solves)}};
    sreport.histogram_shards = kHistShards;
    sreport.apply = std::move(apply_sections);
    sreport.has_stream = true;
    sreport.stream = stream_attr;
    sreport.telemetry = tstats;
    serve::write_serve_report_file(sreport, serve_report_path);
    std::printf("wrote %s\n", serve_report_path.c_str());
  }
  if (!serve_trace_path.empty()) {
    event_log.write_chrome_trace_file(serve_trace_path);
    std::printf("wrote %s (%zu lifecycle events)\n", serve_trace_path.c_str(),
                event_log.size());
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PTILU_CHECK(f != nullptr, "cannot open " << json_path << " for writing");
    std::fprintf(f, "{\n  \"schema\": \"ptilu-bench-serve-v1\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n  \"quick\": %s,\n", smoke ? "true" : "false",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"backend\": \"%s\",\n  \"threads\": %d,\n  \"exact\": %s,\n",
                 sim::backend_name(machine_opts.backend), machine_opts.threads,
                 exact ? "true" : "false");
    std::fprintf(f, "  \"workload\": \"%s\",\n  \"n\": %d,\n  \"nnz\": %lld,\n",
                 g0.name.c_str(), n, static_cast<long long>(g0.a.nnz()));
    std::fprintf(f, "  \"requests\": %d,\n  \"seed\": %llu,\n", requests,
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"mean_interarrival_s\": %.17g,\n", traffic.mean_interarrival_s);
    std::fprintf(f,
                 "  \"cache\": {\"capacity\": %zu, \"hits\": %llu, \"misses\": %llu, "
                 "\"evictions\": %llu},\n",
                 cache.capacity(), static_cast<unsigned long long>(cache_stats.hits),
                 static_cast<unsigned long long>(cache_stats.misses),
                 static_cast<unsigned long long>(cache_stats.evictions));
    std::fprintf(f,
                 "  \"telemetry\": {\"requests\": %llu, \"batches\": %llu, "
                 "\"straggler_elections\": %llu, \"histogram_merges\": %llu},\n",
                 static_cast<unsigned long long>(tstats.requests),
                 static_cast<unsigned long long>(tstats.batches),
                 static_cast<unsigned long long>(tstats.straggler_elections),
                 static_cast<unsigned long long>(tstats.histogram_merges));
    std::fprintf(f, "  \"apply_benches\": [\n");
    for (std::size_t i = 0; i < apply_benches.size(); ++i) {
      const ApplyBench& bench = apply_benches[i];
      std::fprintf(f,
                   "    {\"name\": \"apply_b%d\", \"batch_max\": %d, \"batches\": %zu,\n",
                   bench.batch_max, bench.batch_max, bench.batches);
      std::fprintf(f,
                   "     \"modeled_total_s\": %.17g, \"modeled_solves_per_s\": %.17g,\n"
                   "     \"modeled_p50_s\": %.17g, \"modeled_p99_s\": %.17g,\n"
                   "     \"hist_p50_s\": %.17g, \"hist_p99_s\": %.17g,\n",
                   bench.modeled.total_s,
                   static_cast<double>(requests) / bench.modeled.total_s,
                   bench.exact_p50, bench.exact_p99, bench.hist_p50, bench.hist_p99);
      if (bench.measured) {
        std::fprintf(f,
                     "     \"wall_total_s\": %.6f, \"wall_solves_per_s\": %.6f,\n"
                     "     \"wall_p50_s\": %.6f, \"wall_p99_s\": %.6f,\n",
                     bench.wall.total_s,
                     static_cast<double>(requests) / bench.wall.total_s,
                     bench.wall_p50, bench.wall_p99);
      }
      std::fprintf(f, "     \"checksum\": %.17g}%s\n", bench.checksum,
                   i + 1 < apply_benches.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"stream_benches\": [\n");
    for (std::size_t i = 0; i < stream_benches.size(); ++i) {
      const StreamBench& bench = stream_benches[i];
      std::fprintf(f, "    {\"streams\": %d, \"solves\": %d, \"matvecs\": %lld,\n",
                   bench.streams, bench.solves, bench.matvecs);
      if (bench.measured) {
        std::fprintf(f, "     \"wall_total_s\": %.6f, \"wall_solves_per_s\": %.6f,\n",
                     bench.wall_total_s,
                     static_cast<double>(bench.solves) / bench.wall_total_s);
      }
      std::fprintf(f, "     \"checksum\": %.17g}%s\n", bench.checksum,
                   i + 1 < stream_benches.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"dist_benches\": [\n");
    for (std::size_t i = 0; i < dist_benches.size(); ++i) {
      const DistBench& bench = dist_benches[i];
      std::fprintf(f, "    {\"procs\": %d, \"k\": %d,\n", bench.procs, bench.k);
      std::fprintf(f,
                   "     \"modeled_batched_s\": %.17g, \"modeled_single_s\": %.17g, "
                   "\"modeled_speedup\": %.17g,\n",
                   bench.modeled_batched_s, bench.modeled_single_s,
                   bench.modeled_single_s / bench.modeled_batched_s);
      std::fprintf(f, "     \"batched_messages\": %llu, \"single_messages\": %llu,\n",
                   static_cast<unsigned long long>(bench.batched_messages),
                   static_cast<unsigned long long>(bench.single_messages));
      std::fprintf(f, "     \"checksum\": %.17g}%s\n", bench.checksum,
                   i + 1 < dist_benches.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"payload_checksum\": \"%016llx\"\n}\n",
                 static_cast<unsigned long long>(payload_checksum));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
