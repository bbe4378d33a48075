// Reproduces Table 3: GMRES(20) and GMRES(50) solve time and number of
// matrix-vector products (NMV) on p=128, preconditioned by each of the 18
// parallel factorizations plus the diagonal baseline. b = A·e, x0 = 0,
// stop when the (preconditioned) residual norm drops by 1e-5.
//
// NMV is a pure algorithmic output (real GMRES runs on the real factors).
// Time is modeled: NMV x (modeled parallel SpMV + preconditioner
// application) plus a modeled estimate of the distributed vector
// operations (dots need an allreduce; axpys are local) — the same cost
// model as Tables 1/2.
//
// --residuals <file> writes the full convergence histories of the sweep as
// CSV (matrix, preconditioner, restart, iteration, residual — one row per
// inner GMRES iteration); with --report-dir, the run reports embed each
// configuration's initial/final residual under run.configurations.
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "ptilu/krylov/gmres.hpp"
#include "ptilu/krylov/gmres_dist.hpp"
#include "ptilu/pilut/trisolve_dist.hpp"
#include "ptilu/sim/machine.hpp"
#include "ptilu/support/report.hpp"
#include "ptilu/support/timer.hpp"

namespace ptilu::bench {
namespace {

/// Modeled cost of the per-iteration dense vector work of GMRES(restart):
/// on average (restart+1)/2 + 1 dots (each 2n/p flops + a log2(p) allreduce)
/// and as many axpys (2n/p flops, no communication).
double vector_op_cost(const sim::MachineParams& params, idx n, int p, int restart) {
  const double avg_ops = (restart + 1) / 2.0 + 1.0;
  const double flops_per_op = 2.0 * static_cast<double>(n) / p;
  const double dot_cost = flops_per_op * params.flop +
                          std::ceil(std::log2(std::max(2, p))) * params.alpha;
  const double axpy_cost = flops_per_op * params.flop;
  return avg_ops * (dot_cost + axpy_cost);
}

void run_matrix(const TestMatrix& matrix, int nranks,
                const std::vector<FactorConfig>& configs, idx star_k, real rtol,
                int max_matvecs, Observability& obs, std::ofstream* residuals_csv) {
  print_header("Table 3: GMRES solve time (modeled s) and matrix-vector count", matrix);
  const DistCsr dist = distribute(matrix.a, nranks);
  const Halo halo = Halo::build(dist);
  const RealVec b = workloads::rhs_all_ones_solution(matrix.a);
  const idx n = matrix.a.n_rows;

  // Modeled cost of one parallel SpMV on this matrix/partition.
  double spmv_cost = 0;
  {
    sim::Machine machine(nranks);
    RealVec y(n);
    dist_spmv(machine, dist, halo, b, y);
    spmv_cost = machine.modeled_time();
  }

  Table table({"Preconditioner", "GMRES(20) Time", "GMRES(20) NMV", "GMRES(50) Time",
               "GMRES(50) NMV"});

  const auto solve_with = [&](const Preconditioner& precond, double apply_cost,
                              int restart) {
    RealVec x(n, 0.0);
    GmresResult result =
        gmres(matrix.a, precond, b, x,
              {.restart = restart, .max_matvecs = max_matvecs, .rtol = rtol});
    const double per_iter = spmv_cost + apply_cost +
                            vector_op_cost(sim::MachineParams::cray_t3d(), n, nranks,
                                           restart);
    struct Outcome {
      double time;
      GmresResult gmres;
    };
    return Outcome{result.matvecs * per_iter, std::move(result)};
  };

  // Per-configuration convergence record: CSV rows (one per inner
  // iteration) and a JSON entry for the run report's "configurations".
  std::string configs_json = "[";
  bool first_config = true;
  const auto record = [&](const std::string& label, int restart,
                          const GmresResult& g) {
    if (residuals_csv != nullptr) {
      for (std::size_t it = 0; it < g.residual_history.size(); ++it) {
        *residuals_csv << matrix.name << ",\"" << label << "\"," << restart << ','
                       << it + 1 << ',' << report::number(g.residual_history[it])
                       << '\n';
      }
    }
    if (!first_config) configs_json += ", ";
    first_config = false;
    configs_json += "{\"preconditioner\": \"" + label +
                    "\", \"restart\": " + std::to_string(restart) +
                    ", \"nmv\": " + std::to_string(g.matvecs) +
                    ", \"converged\": " + (g.converged ? "true" : "false") +
                    ", \"initial_residual\": " + report::number(g.initial_residual) +
                    ", \"final_residual\": " + report::number(g.final_residual) + "}";
  };

  for (const idx cap_k : {idx{0}, star_k}) {
    for (const auto& config : configs) {
      sim::Machine machine(nranks);
      const PilutResult result = pilut_factor(
          machine, dist,
          {.m = config.m, .tau = config.tau, .cap_k = cap_k, .pivot_rel = 1e-12});
      const DistTriangularSolver solver(result.factors, result.schedule);
      machine.reset();
      RealVec x(n);
      solver.apply(machine, b, x);
      const double apply_cost = machine.modeled_time();

      const IluPreconditioner precond(result.factors, result.schedule.newnum);
      const std::string label = config_label(config, cap_k);
      const auto g20 = solve_with(precond, apply_cost, 20);
      const auto g50 = solve_with(precond, apply_cost, 50);
      record(label, 20, g20.gmres);
      record(label, 50, g50.gmres);
      table.row()
          .cell(label)
          .cell(g20.gmres.converged ? format_fixed(g20.time, 3) : "no conv")
          .cell(static_cast<long long>(g20.gmres.matvecs))
          .cell(g50.gmres.converged ? format_fixed(g50.time, 3) : "no conv")
          .cell(static_cast<long long>(g50.gmres.matvecs));
    }
  }
  {
    // Diagonal baseline: apply cost is n/p flops, no communication.
    const JacobiPreconditioner precond(matrix.a);
    const double apply_cost = static_cast<double>(n) / nranks *
                              sim::MachineParams::cray_t3d().flop;
    const auto g20 = solve_with(precond, apply_cost, 20);
    const auto g50 = solve_with(precond, apply_cost, 50);
    record("Diagonal", 20, g20.gmres);
    record("Diagonal", 50, g50.gmres);
    table.row()
        .cell("Diagonal")
        .cell(g20.gmres.converged ? format_fixed(g20.time, 3) : "no conv")
        .cell(static_cast<long long>(g20.gmres.matvecs))
        .cell(g50.gmres.converged ? format_fixed(g50.time, 3) : "no conv")
        .cell(static_cast<long long>(g50.gmres.matvecs));
  }
  table.print(std::cout);
  configs_json += "]";

  // Optional observed rerun: the fully distributed GMRES(20) (gmres_dist
  // executes every vector operation on the machine, unlike the analytic
  // vector_op_cost model above), instrumented end to end. The factorization
  // runs on a scratch machine so the breakdown covers only the solve.
  if (obs.enabled()) {
    const FactorConfig config = configs[configs.size() / 2];
    sim::Machine factor_machine(nranks);
    const PilutResult result = pilut_factor(
        factor_machine, dist,
        {.m = config.m, .tau = config.tau, .cap_k = 0, .pivot_rel = 1e-12});
    RealVec x(n, 0.0);
    sim::Machine machine(nranks, obs.machine_options());
    obs.attach(machine);  // gmres_dist resets the machine at entry
    gmres_dist(machine, dist, halo, result, b, x,
               {.restart = 20, .max_matvecs = max_matvecs, .rtol = rtol});
    obs.report(machine,
               matrix.name + " gmres20 " + config_label(config, 0) + " p=" +
                   std::to_string(nranks),
               {{"harness", "\"table3\""},
                {"matrix", "\"" + matrix.name + "\""},
                {"procs", std::to_string(nranks)},
                {"configurations", configs_json}});
  }
}

}  // namespace
}  // namespace ptilu::bench

int main(int argc, char** argv) {
  using namespace ptilu;
  using namespace ptilu::bench;
  const Cli cli(argc, argv);
  const Scale scale = scale_from_cli(cli);
  const int nranks = static_cast<int>(cli.get_int("procs", 128));
  const idx star_k = static_cast<idx>(cli.get_int("k", 2));
  const real rtol = cli.get_double("rtol", 1e-5);
  const int max_matvecs = static_cast<int>(cli.get_int("max-matvecs", 20000));
  const bool skip_torso = cli.get_bool("skip-torso", false);
  const bool skip_g0 = cli.get_bool("skip-g0", false);
  const std::string residuals_path = cli.get_string("residuals", "");
  Observability obs(cli, "table3");
  cli.check_all_consumed();

  std::ofstream residuals_csv;
  if (!residuals_path.empty()) {
    residuals_csv.open(residuals_path);
    PTILU_CHECK(residuals_csv.good(), "cannot open " << residuals_path << " for writing");
    residuals_csv << "matrix,preconditioner,restart,iteration,residual\n";
  }
  std::ofstream* const csv = residuals_path.empty() ? nullptr : &residuals_csv;

  const auto configs = paper_configs();
  WallTimer timer;
  if (!skip_g0) {
    run_matrix(build_g0(scale), nranks, configs, star_k, rtol, max_matvecs, obs, csv);
  }
  if (!skip_torso) {
    run_matrix(build_torso(scale), nranks, configs, star_k, rtol, max_matvecs, obs, csv);
  }
  if (csv != nullptr) {
    csv->flush();
    PTILU_CHECK(csv->good(), "failed writing " << residuals_path);
    std::cout << "residual histories: " << residuals_path << "\n";
  }
  std::cout << "\n[table3 harness wall time: " << format_fixed(timer.seconds(), 1)
            << "s]\n";
  return 0;
}
