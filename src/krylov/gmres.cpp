#include "ptilu/krylov/gmres.hpp"

#include "gmres_core.hpp"
#include "ptilu/sparse/spmv.hpp"
#include "ptilu/sparse/vector_ops.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

/// The serial vector space: host loops over whole vectors.
struct SerialSpace {
  const Csr& a;
  const Preconditioner& m;
  std::span<const real> b;
  std::span<real> x;
  RealVec scratch;

  void residual(RealVec& r) {
    ptilu::residual(a, x, b, scratch);
    m.apply(scratch, r);
  }
  void precond_matvec(const RealVec& v, RealVec& w) {
    spmv(a, v, scratch);
    m.apply(scratch, w);
  }
  static real dot(const RealVec& u, const RealVec& w) { return ptilu::dot(u, w); }
  static void axpy(real alpha, const RealVec& u, RealVec& w) { ptilu::axpy(alpha, u, w); }
  static void scale(real alpha, RealVec& w) { scal(alpha, w); }
  void update_x(const std::vector<RealVec>& v, const RealVec& y) const {
    for (std::size_t k = 0; k < y.size(); ++k) ptilu::axpy(y[k], v[k], x);
  }
  // Divides where the machine space scales by 1/beta; scaling here would
  // move seven rows of table3_gmres --quick (DESIGN.md §17).
  static void start_into(real beta, const RealVec& r, RealVec& v0) {
    for (std::size_t i = 0; i < r.size(); ++i) v0[i] = r[i] / beta;
  }
  static krylov_detail::NoScope orthog_scope() { return {}; }
};

}  // namespace

GmresResult gmres(const Csr& a, const Preconditioner& m, std::span<const real> b,
                  std::span<real> x, const GmresOptions& opts) {
  PTILU_CHECK(a.n_rows == a.n_cols, "GMRES needs a square matrix");
  PTILU_CHECK(b.size() == static_cast<std::size_t>(a.n_rows) && x.size() == b.size(),
              "GMRES vector size mismatch");
  SerialSpace space{a, m, b, x, RealVec(a.n_rows)};
  return krylov_detail::gmres_core(space, a.n_rows, opts);
}

}  // namespace ptilu
