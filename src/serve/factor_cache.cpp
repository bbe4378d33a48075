#include "ptilu/serve/factor_cache.hpp"

#include <cstdlib>
#include <span>

#include "ptilu/sim/metrics.hpp"
#include "ptilu/support/check.hpp"
#include "ptilu/support/report.hpp"

namespace ptilu::serve {

std::uint64_t matrix_fingerprint(const Csr& a) {
  using report::fnv1a;
  std::uint64_t hash = fnv1a(std::as_bytes(std::span(&a.n_rows, 1)));
  hash = fnv1a(std::as_bytes(std::span(&a.n_cols, 1)), hash);
  hash = fnv1a(std::as_bytes(std::span(a.row_ptr)), hash);
  hash = fnv1a(std::as_bytes(std::span(a.col_idx)), hash);
  // Values hash by bit pattern: 0.0 vs -0.0 are distinct operators to the
  // fingerprint, which errs toward refactoring — never toward reusing a
  // factor for a numerically different matrix.
  return fnv1a(std::as_bytes(std::span(a.values)), hash);
}

const char* factor_variant_name(FactorVariant variant) {
  switch (variant) {
    case FactorVariant::kScalar: return "scalar";
    case FactorVariant::kBlocked: return "blocked";
  }
  return "?";
}

std::size_t FactorCache::capacity_from_env() {
  const char* value = std::getenv("PTILU_SERVE_CACHE_CAP");
  if (value == nullptr || *value == '\0') return 8;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  PTILU_CHECK(end != value && *end == '\0' && parsed > 0,
              "PTILU_SERVE_CACHE_CAP must be a positive integer, got '" << value << "'");
  return static_cast<std::size_t>(parsed);
}

FactorCache::FactorCache(std::size_t capacity) : capacity_(capacity) {
  PTILU_CHECK(capacity_ >= 1, "FactorCache capacity must be >= 1");
}

void FactorCache::attach_metrics(sim::Metrics* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  hit_id_ = metrics_->counter_id("serve/cache/hits");
  miss_id_ = metrics_->counter_id("serve/cache/misses");
  evict_id_ = metrics_->counter_id("serve/cache/evictions");
  // Replay pre-attachment history so stats() and the registry agree from
  // the first moment both are observable. Top up only — the registry may
  // already carry counts (e.g. this cache re-attaching after a detach).
  const auto top_up = [this](std::uint32_t id, const char* name, std::uint64_t want) {
    const std::uint64_t have = metrics_->counter_value(name, 0);
    if (want > have) metrics_->add_counter(id, 0, want - have);
  };
  top_up(hit_id_, "serve/cache/hits", stats_.hits);
  top_up(miss_id_, "serve/cache/misses", stats_.misses);
  top_up(evict_id_, "serve/cache/evictions", stats_.evictions);
}

void FactorCache::bump(std::uint64_t CacheStats::* slot, std::uint32_t counter) {
  ++(stats_.*slot);
  if (metrics_ != nullptr) metrics_->add_counter(counter, 0, 1);
}

std::shared_ptr<const Preconditioner> FactorCache::lookup_or_insert(
    const FactorKey& key,
    const std::function<std::shared_ptr<const Preconditioner>()>& build) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      bump(&CacheStats::hits, hit_id_);
      entries_.splice(entries_.begin(), entries_, it);  // refresh to MRU
      return entries_.front().factor;
    }
  }
  bump(&CacheStats::misses, miss_id_);
  std::shared_ptr<const Preconditioner> factor = build();
  entries_.push_front(Entry{key, factor});
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    bump(&CacheStats::evictions, evict_id_);
  }
  return factor;
}

std::shared_ptr<const Preconditioner> FactorCache::get(const Csr& a,
                                                       const IlutOptions& opts) {
  FactorKey key;
  key.matrix = matrix_fingerprint(a);
  key.variant = FactorVariant::kScalar;
  key.m = opts.m;
  key.tau = opts.tau;
  key.pivot_rel = opts.pivot_rel;
  return lookup_or_insert(key, [&]() -> std::shared_ptr<const Preconditioner> {
    return std::make_shared<IluPreconditioner>(ilut(a, opts));
  });
}

std::shared_ptr<const Preconditioner> FactorCache::get_blocked(
    const Csr& a, const BlockedIlutOptions& opts) {
  FactorKey key;
  key.matrix = matrix_fingerprint(a);
  key.variant = FactorVariant::kBlocked;
  key.m = opts.base.m;
  key.tau = opts.base.tau;
  key.pivot_rel = opts.base.pivot_rel;
  key.max_panel = opts.panels.max_panel;
  key.slack = opts.panels.slack;
  return lookup_or_insert(key, [&]() -> std::shared_ptr<const Preconditioner> {
    return std::make_shared<BlockedIluPreconditioner>(ilut_blocked(a, opts));
  });
}

bool FactorCache::contains(const FactorKey& key) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) return true;
  }
  return false;
}

}  // namespace ptilu::serve
