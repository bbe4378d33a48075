// The report core: the value writers behind every JSON document the repo
// emits (run reports, Chrome traces, serve reports and traces), FNV-1a 64,
// and the straggler rule the attribution rollups share (DESIGN.md §20).
//
// Every writer is deterministic — printf's "C" formatting, no locale, no
// map iteration — so documents stay byte-identical across backends.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ptilu::report {

/// Append v in "%.<precision>g" form. The default 17 significant digits
/// round-trip IEEE-754 binary64 exactly, which is what lets the validators
/// re-derive the documents' identities bit-for-bit.
void append_number(std::string& out, double v, int precision = 17);

/// append_number into a fresh string (raw JSON values handed to writers).
std::string number(double v, int precision = 17);

/// Append v as 16 lowercase hex digits ("%016llx"): checksums, fingerprints.
void append_hex16(std::string& out, std::uint64_t v);

/// Append s as the body of a JSON string: quotes, backslashes, newlines and
/// tabs are escaped; other control characters are dropped.
void append_escaped(std::string& out, std::string_view s);

/// Append "[v0<sep>v1...]" with append_number values.
void append_real_array(std::string& out, const std::vector<double>& values,
                       std::string_view sep);

/// Append "[v0<sep>v1...]" with std::to_string values.
template <typename Int>
void append_int_array(std::string& out, const std::vector<Int>& values,
                      std::string_view sep) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += sep;
    out += std::to_string(values[i]);
  }
  out += ']';
}

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64 over `bytes`, continuing from `hash`: chain calls to hash
/// several buffers as one stream. A plain byte loop — FactorCache runs it
/// over a whole CSR matrix on every lookup.
inline std::uint64_t fnv1a(std::span<const std::byte> bytes,
                           std::uint64_t hash = kFnvOffsetBasis) {
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= kFnvPrime;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffsetBasis) {
  return fnv1a(std::as_bytes(std::span(text.data(), text.size())), hash);
}

/// The straggler election: the index of the first maximum, so ties go to
/// the lowest index (0 for an empty span). Every barrier, batch and stream
/// round elects with this rule, as the simulator's barrier places its
/// horizon at the first maximal rank clock.
inline std::size_t first_argmax(std::span<const double> values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

/// Load imbalance of per-lane busy time: max busy over mean busy, folded
/// in lane order (1 = balanced), and 0 when the mean is 0 — no lane did
/// any work.
inline double busy_imbalance(std::span<const double> busy) {
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const double b : busy) {
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  const double mean = busy.empty() ? 0.0 : sum_busy / static_cast<double>(busy.size());
  return mean > 0.0 ? max_busy / mean : 0.0;
}

}  // namespace ptilu::report
