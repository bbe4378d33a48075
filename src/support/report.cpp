#include "ptilu/support/report.hpp"

#include <cstdio>

namespace ptilu::report {

void append_number(std::string& out, double v, int precision) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  out += buf;
}

std::string number(double v, int precision) {
  std::string out;
  append_number(out, v, precision);
  return out;
}

void append_hex16(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
        break;
    }
  }
}

void append_real_array(std::string& out, const std::vector<double>& values,
                       std::string_view sep) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += sep;
    append_number(out, values[i]);
  }
  out += ']';
}

}  // namespace ptilu::report
