// Small helpers shared by the benchmark's translation units: a monotonic
// clock in seconds, order statistics, and the metric table every phase
// writes into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary process-wide origin.
inline double Now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Linear-interpolated quantile (the "R-7" rule numpy and Python's
/// statistics.quantiles(method="inclusive") use). 0 for an empty sample.
inline double Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] +
         (sample[hi] - sample[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& sample) {
  return Quantile(sample, 0.5);
}

inline double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run, printed in name order.
using MetricTable = std::map<std::string, Metric>;

/// JSON number with every digit a double carries; non-finite values (never
/// expected) are written as null so the output stays parseable.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double value : values) {
    out += (out.size() > 1 ? ", " : "") + JsonNumber(value);
  }
  return out + "]";
}

inline std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
