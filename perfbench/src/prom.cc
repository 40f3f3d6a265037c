#include "prom.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace perfbench {

Scrape::Scrape(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values never contain the
    // closing brace, so the series text ends at the last '}' or space.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string value = line.substr(space + 1);
    double parsed = 0;
    if (value == "+Inf") {
      parsed = std::numeric_limits<double>::infinity();
    } else {
      parsed = std::strtod(value.c_str(), nullptr);
    }
    samples_[line.substr(0, space)] = parsed;
  }
}

double Scrape::Get(const std::string& series) const {
  const auto it = samples_.find(series);
  return it == samples_.end() ? 0.0 : it->second;
}

std::string Scrape::LabelOf(const std::string& family,
                            const std::string& label) const {
  const std::string prefix = family + "{";
  const std::string key = label + "=\"";
  for (auto it = samples_.lower_bound(prefix);
       it != samples_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::size_t at = it->first.find(key);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + key.size();
    const std::size_t end = it->first.find('"', begin);
    return it->first.substr(begin, end - begin);
  }
  return {};
}

std::vector<std::pair<double, double>> Scrape::Buckets(
    const std::string& family, const std::string& labels) const {
  const std::string prefix =
      family + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  std::vector<std::pair<double, double>> out;
  for (auto it = samples_.lower_bound(prefix);
       it != samples_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string edge =
        it->first.substr(prefix.size(), it->first.size() - prefix.size() - 2);
    const double upper = edge == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(edge.c_str(), nullptr);
    out.emplace_back(upper, it->second);
  }
  // Map order is lexicographic ("1000" < "250"); histograms need edges.
  std::sort(out.begin(), out.end());
  return out;
}

double HistogramDelta::Quantile(double q) const {
  if (count <= 0 || buckets.empty()) return 0.0;
  const double rank = q * count;
  double lower_edge = 0.0;
  double lower_count = 0.0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(upper)) return lower_edge;
      const double in_bucket = cumulative - lower_count;
      if (in_bucket <= 0) return upper;
      return lower_edge + (upper - lower_edge) * (rank - lower_count) /
                              in_bucket;
    }
    lower_edge = upper;
    lower_count = cumulative;
  }
  return lower_edge;
}

HistogramDelta DeltaOf(const Scrape& before, const Scrape& after,
                       const std::string& family, const std::string& labels) {
  HistogramDelta delta;
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  delta.count = CounterDelta(before, after, family + "_count" + suffix);
  delta.sum = CounterDelta(before, after, family + "_sum" + suffix);
  const auto old_buckets = before.Buckets(family, labels);
  for (const auto& [upper, cumulative] : after.Buckets(family, labels)) {
    double previous = 0;
    for (const auto& [old_upper, old_cumulative] : old_buckets) {
      if (old_upper == upper) previous = old_cumulative;
    }
    delta.buckets.emplace_back(upper, cumulative - previous);
  }
  return delta;
}

double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& series) {
  return after.Get(series) - before.Get(series);
}

}  // namespace perfbench
