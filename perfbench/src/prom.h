// Reading the daemon's telemetry from outside: parses the Prometheus text
// exposition that Client::Metrics returns, and turns the difference of two
// scrapes into per-phase counts, means and bucket-interpolated quantiles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One scrape: every sample keyed by its series text exactly as exposed,
/// e.g. `grafics_batcher_queue_wait_us_bucket{model="m",le="250"}`.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(const std::string& text);

  /// Sample value; 0 when the series is absent.
  double Get(const std::string& series) const;

  /// Label value of the first series of `family` carrying `label`, e.g.
  /// the backend of the grafics_simd_backend info gauge. Empty if none.
  std::string LabelOf(const std::string& family,
                      const std::string& label) const;

  /// Cumulative buckets (upper edge, count) of histogram `family` whose
  /// label set starts with `labels` (e.g. `model="m"`, or empty for an
  /// unlabeled family), +Inf last.
  std::vector<std::pair<double, double>> Buckets(
      const std::string& family, const std::string& labels) const;

 private:
  std::map<std::string, double> samples_;
};

/// Change of one histogram between two scrapes.
struct HistogramDelta {
  double count = 0;
  double sum = 0;
  /// Cumulative (upper edge, count) pairs of the delta, +Inf last.
  std::vector<std::pair<double, double>> buckets;

  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Prometheus histogram_quantile: linear interpolation inside the bucket
  /// holding rank q*count (the lower edge of the first bucket is 0; a rank
  /// in the +Inf bucket reports the last finite edge). 0 when empty.
  double Quantile(double q) const;
};

HistogramDelta DeltaOf(const Scrape& before, const Scrape& after,
                       const std::string& family, const std::string& labels);

/// after - before for a counter/gauge series.
double CounterDelta(const Scrape& before, const Scrape& after,
                    const std::string& series);

}  // namespace perfbench
