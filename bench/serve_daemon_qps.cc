// End-to-end QPS of the network serving daemon.
//
// Trains one GRAFICS model per --model name (campus-preset buildings with
// per-model seeds), loads them all into one serve::ModelRegistry behind an
// in-process serve::Server on an ephemeral loopback port, and hammers each
// named model with concurrent blocking clients. Before reporting anything
// the harness verifies every networked prediction bit-matches that model's
// in-process PredictBatch reference — the wire path must not change a
// single answer, and routing must never cross models. Reports QPS per
// (model, connection count) plus dispatch stats (pool tasks, records per
// task) and one batched-frame (PredictBatch) round-trip measurement per
// model, and writes a BENCH_serve_daemon_qps_<model>.json sidecar per model
// for the CI perf-trajectory artifact.
//
// Per-request latency is tracked per connection count and reported as
// p50/p99 alongside QPS. With --report NAME the harness additionally writes
// one combined BENCH_<NAME>.json (first model's QPS + percentiles per
// connection count) — CI uses `--connections 1,64,512 --report
// epoll_transport` to archive the epoll transport's latency trajectory.
//
// Run:  ./build/bench/serve_daemon_qps
//       ./build/bench/serve_daemon_qps --records-per-floor 200 --queries 80 \
//           --connections 1,4 --model campus --model annex
//       ./build/bench/serve_daemon_qps --connections 1,64,512 \
//           --report epoll_transport
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli_flags.h"
#include "core/grafics.h"
#include "rf/dataset.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "synth/presets.h"

namespace {

using namespace grafics;
using Clock = std::chrono::steady_clock;

struct Args {
  int records_per_floor = 400;
  std::size_t queries = 200;
  std::vector<std::size_t> connections = {1, 2, 4};
  std::vector<std::string> models = {"campus"};
  std::string report;  // combined BENCH_<report>.json, empty = none
};

Args ParseArgs(int argc, char** argv) {
  const std::vector<std::string> raw(argv + 1, argv + argc);
  Args args;
  args.records_per_floor = static_cast<int>(ParseUnsigned(
      FlagValue(raw, "--records-per-floor", "400"), 100000,
      "--records-per-floor"));
  args.queries = ParseUnsigned(FlagValue(raw, "--queries", "200"), 1000000,
                               "--queries");
  const std::string list = FlagValue(raw, "--connections", "1,2,4");
  args.connections.clear();
  for (std::size_t begin = 0; begin < list.size();) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    args.connections.push_back(static_cast<std::size_t>(ParseUnsigned(
        list.substr(begin, end - begin), 1024, "--connections")));
    begin = end + 1;
  }
  const std::vector<std::string> models = FlagValues(raw, "--model");
  if (!models.empty()) args.models = models;
  args.report = FlagValue(raw, "--report", "");
  for (std::size_t i = 0; i < args.models.size(); ++i) {
    for (std::size_t j = i + 1; j < args.models.size(); ++j) {
      Require(args.models[i] != args.models[j],
              "--model names must be unique, got '" + args.models[i] +
                  "' twice");
    }
  }
  return args;
}

/// One named model: its own campus-preset building (per-model seed), its
/// queries, and the in-process reference every networked answer must match.
struct BenchModel {
  std::string name;
  std::vector<rf::SignalRecord> queries;
  std::vector<std::optional<rf::FloorId>> reference;
  double train_seconds = 0;
};

BenchModel TrainModel(const std::string& name, std::uint64_t seed,
                      const Args& args, serve::ModelRegistry& registry) {
  BenchModel bench;
  bench.name = name;
  auto building = synth::CampusBuildingConfig(seed, args.records_per_floor);
  auto sim = building.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(5);
  auto [train, test] = dataset.TrainTestSplit(0.7, rng);
  train.KeepLabelsPerFloor(6, rng);
  const std::size_t num_queries =
      std::min<std::size_t>(test.size(), args.queries);
  bench.queries.assign(test.records().begin(),
                       test.records().begin() + num_queries);

  core::GraficsConfig model_config;
  model_config.trainer.samples_per_edge = 60;
  core::Grafics system(model_config);
  const auto train_start = Clock::now();
  system.Train(train.records());
  bench.train_seconds =
      std::chrono::duration<double>(Clock::now() - train_start).count();
  bench.reference = system.PredictBatch(bench.queries, {.num_threads = 1});
  registry.Load(name,
                std::make_shared<const core::Grafics>(std::move(system)));
  std::printf("   model %-12s %zu train records, %zu queries, trained in "
              "%.2fs\n",
              name.c_str(), train.size(), bench.queries.size(),
              bench.train_seconds);
  return bench;
}

/// Percentile over an unsorted sample (sorts in place); 0 when empty.
double PercentileMs(std::vector<double>& sample, double fraction) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t index = std::min(
      sample.size() - 1,
      static_cast<std::size_t>(fraction *
                               static_cast<double>(sample.size())));
  return sample[index];
}

/// One model's cumulative (requests, batches) from the registry stats.
std::pair<std::uint64_t, std::uint64_t> ModelCounters(
    const serve::ModelRegistry& registry, const std::string& name) {
  for (const serve::ModelStats& stats : registry.Stats()) {
    if (stats.name == name) return {stats.requests, stats.batches};
  }
  return {0, 0};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_daemon_qps: %s\n", e.what());
    return 1;
  }

  std::printf("== serve_daemon_qps: TCP daemon, %zu named model(s) ==\n",
              args.models.size());
  std::printf("   campus preset per model, predicts on one shared pool of "
              "all cores\n");

  auto registry = std::make_shared<serve::ModelRegistry>(/*threads=*/0);

  std::vector<BenchModel> models;
  models.reserve(args.models.size());
  for (std::size_t m = 0; m < args.models.size(); ++m) {
    models.push_back(
        TrainModel(args.models[m], /*seed=*/29 + m * 101, args, *registry));
  }
  std::printf("\n");

  serve::ServerConfig server_config;
  server_config.port = 0;  // ephemeral
  serve::Server server(registry, server_config);
  server.Start();

  bool all_match = true;
  // Written only after the correctness gate below: no perf sidecars from a
  // run whose answers were wrong.
  std::vector<bench::BenchReport> reports;
  reports.reserve(models.size());
  bench::BenchReport combined(args.report.empty() ? "unused" : args.report);
  std::printf("%12s %12s %12s %12s %10s %12s %9s %9s\n", "model",
              "connections", "seconds", "queries/s", "batches", "mean batch",
              "p50 ms", "p99 ms");
  for (const BenchModel& model : models) {
    bench::BenchReport report("serve_daemon_qps_" + model.name);
    report.Add("train_seconds", model.train_seconds);
    report.Add("queries", static_cast<double>(model.queries.size()));

    auto [seen_requests, seen_batches] = ModelCounters(*registry, model.name);
    for (const std::size_t connections : args.connections) {
      std::vector<std::vector<std::optional<rf::FloorId>>> results(
          connections,
          std::vector<std::optional<rf::FloorId>>(model.queries.size()));
      // char, not bool: each connection thread writes its own slot.
      std::vector<char> failed(connections, 0);
      std::vector<std::vector<double>> latencies(connections);
      const auto start = Clock::now();
      std::vector<std::thread> workers;
      workers.reserve(connections);
      for (std::size_t c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
          try {
            serve::Client client("127.0.0.1", server.port());
            // Strided split: connection c serves queries c, c+C, c+2C, ...
            for (std::size_t i = c; i < model.queries.size();
                 i += connections) {
              const auto sent = Clock::now();
              results[c][i] = client.Predict(model.queries[i], model.name);
              latencies[c].push_back(
                  std::chrono::duration<double, std::milli>(Clock::now() -
                                                            sent)
                      .count());
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "connection %zu failed: %s\n", c, e.what());
            failed[c] = 1;
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      std::vector<double> all_latencies;
      for (const std::vector<double>& per_conn : latencies) {
        all_latencies.insert(all_latencies.end(), per_conn.begin(),
                             per_conn.end());
      }
      const double p50 = PercentileMs(all_latencies, 0.50);
      const double p99 = PercentileMs(all_latencies, 0.99);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      for (std::size_t c = 0; c < connections; ++c) {
        if (failed[c] != 0) all_match = false;
        for (std::size_t i = c; i < model.queries.size(); i += connections) {
          if (results[c][i] != model.reference[i]) all_match = false;
        }
      }
      const auto [total_requests, total_batches] =
          ModelCounters(*registry, model.name);
      const std::uint64_t requests = total_requests - seen_requests;
      const std::uint64_t batches = total_batches - seen_batches;
      seen_requests = total_requests;
      seen_batches = total_batches;
      const double qps =
          static_cast<double>(model.queries.size()) / seconds;
      const double mean_batch =
          batches == 0 ? 0.0
                       : static_cast<double>(requests) /
                             static_cast<double>(batches);
      std::printf("%12s %12zu %12.3f %12.1f %10llu %12.2f %9.3f %9.3f\n",
                  model.name.c_str(), connections, seconds, qps,
                  static_cast<unsigned long long>(batches), mean_batch, p50,
                  p99);
      const std::string suffix = "_c" + std::to_string(connections);
      report.Add("qps" + suffix, qps);
      report.Add("mean_batch" + suffix, mean_batch);
      report.Add("p50_ms" + suffix, p50);
      report.Add("p99_ms" + suffix, p99);
      // The combined report is meant for single-model runs (CI's epoll
      // transport trajectory); with several models the first one wins.
      if (&model == &models.front()) {
        combined.Add("qps" + suffix, qps);
        combined.Add("p50_ms" + suffix, p50);
        combined.Add("p99_ms" + suffix, p99);
      }
    }

    // Protocol v2 batched predict: the whole query set in kMaxBatchRecords
    // frames over one connection — one RTT per frame instead of per scan.
    try {
      serve::Client client("127.0.0.1", server.port());
      const auto start = Clock::now();
      const auto batched = client.PredictBatch(model.queries, model.name);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      for (std::size_t i = 0; i < batched.size(); ++i) {
        if (batched[i] != model.reference[i]) all_match = false;
      }
      const double qps =
          static_cast<double>(model.queries.size()) / seconds;
      std::printf("%12s %12s %12.3f %12.1f %10s %12s %9s %9s\n",
                  model.name.c_str(), "batched", seconds, qps, "-", "-", "-",
                  "-");
      report.Add("qps_batched", qps);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batched predict failed: %s\n", e.what());
      all_match = false;
    }
    reports.push_back(std::move(report));
  }
  server.Stop();
  registry->Stop();

  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: networked predictions differ from in-process "
                 "PredictBatch\n");
    return 1;
  }
  std::printf("\nall networked predictions bit-matched their model's "
              "in-process reference\n");
  for (const bench::BenchReport& report : reports) report.WriteJson();
  if (!args.report.empty()) combined.WriteJson();
  return 0;
}
