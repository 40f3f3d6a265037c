// grafics — command-line interface to the GRAFICS floor-identification
// system, operating on the CSV dataset format of rf::Dataset
// (one record per row: floor-or-empty, then alternating mac,rss pairs).
//
//   grafics train   <dataset.csv> <model.bin> [--labels-per-floor N]
//   grafics predict <model.bin> <scans.csv> [--threads N]
//   grafics remote-predict <host:port> <scans.csv> [--model NAME] [--batch N]
//   grafics remote-submit  <host:port> <records.csv> [--model NAME]
//                          [--batch N]
//   grafics remote-ping    <host:port> [--model NAME]
//   grafics remote-reload  <host:port> [--model NAME] [--generation N]
//   grafics remote-checkpoint <host:port> [--model NAME]
//   grafics remote-compact    <host:port> [--model NAME]
//   grafics remote-artifacts  <host:port> [--model NAME]
//   grafics remote-models  <host:port>
//   grafics remote-stats   <host:port> [--model NAME] [--watch N]
//   grafics remote-metrics <host:port>
//   grafics remote-ingest-stats <host:port> [--model NAME]
//   grafics eval    <dataset.csv> [--labels-per-floor N] [--train-ratio R]
//   grafics synth   <out.csv> [--preset campus|mall|hk-tower] [--seed S]
//   grafics stats   <dataset.csv>
//
// remote-predict queries a running grafics_served daemon — batching records
// into one protocol frame per --batch records — and prints the exact
// same `index,floor` lines as the in-process predict command, so the two
// outputs diff clean on the same model (the CI daemon smoke test relies on
// that, per named model). remote-submit feeds crowdsourced records into the
// daemon's online ingestion pipeline (journaled, folded in the background;
// watch progress with remote-ingest-stats until `pending` reaches 0).
// remote-ping reports the daemon's protocol version; remote-models and
// remote-stats are the admin surface of the daemon's multi-building model
// registry. remote-checkpoint, remote-compact and remote-artifacts drive the
// daemon's persistence store (--store-dir): write a base/delta
// checkpoint, fold the journal into one, and inspect the artifact chain;
// remote-reload --generation N rolls the served model back to a pinned
// store generation. remote-stats --watch N re-queries and re-prints every
// N seconds (snapshots separated by a blank line) until interrupted;
// remote-metrics dumps the daemon's full Prometheus text exposition —
// the same bytes GET /metrics on its --admin-port serves — for hosts the
// scraper cannot reach.
//
// Exit status: 0 on success, 1 on usage error, 2 on runtime failure.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli_flags.h"
#include "common/error.h"
#include "core/experiment.h"
#include "core/grafics.h"
#include "rf/dataset_stats.h"
#include "serve/client.h"
#include "synth/presets.h"

namespace {

using namespace grafics;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  grafics train   <dataset.csv> <model.bin> "
               "[--labels-per-floor N]\n"
               "  grafics predict <model.bin> <scans.csv> [--threads N]\n"
               "  grafics remote-predict <host:port> <scans.csv> "
               "[--model NAME] [--batch N]\n"
               "  grafics remote-submit  <host:port> <records.csv> "
               "[--model NAME] [--batch N]\n"
               "  grafics remote-ping    <host:port> [--model NAME]\n"
               "  grafics remote-reload  <host:port> [--model NAME] "
               "[--generation N]\n"
               "  grafics remote-checkpoint <host:port> [--model NAME]\n"
               "  grafics remote-compact    <host:port> [--model NAME]\n"
               "  grafics remote-artifacts  <host:port> [--model NAME]\n"
               "  grafics remote-models  <host:port>\n"
               "  grafics remote-stats   <host:port> [--model NAME] "
               "[--watch N]\n"
               "  grafics remote-metrics <host:port>\n"
               "  grafics remote-ingest-stats <host:port> [--model NAME]\n"
               "  grafics eval    <dataset.csv> [--labels-per-floor N] "
               "[--train-ratio R] [--seed S]\n"
               "  grafics synth   <out.csv> [--preset campus|mall|hk-tower] "
               "[--seed S]\n"
               "  grafics stats   <dataset.csv>\n");
  return 1;
}

int CmdTrain(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  rf::Dataset dataset = rf::Dataset::LoadCsv(args[0], "cli");
  const auto labels_per_floor =
      static_cast<std::size_t>(std::stoul(FlagValue(args, "--labels-per-floor",
                                                    "0")));
  if (labels_per_floor > 0) {
    Rng rng(1);
    dataset.KeepLabelsPerFloor(labels_per_floor, rng);
  }
  std::printf("training on %zu records (%zu labeled, %zu MACs)...\n",
              dataset.size(), dataset.LabeledCount(),
              dataset.DistinctMacCount());
  core::Grafics system;
  system.Train(dataset.records());
  system.SaveModel(args[1]);
  std::printf("model written to %s (%zu clusters)\n", args[1].c_str(),
              system.clustering().num_clusters());
  return 0;
}

int CmdPredict(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const core::Grafics system = core::Grafics::LoadModel(args[0]);
  const rf::Dataset scans = rf::Dataset::LoadCsv(args[1], "scans");
  // Snapshot-isolated batch serving: 0 maps to hardware concurrency; the
  // output is bit-identical for every thread count.
  core::BatchPredictOptions options;
  options.num_threads = static_cast<std::size_t>(
      std::stoul(FlagValue(args, "--threads", "1")));
  const auto predictions = system.PredictBatch(scans.records(), options);
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i]) {
      std::printf("%zu,%d\n", i, *predictions[i]);
    } else {
      std::printf("%zu,discarded\n", i);
    }
  }
  return 0;
}

/// Splits "host:port" on the last colon. Throws grafics::Error when either
/// half is missing or the port is not a number in [1, 65535].
std::pair<std::string, std::uint16_t> ParseHostPort(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  Require(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
          "expected host:port, got '" + text + "'");
  const std::uint64_t port =
      ParseUnsigned(text.substr(colon + 1), 65535, "port in '" + text + "'");
  Require(port >= 1, "port out of range in '" + text + "'");
  return {text.substr(0, colon), static_cast<std::uint16_t>(port)};
}

int CmdRemotePredict(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  const std::string model = FlagValue(args, "--model", "");
  const std::size_t batch = static_cast<std::size_t>(ParseUnsigned(
      FlagValue(args, "--batch", "256"), serve::kMaxBatchRecords, "--batch"));
  Require(batch >= 1, "--batch must be at least 1");
  serve::Client client(host, port);
  const rf::Dataset scans = rf::Dataset::LoadCsv(args[1], "scans");
  if (scans.records().empty()) return 0;
  // Same output contract as CmdPredict: predictions over the wire are
  // bit-identical to in-process Predict on the same model artifact — here
  // one round trip per --batch records instead of one per scan.
  const auto predictions = client.PredictBatch(scans.records(), model, batch);
  for (std::size_t index = 0; index < predictions.size(); ++index) {
    if (predictions[index]) {
      std::printf("%zu,%d\n", index, *predictions[index]);
    } else {
      std::printf("%zu,discarded\n", index);
    }
  }
  return 0;
}

int CmdRemoteSubmit(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  const std::string model = FlagValue(args, "--model", "");
  const std::size_t batch = static_cast<std::size_t>(ParseUnsigned(
      FlagValue(args, "--batch", "256"), serve::kMaxBatchRecords, "--batch"));
  Require(batch >= 1, "--batch must be at least 1");
  serve::Client client(host, port);
  const rf::Dataset records = rf::Dataset::LoadCsv(args[1], "records");
  if (records.records().empty()) return 0;
  const auto results = client.Submit(records.records(), model, batch);
  std::size_t accepted = 0;
  for (std::size_t index = 0; index < results.size(); ++index) {
    if (results[index].status == serve::SubmitStatus::kAccepted) {
      ++accepted;
      std::printf("%zu,accepted\n", index);
    } else {
      std::printf("%zu,rejected,%s\n", index, results[index].error.c_str());
    }
  }
  std::fprintf(stderr, "submitted %zu record(s): %zu accepted, %zu "
               "rejected\n",
               results.size(), accepted, results.size() - accepted);
  // Like remote-predict's diff contract, scripts branch on the exit code:
  // any rejection is visible without parsing stdout.
  return accepted == results.size() ? 0 : 2;
}

int CmdRemoteIngestStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  const std::string model = FlagValue(args, "--model", "");
  serve::Client client(host, port);
  const serve::IngestStatsResponse stats = client.IngestStats(model);
  if (!stats.enabled) {
    std::fprintf(stderr, "ingest disabled on this daemon\n");
    return 2;
  }
  if (!model.empty() && stats.models.empty()) {
    std::fprintf(stderr, "no such model '%s'\n", model.c_str());
    return 2;
  }
  for (const serve::IngestModelStats& m : stats.models) {
    std::printf(
        "%s,accepted=%llu,rejected=%llu,pending=%llu,folded=%llu,"
        "replayed=%llu,journal_bytes=%llu,publishes=%llu,"
        "last_publish_generation=%llu,fold_min_us=%llu,fold_mean_us=%llu,"
        "fold_max_us=%llu,last_fold_us=%llu,replayed_batches=%llu,"
        "journal_dropped_bytes=%llu\n",
        m.name.c_str(), static_cast<unsigned long long>(m.accepted),
        static_cast<unsigned long long>(m.rejected),
        static_cast<unsigned long long>(m.pending),
        static_cast<unsigned long long>(m.folded),
        static_cast<unsigned long long>(m.replayed),
        static_cast<unsigned long long>(m.journal_bytes),
        static_cast<unsigned long long>(m.publishes),
        static_cast<unsigned long long>(m.last_publish_generation),
        static_cast<unsigned long long>(m.fold_min_us),
        static_cast<unsigned long long>(m.fold_mean_us),
        static_cast<unsigned long long>(m.fold_max_us),
        static_cast<unsigned long long>(m.last_fold_us),
        static_cast<unsigned long long>(m.replayed_batches),
        static_cast<unsigned long long>(m.journal_dropped_bytes));
  }
  return 0;
}

int CmdRemotePing(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  const serve::Pong pong = client.Ping(FlagValue(args, "--model", ""));
  if (!pong.ok) {
    std::fprintf(stderr, "ping failed: %s\n", pong.error.c_str());
    return 2;
  }
  std::printf("protocol v%u, model generation %llu\n", pong.protocol_version,
              static_cast<unsigned long long>(pong.model_generation));
  return 0;
}

int CmdRemoteReload(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  const std::string model = FlagValue(args, "--model", "");
  // --generation N pins a store generation: the rollback flow against a
  // daemon running with --store-dir (0 = plain reload from disk).
  const std::uint64_t pinned = ParseUnsigned(
      FlagValue(args, "--generation", "0"), UINT64_MAX, "--generation");
  serve::Client client(host, port);
  const std::uint64_t generation = client.Reload(model, pinned);
  if (pinned != 0) {
    std::printf(
        "daemon rolled back model %s to store generation %llu "
        "(registry generation %llu)\n",
        model.empty() ? "<default>" : model.c_str(),
        static_cast<unsigned long long>(pinned),
        static_cast<unsigned long long>(generation));
  } else {
    std::printf("daemon reloaded model %s (generation %llu)\n",
                model.empty() ? "<default>" : model.c_str(),
                static_cast<unsigned long long>(generation));
  }
  return 0;
}

int CmdRemoteCheckpoint(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  const serve::CheckpointResponse response =
      client.Checkpoint(FlagValue(args, "--model", ""));
  if (!response.ok) {
    std::fprintf(stderr, "checkpoint failed: %s\n", response.message.c_str());
    return 2;
  }
  std::printf("generation=%llu,kind=%s,bytes=%llu\n",
              static_cast<unsigned long long>(response.generation),
              response.delta ? "delta" : "base",
              static_cast<unsigned long long>(response.bytes_written));
  return 0;
}

int CmdRemoteCompact(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  const serve::CompactResponse response =
      client.Compact(FlagValue(args, "--model", ""));
  if (!response.ok) {
    std::fprintf(stderr, "compact failed: %s\n", response.message.c_str());
    return 2;
  }
  std::printf("generation=%llu,journal_bytes_reclaimed=%llu\n",
              static_cast<unsigned long long>(response.generation),
              static_cast<unsigned long long>(
                  response.journal_bytes_reclaimed));
  return 0;
}

int CmdRemoteArtifacts(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  const serve::ListArtifactsResponse response =
      client.ListArtifacts(FlagValue(args, "--model", ""));
  if (!response.enabled) {
    std::fprintf(stderr, "persistence store disabled on this daemon\n");
    return 2;
  }
  for (const serve::ArtifactEntry& artifact : response.artifacts) {
    std::printf("generation=%llu,kind=%s,bytes=%llu,file=%s\n",
                static_cast<unsigned long long>(artifact.generation),
                artifact.delta ? "delta" : "base",
                static_cast<unsigned long long>(artifact.bytes),
                artifact.file.c_str());
  }
  return 0;
}

int CmdRemoteModels(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  const serve::ListModelsResponse models = client.ListModels();
  for (const serve::ModelInfo& info : models.models) {
    std::printf("%s,generation=%llu,reloadable=%d%s\n", info.name.c_str(),
                static_cast<unsigned long long>(info.generation),
                info.reloadable ? 1 : 0,
                info.name == models.default_model ? ",default" : "");
  }
  return 0;
}

/// One remote-stats snapshot: fetch and print. Factored out so --watch
/// re-runs it on a fresh connection each interval — a daemon restart
/// mid-watch reconnects instead of erroring on a dead socket.
int FetchAndPrintRemoteStats(const std::string& host, std::uint16_t port,
                             const std::string& model) {
  serve::Client client(host, port);
  const serve::StatsResponse stats = client.Stats(model);
  if (!model.empty() && stats.models.empty()) {
    std::fprintf(stderr, "no such model '%s'\n", model.c_str());
    return 2;
  }
  std::printf("connections_accepted=%llu\n",
              static_cast<unsigned long long>(stats.connections_accepted));
  const serve::TransportStats& t = stats.transport;
  std::printf(
      "transport,connections_live=%llu,harvested_idle=%llu,frames_in=%llu,"
      "frames_out=%llu,bytes_in=%llu,bytes_out=%llu,rejected_busy=%llu,"
      "event_workers=%llu\n",
      static_cast<unsigned long long>(t.connections_live),
      static_cast<unsigned long long>(t.connections_harvested_idle),
      static_cast<unsigned long long>(t.frames_in),
      static_cast<unsigned long long>(t.frames_out),
      static_cast<unsigned long long>(t.bytes_in),
      static_cast<unsigned long long>(t.bytes_out),
      static_cast<unsigned long long>(t.requests_rejected_busy),
      static_cast<unsigned long long>(t.event_workers));
  const serve::StoreStats& s = stats.store;
  if (s.enabled) {
    std::printf("store,bases=%llu,deltas=%llu,journal_bytes_reclaimed=%llu\n",
                static_cast<unsigned long long>(s.base_count),
                static_cast<unsigned long long>(s.delta_count),
                static_cast<unsigned long long>(s.journal_bytes_reclaimed));
  } else {
    std::printf("store,disabled\n");
  }
  for (const serve::ModelStats& m : stats.models) {
    std::printf(
        "%s,generation=%llu,requests=%llu,batches=%llu,max_batch=%llu,"
        "queue_depth=%llu,last_publish_source=%s,pending_ingest=%llu,"
        "shared_bytes=%llu,owned_bytes=%llu\n",
        m.name.c_str(), static_cast<unsigned long long>(m.generation),
        static_cast<unsigned long long>(m.requests),
        static_cast<unsigned long long>(m.batches),
        static_cast<unsigned long long>(m.max_batch),
        static_cast<unsigned long long>(m.queue_depth),
        m.last_publish_source == serve::PublishSource::kIngest ? "ingest"
                                                               : "disk",
        static_cast<unsigned long long>(m.pending_ingest),
        static_cast<unsigned long long>(m.shared_bytes),
        static_cast<unsigned long long>(m.owned_bytes));
  }
  return 0;
}

int CmdRemoteStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  const std::string model = FlagValue(args, "--model", "");
  // --watch N re-queries every N seconds until interrupted, each snapshot
  // on a fresh connection, separated by one blank line (0 = print once).
  const std::uint64_t watch_seconds = ParseUnsigned(
      FlagValue(args, "--watch", "0"), 86400, "--watch");
  for (;;) {
    const int status = FetchAndPrintRemoteStats(host, port, model);
    if (status != 0 || watch_seconds == 0) return status;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(watch_seconds));
  }
}

int CmdRemoteMetrics(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const auto [host, port] = ParseHostPort(args[0]);
  serve::Client client(host, port);
  // The exposition already ends in a newline (or is empty when the daemon
  // runs without telemetry); print it verbatim so the output pipes
  // straight into promtool and friends.
  const std::string text = client.Metrics();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int CmdEval(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const rf::Dataset dataset = rf::Dataset::LoadCsv(args[0], "cli");
  core::ExperimentConfig config;
  config.labels_per_floor = static_cast<std::size_t>(
      std::stoul(FlagValue(args, "--labels-per-floor", "4")));
  config.train_ratio = std::stod(FlagValue(args, "--train-ratio", "0.7"));
  const auto seed =
      static_cast<std::uint64_t>(std::stoull(FlagValue(args, "--seed", "42")));
  const auto result =
      core::RunExperiment(core::Algorithm::kGrafics, dataset, config, seed);
  std::printf("micro: P=%.3f R=%.3f F=%.3f\n", result.metrics.micro.precision,
              result.metrics.micro.recall, result.metrics.micro.f_score);
  std::printf("macro: P=%.3f R=%.3f F=%.3f\n", result.metrics.macro.precision,
              result.metrics.macro.recall, result.metrics.macro.f_score);
  std::printf("train %.2fs, inference %.2fs for %zu test records\n",
              result.train_seconds, result.infer_seconds,
              result.metrics.num_samples);
  return 0;
}

int CmdSynth(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const std::string preset = FlagValue(args, "--preset", "campus");
  const auto seed =
      static_cast<std::uint64_t>(std::stoull(FlagValue(args, "--seed", "7")));
  synth::BuildingConfig config;
  if (preset == "campus") {
    config = synth::CampusBuildingConfig(seed);
  } else if (preset == "mall") {
    config = synth::HongKongFleet(seed)[4];
  } else if (preset == "hk-tower") {
    config = synth::HongKongFleet(seed)[0];
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 1;
  }
  auto sim = config.MakeSimulator();
  const rf::Dataset dataset = sim.GenerateDataset();
  dataset.SaveCsv(args[0]);
  std::printf("wrote %zu records (%s, %zu MACs) to %s\n", dataset.size(),
              config.spec.name.c_str(), dataset.DistinctMacCount(),
              args[0].c_str());
  return 0;
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const rf::Dataset dataset = rf::Dataset::LoadCsv(args[0], "cli");
  Rng rng(1);
  const auto stats = rf::ComputeRecordStats(dataset, 100000, rng);
  std::printf("records: %zu  labeled: %zu  distinct MACs: %zu  floors: %zu\n",
              dataset.size(), dataset.LabeledCount(),
              dataset.DistinctMacCount(), dataset.Floors().size());
  std::printf("MACs/record: mean=%.1f min=%.0f max=%.0f\n",
              stats.macs_per_record.mean, stats.macs_per_record.min,
              stats.macs_per_record.max);
  std::printf("records with <= 40 MACs: %.1f%%\n",
              stats.fraction_records_below_40_macs * 100.0);
  std::printf("pairs with overlap < 0.5: %.1f%%\n",
              stats.fraction_pairs_overlap_below_half * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "train") return CmdTrain(args);
    if (command == "predict") return CmdPredict(args);
    if (command == "remote-predict") return CmdRemotePredict(args);
    if (command == "remote-submit") return CmdRemoteSubmit(args);
    if (command == "remote-ingest-stats") return CmdRemoteIngestStats(args);
    if (command == "remote-ping") return CmdRemotePing(args);
    if (command == "remote-reload") return CmdRemoteReload(args);
    if (command == "remote-checkpoint") return CmdRemoteCheckpoint(args);
    if (command == "remote-compact") return CmdRemoteCompact(args);
    if (command == "remote-artifacts") return CmdRemoteArtifacts(args);
    if (command == "remote-models") return CmdRemoteModels(args);
    if (command == "remote-stats") return CmdRemoteStats(args);
    if (command == "remote-metrics") return CmdRemoteMetrics(args);
    if (command == "eval") return CmdEval(args);
    if (command == "synth") return CmdSynth(args);
    if (command == "stats") return CmdStats(args);
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
