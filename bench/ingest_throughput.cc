// End-to-end throughput of the online ingestion pipeline.
//
// Trains a campus-preset GRAFICS model, serves it from an in-process
// serve::Server with an ingest::IngestPipeline (durable journal in a temp
// directory), and streams crowdsourced records into it over TCP in chunks:
// each chunk is submitted (journaled + acknowledged), then the harness
// waits for the background fold-in to publish before sending the next, so
// the measured rate covers the whole accept → journal → clone → Update →
// publish path and the fold batch boundaries are deterministic.
//
// Before reporting anything the harness verifies correctness end to end:
// post-ingest networked predictions must bit-match an in-process reference
// built by applying the same Update batches to a clone of the base model,
// and a fresh pipeline pointed at the same journal must replay to the same
// answers (the restart story). Writes BENCH_ingest_throughput.json for the
// CI perf-trajectory artifact.
//
// Run:  ./build/bench/ingest_throughput
//       ./build/bench/ingest_throughput --records-per-floor 200 \
//           --submit 80 --chunk 20 --queries 60
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli_flags.h"
#include "core/grafics.h"
#include "ingest/ingest_pipeline.h"
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
  std::size_t submit = 120;
  std::size_t chunk = 40;
  std::size_t queries = 80;
  std::string journal_dir;  // empty = fresh temp directory
};

Args ParseArgs(int argc, char** argv) {
  const std::vector<std::string> raw(argv + 1, argv + argc);
  Args args;
  args.records_per_floor = static_cast<int>(ParseUnsigned(
      FlagValue(raw, "--records-per-floor", "400"), 100000,
      "--records-per-floor"));
  args.submit =
      ParseUnsigned(FlagValue(raw, "--submit", "120"), 1000000, "--submit");
  args.chunk = ParseUnsigned(FlagValue(raw, "--chunk", "40"),
                             serve::kMaxBatchRecords, "--chunk");
  Require(args.chunk >= 1, "--chunk must be at least 1");
  args.queries =
      ParseUnsigned(FlagValue(raw, "--queries", "80"), 1000000, "--queries");
  args.journal_dir = FlagValue(raw, "--journal-dir", "");
  return args;
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ingest_throughput: %s\n", e.what());
    return 1;
  }
  if (args.journal_dir.empty()) {
    char tmpl[] = "/tmp/grafics_ingest_bench_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    Require(dir != nullptr, "cannot create temp journal dir");
    args.journal_dir = dir;
  }

  std::printf("== ingest_throughput: journaled submit + background fold-in "
              "==\n");
  std::printf("   campus preset, %zu record(s) in chunks of %zu, journal in "
              "%s\n",
              args.submit, args.chunk, args.journal_dir.c_str());

  // Base model plus the ingest stream and held-out queries.
  auto building = synth::CampusBuildingConfig(/*seed=*/17,
                                              args.records_per_floor);
  auto sim = building.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(23);
  auto [train, rest] = dataset.TrainTestSplit(0.6, rng);
  train.KeepLabelsPerFloor(6, rng);
  const std::size_t stream_size = std::min(args.submit, rest.size() / 2);
  const std::size_t query_size =
      std::min(args.queries, rest.size() - stream_size);
  const std::vector<rf::SignalRecord> stream(
      rest.records().begin(), rest.records().begin() + stream_size);
  const std::vector<rf::SignalRecord> queries(
      rest.records().begin() + stream_size,
      rest.records().begin() + stream_size + query_size);

  core::GraficsConfig model_config;
  model_config.trainer.samples_per_edge = 60;
  core::Grafics base(model_config);
  const auto train_start = Clock::now();
  base.Train(train.records());
  const double train_seconds = Seconds(train_start);
  std::printf("   trained on %zu record(s) in %.2fs; streaming %zu, "
              "querying %zu\n",
              train.size(), train_seconds, stream.size(), queries.size());

  // In-process reference: the same chunked Update sequence on a clone.
  core::Grafics reference = base.Clone();

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->Load("campus",
                 std::make_shared<const core::Grafics>(base.Clone()));

  ingest::IngestConfig ingest_config;
  ingest_config.fold_batch_size = args.chunk;
  ingest_config.max_delay = std::chrono::milliseconds(50);
  ingest_config.journal_dir = args.journal_dir;
  auto pipeline =
      std::make_shared<ingest::IngestPipeline>(registry, ingest_config);
  pipeline->Attach("campus");

  serve::Server server(registry, serve::ServerConfig{.port = 0});
  server.AttachIngest(pipeline);
  server.Start();

  bool ok = true;
  double submit_seconds = 0;  // client-visible accept latency (journal sync)
  const auto ingest_start = Clock::now();
  try {
    serve::Client client("127.0.0.1", server.port());
    for (std::size_t begin = 0; begin < stream.size();
         begin += args.chunk) {
      const std::size_t end = std::min(begin + args.chunk, stream.size());
      const std::vector<rf::SignalRecord> chunk(
          stream.begin() + static_cast<long>(begin),
          stream.begin() + static_cast<long>(end));
      const auto submit_start = Clock::now();
      const auto results = client.Submit(chunk, "campus");
      submit_seconds += Seconds(submit_start);
      for (const serve::SubmitResult& result : results) {
        if (result.status != serve::SubmitStatus::kAccepted) {
          std::fprintf(stderr, "record rejected: %s\n",
                       result.error.c_str());
          ok = false;
        }
      }
      // Wait for the publish so the next chunk folds on its own — the
      // measured rate is the full accept-to-published pipeline.
      if (!pipeline->WaitUntilDrained()) {
        std::fprintf(stderr, "fold-in did not drain\n");
        ok = false;
        break;
      }
      reference.Update(chunk);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ingest stream failed: %s\n", e.what());
    ok = false;
  }
  const double ingest_seconds = Seconds(ingest_start);

  // Correctness gate 1: the served model must now answer exactly like the
  // reference clone that folded the same chunks.
  const std::vector<std::optional<rf::FloorId>> expected =
      reference.PredictBatch(queries, {.num_threads = 1});
  serve::IngestModelStats ingest_stats;
  try {
    serve::Client client("127.0.0.1", server.port());
    const auto served = client.PredictBatch(queries, "campus");
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (served[i] != expected[i]) ok = false;
    }
    const serve::IngestStatsResponse stats = client.IngestStats("campus");
    Require(stats.enabled && stats.models.size() == 1,
            "ingest stats missing");
    ingest_stats = stats.models.front();
    if (ingest_stats.folded != stream.size()) ok = false;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "post-ingest verification failed: %s\n", e.what());
    ok = false;
  }
  const std::uint64_t generation = registry->generation("campus");
  server.Stop();
  pipeline->Stop();
  registry->Stop();

  // Correctness gate 2 (the restart story): a fresh registry + pipeline on
  // the same journal must replay to the same predictions.
  try {
    auto replay_registry = std::make_shared<serve::ModelRegistry>();
    replay_registry->Load(
        "campus", std::make_shared<const core::Grafics>(base.Clone()));
    ingest::IngestPipeline replay_pipeline(replay_registry, ingest_config);
    replay_pipeline.Attach("campus");
    const auto replayed =
        replay_registry->Snapshot("campus")->PredictBatch(queries,
                                                          {.num_threads = 1});
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (replayed[i] != expected[i]) ok = false;
    }
    replay_pipeline.Stop();
    replay_registry->Stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journal replay verification failed: %s\n",
                 e.what());
    ok = false;
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: ingest pipeline diverged from the "
                 "in-process Update reference\n");
    return 1;
  }

  const double submit_rate =
      static_cast<double>(stream.size()) / submit_seconds;
  const double ingest_rate =
      static_cast<double>(stream.size()) / ingest_seconds;
  std::printf("\n%18s %14s %14s %10s %12s\n", "records", "submit rec/s",
              "ingest rec/s", "publishes", "journal B");
  std::printf("%18zu %14.1f %14.1f %10llu %12llu\n", stream.size(),
              submit_rate, ingest_rate,
              static_cast<unsigned long long>(ingest_stats.publishes),
              static_cast<unsigned long long>(ingest_stats.journal_bytes));
  std::printf("\nserved predictions matched the in-process Update reference "
              "(generation %llu), and the journal replayed to the same "
              "answers\n",
              static_cast<unsigned long long>(generation));

  bench::BenchReport report("ingest_throughput");
  report.Add("train_seconds", train_seconds);
  report.Add("records", static_cast<double>(stream.size()));
  report.Add("submit_records_per_s", submit_rate);
  report.Add("ingest_records_per_s", ingest_rate);
  report.Add("publishes", static_cast<double>(ingest_stats.publishes));
  report.Add("journal_bytes",
             static_cast<double>(ingest_stats.journal_bytes));
  report.Add("final_generation", static_cast<double>(generation));
  report.WriteJson();
  return 0;
}
