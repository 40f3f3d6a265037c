// grafics_served — the GRAFICS network serving daemon.
//
// Loads one or many SaveModel artifacts into a named model registry and
// answers floor queries over the TCP protocol of serve/protocol.h. Each
// predict runs as soon as it is admitted, as snapshot-isolated inference
// tasks on one worker pool shared by every model. One daemon, many
// buildings: clients route by model name, and unnamed requests go to the
// default model.
//
//   grafics_served [<model.bin>] [--model NAME=PATH]... [--default NAME]
//                  [--host A] [--port P] [--threads T] [--event-workers W]
//                  [--idle-timeout-ms I]
//                  [--max-inflight N] [--max-queue-depth N] [--port-file F]
//                  [--journal-dir D] [--ingest-batch N]
//                  [--ingest-max-delay-ms M] [--ingest-max-pending N]
//                  [--store-dir D] [--compact-every-n-folds N]
//                  [--max-journal-bytes B]
//                  [--admin-port P] [--admin-port-file F]
//                  [--slow-request-us N]
//
//   <model.bin>       artifact loaded as model "default" (optional when at
//                     least one --model is given)
//   --model NAME=PATH load PATH as model NAME; repeatable
//   --default NAME    which model unnamed requests hit (default: the first
//                     loaded model)
//   --host A          bind address            (default 127.0.0.1)
//   --port P          TCP port; 0 = ephemeral (default 4817)
//   --threads T       predict workers shared by all models; 0 = cores
//                     (default 1)
//   --event-workers W epoll worker threads of the event-driven transport;
//                     each owns a share of the connections (default 2)
//   --idle-timeout-ms I  close connections with no unanswered requests
//                     after I ms without socket activity — reclaims fds
//                     from abandoned peers and slow-loris partial frames;
//                     0 disables (default 60000)
//   --max-inflight N  busy-reject predicts once a connection has N
//                     unanswered pipelined requests; 0 = unlimited
//                     (default 64)
//   --max-queue-depth N  busy-reject predicts when a model's admitted records
//                     that no worker has started would exceed N;
//                     0 = unbounded (default 0)
//   --port-file F     write the bound port to F once listening (for
//                     scripts/CI that start on an ephemeral port)
//   --journal-dir D   enable online ingestion: every model gets a durable
//                     record journal in D (created if missing), replayed
//                     into the model before serving starts
//   --ingest-batch N         fold at N pending records (default 64)
//   --ingest-max-delay-ms M  fold after the oldest accepted record waited
//                            M ms (default 200)
//   --ingest-max-pending N   per-model submission buffer bound; beyond it
//                            submits are rejected with a backpressure
//                            error (default 4096)
//   --store-dir D     enable the unified persistence store: model loads are
//                     imported as store generations, checkpoints and journal
//                     compaction become available over the protocol, and on
//                     restart a model whose store chain has advanced past
//                     its --model artifact is loaded from the store — a
//                     restart never silently discards folded records
//   --compact-every-n-folds N  compact a model's journal into a store
//                     checkpoint after N background folds (0 = only on
//                     explicit remote-compact; requires --store-dir and
//                     --journal-dir)
//   --max-journal-bytes B      compact as soon as a model's journal exceeds
//                     B bytes (0 = no byte bound)
//   --admin-port P    open the HTTP admin listener on P (0 = ephemeral):
//                     GET /metrics serves the Prometheus text exposition,
//                     GET /healthz liveness, GET /readyz readiness (200
//                     once the default model is loaded)
//   --admin-port-file F  write the bound admin port to F once listening
//   --slow-request-us N  log any predict whose total latency exceeds N
//                     microseconds to stderr with a per-stage trace
//                     breakdown (0 disables; independent of --admin-port)
//
// Every flag takes exactly one value. An unknown flag (a typo such as
// --thread) or a flag missing its value prints the usage text and exits
// with status 2 instead of starting a daemon with a default the operator
// did not ask for.
//
// SIGHUP hot-reloads every model from its artifact path, one by one: new
// predicts move to each fresh snapshot atomically while in-flight ones
// finish on the old one, and other models keep serving throughout. Clients
// can reload one model remotely (`grafics remote-reload --model NAME`).
// SIGINT/SIGTERM drain and exit: the listener stops first, then the ingest
// pipeline folds everything accepted and closes the journals, and only
// then is the registry torn down — accepted records are never lost to a
// TERM.
//
// Exit status: 0 on clean shutdown, 1 when no model is given, 2 on an
// unknown flag, a bad flag value or a runtime failure.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli_flags.h"
#include "common/error.h"
#include "core/grafics.h"
#include "ingest/ingest_pipeline.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "store/model_store.h"

namespace {

using namespace grafics;

volatile std::sig_atomic_t g_reload_requested = 0;
volatile std::sig_atomic_t g_stop_requested = 0;

void OnSignal(int signal_number) {
  if (signal_number == SIGHUP) {
    g_reload_requested = 1;
  } else {
    g_stop_requested = 1;
  }
}

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGHUP, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // Every socket write already passes MSG_NOSIGNAL, but belt and braces:
  // with thousands of clients some will vanish mid-response, and a stray
  // SIGPIPE from any future write path must never kill the daemon.
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: grafics_served [<model.bin>] [--model NAME=PATH]... "
      "[--default NAME]\n"
      "                      [--host A] [--port P] [--threads T] "
      "[--event-workers W]\n"
      "                      [--idle-timeout-ms I] [--max-inflight N]\n"
      "                      [--max-queue-depth N] [--port-file F]\n"
      "                      [--journal-dir D] [--ingest-batch N]\n"
      "                      [--ingest-max-delay-ms M] "
      "[--ingest-max-pending N]\n"
      "                      [--store-dir D] [--compact-every-n-folds N]\n"
      "                      [--max-journal-bytes B] [--admin-port P]\n"
      "                      [--admin-port-file F] [--slow-request-us N]\n");
  return 1;
}

/// The daemon's flag arguments, each flag followed by one value. Every
/// lookup records the flag it asked for, so once main() has read them all,
/// AllRead rejects whatever it never asked for: the one list of accepted
/// flags is main()'s own lookups.
class DaemonFlags {
 public:
  explicit DaemonFlags(std::vector<std::string> args)
      : args_(std::move(args)) {}

  std::string Value(const std::string& flag, const std::string& fallback) {
    read_.push_back(flag);
    return FlagValue(args_, flag, fallback);
  }
  std::vector<std::string> Values(const std::string& flag) {
    read_.push_back(flag);
    return FlagValues(args_, flag);
  }

  /// Checks that the arguments are read flags, each followed by its value.
  /// On the first violation prints it with the usage text and returns false.
  bool AllRead() const {
    for (std::size_t i = 0; i < args_.size(); i += 2) {
      const bool known =
          std::find(read_.begin(), read_.end(), args_[i]) != read_.end();
      if (!known || i + 1 == args_.size()) {
        std::fprintf(stderr, "grafics_served: %s '%s'\n",
                     known ? "missing value for flag" : "unknown argument",
                     args_[i].c_str());
        Usage();
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::string> args_;
  std::vector<std::string> read_;
};

/// Splits "NAME=PATH" on the first '='; both halves must be non-empty.
std::pair<std::string, std::string> ParseModelFlag(const std::string& text) {
  const std::size_t equals = text.find('=');
  Require(equals != std::string::npos && equals > 0 && equals + 1 < text.size(),
          "--model expects NAME=PATH, got '" + text + "'");
  return {text.substr(0, equals), text.substr(equals + 1)};
}

/// Startup load with a persistence store attached. A model whose store
/// chain has advanced past its --model artifact — delta checkpoints or
/// compactions were committed after the import — is loaded from the store's
/// latest generation: re-importing PATH would silently discard every record
/// folded since. The artifact path wins only while it is still the chain's
/// tip (first start, restart without intervening checkpoints, or an
/// operator pointing --model at a freshly retrained file).
void LoadStartupModel(serve::ModelRegistry& registry, const std::string& name,
                      const std::string& path) {
  const std::shared_ptr<store::ModelStore> attached = registry.store();
  if (attached != nullptr && attached->LatestGeneration(name) > 0) {
    const std::vector<store::ArtifactInfo> chain = attached->List(name);
    const store::ArtifactInfo& latest = chain.back();
    if (!latest.external) {
      std::printf(
          "grafics_served: loading %s from store generation %llu "
          "(checkpoints supersede artifact %s)\n",
          name.c_str(), static_cast<unsigned long long>(latest.generation),
          path.c_str());
      std::fflush(stdout);
      registry.LoadFromStore(name);
      return;
    }
  }
  registry.LoadFromDisk(name, path);
}

/// SIGHUP: reload every reloadable model from its artifact path. A broken
/// artifact on disk must not take the daemon (or the other models) down.
std::uint64_t ReloadAll(serve::ModelRegistry& registry) {
  std::uint64_t reloaded = 0;
  for (const serve::ModelInfo& info : registry.List()) {
    if (!info.reloadable) continue;
    try {
      const std::uint64_t generation = registry.ReloadFromDisk(info.name);
      ++reloaded;
      std::printf("grafics_served: reloaded model %s (generation %llu)\n",
                  info.name.c_str(),
                  static_cast<unsigned long long>(generation));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "grafics_served: reload of %s failed: %s\n",
                   info.name.c_str(), e.what());
    }
  }
  std::fflush(stdout);
  return reloaded;
}

}  // namespace

int main(int argc, char** argv) {
  std::string positional_model;
  int first_flag = 1;
  if (argc >= 2 && argv[1][0] != '-') {
    positional_model = argv[1];
    first_flag = 2;
  }
  DaemonFlags flags(std::vector<std::string>(argv + first_flag, argv + argc));
  try {
    serve::ServerConfig config;
    config.host = flags.Value("--host", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(ParseUnsigned(
        flags.Value("--port", std::to_string(serve::kDefaultPort)), 65535,
        "--port"));
    config.event_workers = static_cast<std::size_t>(ParseUnsigned(
        flags.Value("--event-workers", "2"), 256, "--event-workers"));
    Require(config.event_workers >= 1, "--event-workers must be >= 1");
    config.idle_timeout = std::chrono::milliseconds(
        ParseUnsigned(flags.Value("--idle-timeout-ms", "60000"), 86400000,
                      "--idle-timeout-ms"));
    config.max_inflight_per_connection = static_cast<std::size_t>(
        ParseUnsigned(flags.Value("--max-inflight", "64"), 1 << 20,
                      "--max-inflight"));
    config.max_queue_depth = static_cast<std::size_t>(ParseUnsigned(
        flags.Value("--max-queue-depth", "0"), 1 << 24,
        "--max-queue-depth"));
    const auto predict_threads = static_cast<std::size_t>(ParseUnsigned(
        flags.Value("--threads", "1"), 4096, "--threads"));
    const std::string port_file = flags.Value("--port-file", "");
    ingest::IngestConfig ingest_config;
    ingest_config.journal_dir = flags.Value("--journal-dir", "");
    ingest_config.fold_batch_size = static_cast<std::size_t>(ParseUnsigned(
        flags.Value("--ingest-batch", "64"), 1 << 20, "--ingest-batch"));
    ingest_config.max_delay = std::chrono::milliseconds(
        ParseUnsigned(flags.Value("--ingest-max-delay-ms", "200"), 600000,
                      "--ingest-max-delay-ms"));
    ingest_config.max_pending = static_cast<std::size_t>(
        ParseUnsigned(flags.Value("--ingest-max-pending", "4096"),
                      1 << 24, "--ingest-max-pending"));
    const std::string store_dir = flags.Value("--store-dir", "");
    ingest_config.compact_every_n_folds = static_cast<std::size_t>(
        ParseUnsigned(flags.Value("--compact-every-n-folds", "0"),
                      1 << 24, "--compact-every-n-folds"));
    ingest_config.max_journal_bytes = ParseUnsigned(
        flags.Value("--max-journal-bytes", "0"), UINT64_MAX,
        "--max-journal-bytes");
    Require((ingest_config.compact_every_n_folds == 0 &&
             ingest_config.max_journal_bytes == 0) ||
                (!store_dir.empty() && !ingest_config.journal_dir.empty()),
            "--compact-every-n-folds / --max-journal-bytes require both "
            "--store-dir and --journal-dir");
    config.slow_request_us = ParseUnsigned(
        flags.Value("--slow-request-us", "0"), UINT64_MAX,
        "--slow-request-us");
    const std::string admin_port_flag = flags.Value("--admin-port", "");
    const std::string admin_port_file =
        flags.Value("--admin-port-file", "");
    obs::AdminServerConfig admin_config;
    admin_config.host = config.host;
    if (!admin_port_flag.empty()) {
      admin_config.port = static_cast<std::uint16_t>(
          ParseUnsigned(admin_port_flag, 65535, "--admin-port"));
    }
    const std::vector<std::string> model_flags = flags.Values("--model");
    const std::string default_name = flags.Value("--default", "");
    if (!flags.AllRead()) return 2;
    if (positional_model.empty() && model_flags.empty()) return Usage();

    // Before the (slow) model loads: an early SIGHUP must queue a reload,
    // not kill the process with the default action.
    InstallSignalHandlers();
    // Telemetry is always collected (the wire-level metrics dump needs it
    // even without --admin-port): the model registry, the store, and the
    // server and ingest pipeline built on the model registry all record
    // into this one obs registry.
    auto obs_registry = std::make_shared<obs::Registry>();
    auto registry = std::make_shared<serve::ModelRegistry>(
        predict_threads, nullptr, obs_registry);
    std::shared_ptr<store::ModelStore> model_store;
    if (!store_dir.empty()) {
      model_store =
          std::make_shared<store::ModelStore>(store_dir, obs_registry);
      registry->AttachStore(model_store);
      ingest_config.model_store = model_store;
    }
    if (!positional_model.empty()) {
      std::printf("grafics_served: loading default = %s...\n",
                  positional_model.c_str());
      std::fflush(stdout);
      LoadStartupModel(*registry, "default", positional_model);
    }
    for (const std::string& flag : model_flags) {
      const auto [name, path] = ParseModelFlag(flag);
      // A duplicate name (repeated --model, or colliding with the
      // positional artifact's "default") would silently hot-swap the
      // earlier artifact — almost certainly an operator typo.
      Require(!registry->Has(name), "duplicate model name '" + name + "'");
      std::printf("grafics_served: loading %s = %s...\n", name.c_str(),
                  path.c_str());
      std::fflush(stdout);
      LoadStartupModel(*registry, name, path);
    }
    if (!default_name.empty()) registry->SetDefaultModel(default_name);

    // Online ingestion: one journal per model under --journal-dir, replayed
    // into the served snapshot BEFORE the listener opens, so the first
    // prediction already reflects every record accepted before a restart.
    std::shared_ptr<ingest::IngestPipeline> pipeline;
    if (!ingest_config.journal_dir.empty()) {
      ::mkdir(ingest_config.journal_dir.c_str(), 0755);  // EEXIST is fine
      pipeline =
          std::make_shared<ingest::IngestPipeline>(registry, ingest_config);
      for (const serve::ModelInfo& info : registry->List()) {
        pipeline->Attach(info.name);
      }
      for (const serve::IngestModelStats& stats : pipeline->Stats()) {
        if (stats.replayed == 0) continue;
        std::printf(
            "grafics_served: replayed %llu journaled record(s) into %s "
            "(generation %llu)\n",
            static_cast<unsigned long long>(stats.replayed),
            stats.name.c_str(),
            static_cast<unsigned long long>(registry->generation(stats.name)));
      }
    }

    serve::Server server(registry, config);
    if (pipeline != nullptr) server.AttachIngest(pipeline);
    if (model_store != nullptr) server.AttachStore(model_store);
    server.Start();
    std::printf(
        "grafics_served: serving %zu model(s) (default %s) on %s:%u "
        "(pid %d)\n",
        registry->size(), registry->default_model().c_str(),
        config.host.c_str(), static_cast<unsigned>(server.port()),
        static_cast<int>(::getpid()));
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::FILE* f = std::fopen(port_file.c_str(), "w");
      Require(f != nullptr, "cannot write port file " + port_file);
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    }

    // The admin surface opens after the serving listener: a scraper that
    // can reach /readyz can also already reach the predict port.
    std::unique_ptr<obs::AdminServer> admin;
    if (!admin_port_flag.empty()) {
      admin = std::make_unique<obs::AdminServer>(
          admin_config,
          [obs_registry] { return obs_registry->RenderPrometheus(); },
          [registry] {
            // Ready once the default model is loaded (generation advances
            // from 0 at first load); AdminServer maps a throw to 503.
            return registry->generation(registry->default_model()) > 0;
          });
      admin->Start();
      std::printf("grafics_served: admin endpoints on %s:%u "
                  "(/metrics /healthz /readyz)\n",
                  admin_config.host.c_str(),
                  static_cast<unsigned>(admin->port()));
      std::fflush(stdout);
      if (!admin_port_file.empty()) {
        std::FILE* f = std::fopen(admin_port_file.c_str(), "w");
        Require(f != nullptr,
                "cannot write admin port file " + admin_port_file);
        std::fprintf(f, "%u\n", static_cast<unsigned>(admin->port()));
        std::fclose(f);
      }
    }

    std::uint64_t reloads = 0;
    while (g_stop_requested == 0) {
      if (g_reload_requested != 0) {
        g_reload_requested = 0;
        reloads += ReloadAll(*registry);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Shutdown ordering matters: stop the transport first (no new submits
    // or predicts), then the ingest pipeline — which folds every accepted
    // record into a final publish and syncs + closes the journals — and
    // only then the registry the pipeline publishes into. Stopping the
    // registry first would make the pipeline's final publishes fail and
    // lose accepted records from the served model (they would survive only
    // in the journal). The admin listener goes down first of all, so no
    // /metrics render is still walking the registry's models while those
    // layers tear down.
    if (admin != nullptr) admin->Stop();
    server.Stop();
    if (pipeline != nullptr) pipeline->Stop();
    registry->Stop();
    std::printf("grafics_served: shut down after %llu connection(s), "
                "%llu reload(s)\n",
                static_cast<unsigned long long>(server.connections_accepted()),
                static_cast<unsigned long long>(reloads));
    const serve::TransportStats transport = server.transport_stats();
    std::printf("  transport: %llu frame(s) in, %llu out; %llu byte(s) in, "
                "%llu out; %llu idle harvest(s); %llu busy rejection(s)\n",
                static_cast<unsigned long long>(transport.frames_in),
                static_cast<unsigned long long>(transport.frames_out),
                static_cast<unsigned long long>(transport.bytes_in),
                static_cast<unsigned long long>(transport.bytes_out),
                static_cast<unsigned long long>(
                    transport.connections_harvested_idle),
                static_cast<unsigned long long>(
                    transport.requests_rejected_busy));
    for (const serve::ModelStats& stats : registry->Stats()) {
      std::printf("  model %-24s gen %llu: %llu record(s) in %llu "
                  "task(s) (%llu inline), largest %llu\n",
                  stats.name.c_str(),
                  static_cast<unsigned long long>(stats.generation),
                  static_cast<unsigned long long>(stats.requests),
                  static_cast<unsigned long long>(stats.batches),
                  static_cast<unsigned long long>(
                      registry->InlineTasks(stats.name)),
                  static_cast<unsigned long long>(stats.max_batch));
    }
    if (pipeline != nullptr) {
      for (const serve::IngestModelStats& stats : pipeline->Stats()) {
        std::printf("  ingest %-23s %llu accepted, %llu folded in %llu "
                    "publish(es), %llu journal byte(s)\n",
                    stats.name.c_str(),
                    static_cast<unsigned long long>(stats.accepted),
                    static_cast<unsigned long long>(stats.folded),
                    static_cast<unsigned long long>(stats.publishes),
                    static_cast<unsigned long long>(stats.journal_bytes));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grafics_served: error: %s\n", e.what());
    return 2;
  }
}
