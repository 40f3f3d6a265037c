// TCP front-end of the GRAFICS serving engine: a thin transport that parses
// frames and routes them to a ModelRegistry by model name.
//
// One accept-loop thread hands each connection to the nonblocking epoll
// EventLoop (a fixed pool of worker threads; see event_loop.h). Workers
// never block: predicts are handed to the registry, which runs them on its
// shared pool and completes them through callbacks; blocking admin work
// (reload disk loads, ingest journal fsyncs) runs on a small ops pool; and
// the cheap admin queries are answered inline. A client may pipeline many
// requests on one connection; replies always come back in request order.
//
// Admission control keeps an overloaded daemon answering instead of
// queueing without bound: predicts beyond max_inflight_per_connection
// unanswered requests on one socket, or beyond max_queue_depth pending
// records on one model, are refused with a structured per-record
// "busy: ..." error — never a dropped connection.
//
// The server speaks protocol v7 only. A frame in any other dialect is
// malformed: it gets one v7 error reply and the connection is closed.
//
// The ingest surface (SubmitRecords/IngestStats) is optional: attach an
// ingest::IngestPipeline before Start to enable it; without one, submits
// are answered with per-record "ingest disabled" rejections.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/event_loop.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"

namespace grafics::ingest {
class IngestPipeline;
}

namespace grafics::store {
class ModelStore;
}

namespace grafics::serve {

struct ServerConfig {
  /// Address to bind; loopback by default — expose deliberately.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back from
  /// port() after Start, e.g. for tests and CI).
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Epoll worker threads of the event loop; each owns a share of the
  /// connections.
  std::size_t event_workers = 2;
  /// Harvest connections with no unanswered requests after this long
  /// without socket activity (slow-loris partial frames included); zero
  /// disables harvesting.
  std::chrono::milliseconds idle_timeout{0};
  /// Busy-reject a predict once its connection has this many unanswered
  /// requests (including itself); zero = unlimited pipelining.
  std::size_t max_inflight_per_connection = 64;
  /// Busy-reject a predict when its model's admitted-but-not-started
  /// records would exceed this many; zero = unbounded.
  std::size_t max_queue_depth = 0;
  /// Threads for blocking admin work (reload disk loads, ingest journal
  /// fsyncs) so event workers never stall on them.
  std::size_t ops_threads = 2;
  /// When non-zero, predicts whose end-to-end time exceeds this many
  /// microseconds log a per-stage trace breakdown to stderr (see
  /// docs/observability.md for the line format). Zero disables tracing.
  std::uint64_t slow_request_us = 0;
};

class Server {
 public:
  /// Serves every model in `registry`, which must already hold at least one
  /// (the default) and stays owned by the caller: load/unload/reload models
  /// on it at any time while the server runs. Transport telemetry is
  /// recorded into the registry's obs registry, and the v7 Metrics request
  /// answers with its Prometheus render.
  explicit Server(std::shared_ptr<ModelRegistry> registry,
                  ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enables the ingest surface: SubmitRecords routes to `ingest` and
  /// IngestStats reports its counters. Call before Start; the pipeline is
  /// shared with the caller, who owns its shutdown ordering (stop the
  /// server, then the pipeline, then the registry).
  void AttachIngest(std::shared_ptr<ingest::IngestPipeline> ingest);

  /// Enables the persistence surface: Checkpoint/ListArtifacts route to
  /// `store`, Compact additionally needs an attached ingest pipeline, Stats
  /// reports store counters, and Reload honors generation pins. Call before
  /// Start; the store is shared with the registry and the caller.
  void AttachStore(std::shared_ptr<store::ModelStore> store);

  /// Binds, listens, and spawns the accept loop + event workers. Throws
  /// grafics::Error when the address is unusable.
  void Start();
  /// Stops accepting and disconnects clients; in-flight predict
  /// completions become no-ops. The registry (and its pool) is the caller's
  /// to stop. Idempotent.
  void Stop();

  /// Bound port (resolves port 0 after Start).
  std::uint16_t port() const { return port_; }

  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }

  std::uint64_t connections_accepted() const { return accepts_->value(); }

  /// The transport counters the Stats reply carries, read off the obs
  /// instruments; readable while the server runs and after Stop (final
  /// values).
  TransportStats transport_stats() const;

 private:
  void AcceptLoop();

  /// EventLoop frame handler: decode, dispatch, arrange for exactly one
  /// Completion. Runs on an event worker; must not block.
  void HandleFrame(std::string payload, std::size_t inflight,
                   EventLoop::Completion done);
  void HandlePredictAsync(PredictRequest request, std::size_t inflight,
                          EventLoop::Completion done);

  Pong HandlePing(const Ping& ping) const;
  ReloadResponse HandleReload(const ReloadRequest& request);
  ListModelsResponse HandleListModels() const;
  StatsResponse HandleStats(const StatsRequest& request) const;
  SubmitRecordsResponse HandleSubmit(SubmitRecordsRequest request);
  IngestStatsResponse HandleIngestStats(
      const IngestStatsRequest& request) const;
  CheckpointResponse HandleCheckpoint(const CheckpointRequest& request);
  CompactResponse HandleCompact(const CompactRequest& request);
  ListArtifactsResponse HandleListArtifacts(
      const ListArtifactsRequest& request) const;

  const ServerConfig config_;
  const std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<ingest::IngestPipeline> ingest_;
  std::shared_ptr<store::ModelStore> store_;
  obs::Counter* const accepts_;
  obs::Counter* const busy_rejections_;
  obs::Counter* const slow_requests_;
  obs::Histogram* const frame_decode_us_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  // Built with the server so its instruments read zero before Start; its
  // workers run from Start to Stop.
  const std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> ops_pool_;
  std::thread accept_thread_;
};

}  // namespace grafics::serve
