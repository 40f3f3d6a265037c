// Blocking client for the GRAFICS serving daemon (protocol v7).
//
// One TCP connection, one request/response in flight at a time; concurrency
// comes from opening more clients (the daemon coalesces across connections).
// Every call takes an optional model name — empty routes to the daemon's
// default model. Used by the tests, the serve_daemon_qps load generator, and
// the `grafics remote-*` CLI commands.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rf/signal_record.h"
#include "serve/protocol.h"

namespace grafics::serve {

struct ClientConfig {
  /// Receive-side bound on one reply frame. Batched responses grow with
  /// the batch, so clients sending large batches (or expecting big admin
  /// replies) raise this instead of being capped by their own limit.
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

class Client {
 public:
  /// Connects immediately; throws grafics::Error when the daemon is
  /// unreachable.
  Client(const std::string& host, std::uint16_t port,
         ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Remote Grafics::Predict against the named model (empty = default):
  /// nullopt when the daemon discarded the record (no MAC overlap). Throws
  /// grafics::Error on transport problems or when the daemon reports an
  /// error (e.g. an unknown model name).
  std::optional<rf::FloorId> Predict(const rf::SignalRecord& record,
                                     const std::string& model = {});

  /// Batched remote predict, answered per-record in request order. Records
  /// are split into one frame (one round trip) per chunk; a chunk closes at
  /// `max_records_per_frame` records (clamped to [1, kMaxBatchRecords]) or
  /// as soon as the next record would push the encoded frame over the
  /// daemon's kMaxFrameBytes cap, whichever comes first — so dense scans
  /// split by size, not just by count. Throws grafics::Error when any
  /// record comes back with an error status.
  std::vector<std::optional<rf::FloorId>> PredictBatch(
      const std::vector<rf::SignalRecord>& records,
      const std::string& model = {},
      std::size_t max_records_per_frame = kMaxBatchRecords);

  /// Health check for the named model (empty = default). The returned Pong
  /// carries the daemon's protocol version and the model's generation, so
  /// callers observe hot reloads. ok == false (with error set) for unknown
  /// model names.
  Pong Ping(const std::string& model = {});

  /// Asks the daemon to hot-reload the named model (empty = default);
  /// returns the new model generation. A non-zero `generation` pins a
  /// persistence-store generation instead of re-reading the artifact path —
  /// the rollback flow, requiring a daemon running with --store-dir.
  /// Throws grafics::Error when the daemon refuses (no model path, unknown
  /// name, unknown generation) or the reload failed.
  std::uint64_t Reload(const std::string& model = {},
                       std::uint64_t generation = 0);

  /// Admin: the registry's contents and its default model name.
  ListModelsResponse ListModels();

  /// Admin: per-model serving stats; `model` filters to one name (empty =
  /// all models).
  StatsResponse Stats(const std::string& model = {});

  /// Ingest: submits records for durable journaling and background
  /// fold-in to the named model (empty = default), returning one result per
  /// record in request order. Records are split into frames exactly like
  /// PredictBatch (by count and by encoded size). Rejected records are a
  /// per-record status, not an exception; transport failures throw.
  std::vector<SubmitResult> Submit(
      const std::vector<rf::SignalRecord>& records,
      const std::string& model = {},
      std::size_t max_records_per_frame = kMaxBatchRecords);

  /// Ingest admin: per-model ingest counters; `model` filters to one name
  /// (empty = all attached models). enabled == false means the daemon runs
  /// without an ingest pipeline.
  IngestStatsResponse IngestStats(const std::string& model = {});

  /// Persistence admin against the named model (empty = default):
  /// Checkpoint writes the serving snapshot into the daemon's store (a
  /// delta when the snapshot fold-descends from the previous generation),
  /// Compact folds the journal's committed prefix into a checkpoint and
  /// truncates the journal, ListArtifacts reports the model's base + delta
  /// chain. Failures are structured (ok == false / enabled == false), not
  /// exceptions; transport problems still throw.
  CheckpointResponse Checkpoint(const std::string& model = {});
  CompactResponse Compact(const std::string& model = {});
  ListArtifactsResponse ListArtifacts(const std::string& model = {});

  /// Telemetry: the daemon's metrics dump in Prometheus text exposition
  /// format — the same bytes GET /metrics on the admin port serves. Empty
  /// when the daemon runs without telemetry attached.
  std::string Metrics();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  Message RoundTrip(const Message& request);

  ClientConfig config_;
  int fd_ = -1;
};

}  // namespace grafics::serve
