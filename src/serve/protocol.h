// Wire protocol of the GRAFICS serving daemon (version 7).
//
// Every message travels as one length-prefixed frame on a TCP stream:
//
//   u32 payload_length            (little-endian, excludes the prefix itself)
//   payload:
//     "GSRV" magic + u32 version  (common/serialize.h WriteHeader)
//     u8 message type
//     type-specific body          (common/serialize.h primitives)
//
// Version 7 is the only dialect this build encodes, decodes and serves. It
// carries multi-building serving (requests name a model; empty = the
// daemon's default), batched predicts with per-record statuses, the admin
// surface (ListModels, Stats), online ingestion (SubmitRecords,
// IngestStats), the persistence surface (Checkpoint, Compact,
// ListArtifacts, generation-pinned Reload) and the telemetry dump
// (Metrics). A frame whose header names any other version is malformed.
//
// Malformed input — bad magic, unsupported version, unknown type, truncated
// or oversized frames, out-of-range names or batch sizes, trailing bytes —
// is rejected by throwing grafics::Error, never by crashing; servers drop
// the connection, clients surface the error. docs/protocol.md specifies the
// format field by field.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "rf/signal_record.h"

namespace grafics::serve {

inline constexpr char kFrameMagic[4] = {'G', 'S', 'R', 'V'};
/// The one protocol version this build speaks; frames naming any other
/// version are rejected as malformed.
inline constexpr std::uint32_t kProtocolVersion = 7;
/// Upper bound on a frame payload; declared lengths beyond this are rejected
/// before any allocation happens.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;
/// Upper bound on observations per record (a dense scan sees ~1e3 APs).
inline constexpr std::size_t kMaxObservations = 1 << 16;
/// Upper bound on a model name on the wire and in the registry.
inline constexpr std::size_t kMaxModelNameBytes = 128;
/// Upper bound on records per PredictRequest (and results per response);
/// clients split bigger workloads across frames.
inline constexpr std::size_t kMaxBatchRecords = 1024;
/// Upper bound on models per ListModels/Stats response.
inline constexpr std::size_t kMaxModels = 4096;
/// Upper bound on artifacts per ListArtifacts response.
inline constexpr std::size_t kMaxArtifacts = 65536;
/// Upper bound on an artifact file name/path on the wire.
inline constexpr std::size_t kMaxArtifactFileBytes = 4096;
/// Default daemon port when none is given on the command line.
inline constexpr std::uint16_t kDefaultPort = 4817;

/// Floor query: a batch of crowdsourced scans to classify against one named
/// model (empty = the daemon's default).
struct PredictRequest {
  std::string model;
  std::vector<rf::SignalRecord> records;

  bool operator==(const PredictRequest&) const = default;
};

enum class PredictStatus : std::uint8_t {
  kOk = 0,         // floor carries the prediction
  kDiscarded = 1,  // no MAC overlap with the model (outside the building)
  kError = 2,      // error carries the server-side message
};

/// One record's answer; errors (unknown model, untrained snapshot) are
/// per-record statuses, never dropped connections.
struct PredictResult {
  PredictStatus status = PredictStatus::kError;
  rf::FloorId floor = 0;
  std::string error;

  bool operator==(const PredictResult&) const = default;
};

/// One result per requested record, in request order.
struct PredictResponse {
  std::vector<PredictResult> results;

  bool operator==(const PredictResponse&) const = default;
};

/// Health check for one named model (empty = default); the reply carries the
/// daemon's protocol version and the model generation so clients can
/// observe hot reloads.
struct Ping {
  std::string model;

  bool operator==(const Ping&) const = default;
};

struct Pong {
  /// Protocol version the daemon speaks (always kProtocolVersion).
  std::uint32_t protocol_version = kProtocolVersion;
  /// False when the pinged model name is unknown; error says so.
  bool ok = true;
  std::uint64_t model_generation = 0;
  std::string error;

  bool operator==(const Pong&) const = default;
};

/// Admin-triggered hot-reload of one named model (empty = default) from its
/// on-disk artifact (the network sibling of SIGHUP). In-flight batches
/// finish on the old snapshot; other models are untouched.
struct ReloadRequest {
  std::string model;
  /// 0 reloads from the recorded artifact (or the store's latest
  /// generation when the daemon runs with --store-dir); a non-zero value
  /// pins the reload to that store generation — the rollback primitive.
  std::uint64_t generation = 0;

  bool operator==(const ReloadRequest&) const = default;
};

struct ReloadResponse {
  bool ok = false;
  std::uint64_t model_generation = 0;
  std::string message;

  bool operator==(const ReloadResponse&) const = default;
};

/// Admin: enumerate the registry.
struct ModelInfo {
  std::string name;
  std::uint64_t generation = 0;
  /// True when the model has an on-disk artifact for ReloadRequest/SIGHUP.
  bool reloadable = false;

  bool operator==(const ModelInfo&) const = default;
};

struct ListModelsRequest {
  bool operator==(const ListModelsRequest&) const = default;
};

struct ListModelsResponse {
  std::string default_model;
  std::vector<ModelInfo> models;

  bool operator==(const ListModelsResponse&) const = default;
};

/// How a model's current snapshot got published (ModelStats).
enum class PublishSource : std::uint8_t {
  kDisk = 0,    // Load/LoadFromDisk/ReloadFromDisk (artifact or in-process)
  kIngest = 1,  // background fold-in publish by the ingest pipeline
};

/// Admin: per-model serving counters (empty model = all models).
struct ModelStats {
  std::string name;
  /// Snapshot counter of the current load.
  std::uint64_t generation = 0;
  /// Records admitted and predict tasks run since the name was first
  /// loaded (an unload does not reset them).
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  /// Records in the largest task of the current load.
  std::uint64_t max_batch = 0;
  /// Records enqueued but not yet dispatched at the time of the request.
  std::uint64_t queue_depth = 0;
  /// What published the snapshot now serving (disk load vs ingest fold-in).
  PublishSource last_publish_source = PublishSource::kDisk;
  /// Submitted records accepted but not yet folded into the model.
  std::uint64_t pending_ingest = 0;
  /// Copy-on-write accounting of the serving snapshot's heap —
  /// bytes whose chunks are shared with other snapshots (forks being
  /// folded, in-flight readers of an old generation) vs bytes owned
  /// exclusively. A publish that doubled resident memory would show up
  /// here as owned ~= model size on both generations; structural sharing
  /// shows up as shared.
  std::uint64_t shared_bytes = 0;
  std::uint64_t owned_bytes = 0;

  bool operator==(const ModelStats&) const = default;
};

struct StatsRequest {
  std::string model;

  bool operator==(const StatsRequest&) const = default;
};

/// Server-level counters of the event-driven transport, one block
/// per StatsResponse (they are per-daemon, not per-model). All counters are
/// cumulative since the daemon started except connections_live and
/// event_workers, which are instantaneous.
struct TransportStats {
  /// Connections currently registered with the event loop.
  std::uint64_t connections_live = 0;
  /// Idle connections closed by the harvester (no in-flight requests, no
  /// unflushed output, quiet past the idle timeout — including slow-loris
  /// partial frames).
  std::uint64_t connections_harvested_idle = 0;
  /// Well-formed frames decoded from / encoded to the wire.
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Raw TCP payload bytes moved, including frame length prefixes.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Requests refused by admission control (per-connection in-flight cap or
  /// per-model queue-depth bound) with a structured busy error.
  std::uint64_t requests_rejected_busy = 0;
  /// Epoll worker threads serving connections.
  std::uint64_t event_workers = 0;

  bool operator==(const TransportStats&) const = default;
};

/// Daemon-level persistence counters, one block per StatsResponse.
struct StoreStats {
  /// False when the daemon runs without --store-dir; the counts are then 0.
  bool enabled = false;
  /// Full-snapshot and delta-checkpoint artifacts across every model chain.
  std::uint64_t base_count = 0;
  std::uint64_t delta_count = 0;
  /// Journal bytes reclaimed by compaction since the daemon started.
  std::uint64_t journal_bytes_reclaimed = 0;

  bool operator==(const StoreStats&) const = default;
};

struct StatsResponse {
  std::uint64_t connections_accepted = 0;
  std::vector<ModelStats> models;
  TransportStats transport;
  StoreStats store;

  bool operator==(const StatsResponse&) const = default;
};

/// Submit a batch of crowdsourced records for background fold-in to
/// the named model (empty = default). Records may carry floor labels; the
/// labels ride along into the journal but Update ignores them (relabeling
/// requires retraining). Batch size is bounded exactly like PredictRequest.
struct SubmitRecordsRequest {
  std::string model;
  std::vector<rf::SignalRecord> records;

  bool operator==(const SubmitRecordsRequest&) const = default;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted = 0,  // journaled durably; will be folded in the background
  kRejected = 1,  // error says why (empty record, backpressure, bad model)
};

/// One submitted record's fate; rejection is a per-record status, never a
/// dropped connection.
struct SubmitResult {
  SubmitStatus status = SubmitStatus::kRejected;
  std::string error;

  bool operator==(const SubmitResult&) const = default;
};

/// One result per submitted record, in request order.
struct SubmitRecordsResponse {
  std::vector<SubmitResult> results;

  bool operator==(const SubmitRecordsResponse&) const = default;
};

/// Admin: per-model ingest pipeline counters.
struct IngestModelStats {
  std::string name;
  /// Records accepted (journaled + queued) since the name was first loaded.
  std::uint64_t accepted = 0;
  /// Records rejected at submission (validation or backpressure) since the
  /// name was first loaded.
  std::uint64_t rejected = 0;
  /// Accepted records not yet folded into the served model.
  std::uint64_t pending = 0;
  /// Records folded into published snapshots since the name was first
  /// loaded.
  std::uint64_t folded = 0;
  /// Records replayed from the journal at startup.
  std::uint64_t replayed = 0;
  /// Current journal size in bytes (0 when journaling is disabled).
  std::uint64_t journal_bytes = 0;
  /// Snapshot publishes performed by the pipeline (including the replay)
  /// since the name was first loaded.
  std::uint64_t publishes = 0;
  /// Registry generation of the pipeline's most recent publish (0 = none).
  std::uint64_t last_publish_generation = 0;
  /// Per-fold latency (fork + Update + publish), microseconds; all zero
  /// before the first fold. The mean covers every fold since the name was
  /// first loaded, min and max those of the running pipeline.
  std::uint64_t fold_min_us = 0;
  std::uint64_t fold_mean_us = 0;
  std::uint64_t fold_max_us = 0;
  /// Latency of the most recent fold.
  std::uint64_t last_fold_us = 0;
  /// Torn-tail bytes the journal open scan discarded at startup
  /// (0 = the journal was clean).
  std::uint64_t journal_dropped_bytes = 0;
  /// Committed fold batches re-applied from the journal at startup
  /// (after a compaction, the replay is the pending suffix only — this is
  /// what "restart without full-journal replay" looks like in numbers).
  std::uint64_t replayed_batches = 0;

  bool operator==(const IngestModelStats&) const = default;
};

struct IngestStatsRequest {
  std::string model;

  bool operator==(const IngestStatsRequest&) const = default;
};

struct IngestStatsResponse {
  /// False when the daemon runs without an ingest pipeline; models is empty.
  bool enabled = false;
  std::vector<IngestModelStats> models;

  bool operator==(const IngestStatsResponse&) const = default;
};

/// Admin: persist the named model's served snapshot (empty =
/// default) as the next store generation — a delta checkpoint of the owned
/// copy-on-write chunks when the snapshot descends from the previous
/// generation, a full base otherwise.
struct CheckpointRequest {
  std::string model;

  bool operator==(const CheckpointRequest&) const = default;
};

struct CheckpointResponse {
  bool ok = false;
  /// Store generation written (0 on failure).
  std::uint64_t generation = 0;
  /// True when the artifact is a delta checkpoint, false for a full base.
  bool delta = false;
  std::uint64_t bytes_written = 0;
  std::string message;

  bool operator==(const CheckpointResponse&) const = default;
};

/// Admin: fold the named model's journal prefix into a fresh store
/// generation, publish it, and truncate the journal to the still-pending
/// suffix. Requires a daemon running with both --store-dir and journaling.
struct CompactRequest {
  std::string model;

  bool operator==(const CompactRequest&) const = default;
};

struct CompactResponse {
  bool ok = false;
  /// Store generation the compaction committed (0 on failure).
  std::uint64_t generation = 0;
  /// Journal bytes the truncation reclaimed.
  std::uint64_t journal_bytes_reclaimed = 0;
  std::string message;

  bool operator==(const CompactResponse&) const = default;
};

/// One artifact of a model's store chain (ListArtifactsResponse).
struct ArtifactEntry {
  std::uint64_t generation = 0;
  bool delta = false;
  std::string file;
  std::uint64_t bytes = 0;

  bool operator==(const ArtifactEntry&) const = default;
};

/// Admin: enumerate the named model's artifact chain (empty =
/// default), oldest generation first.
struct ListArtifactsRequest {
  std::string model;

  bool operator==(const ListArtifactsRequest&) const = default;
};

struct ListArtifactsResponse {
  /// False when the daemon runs without --store-dir; artifacts is empty.
  bool enabled = false;
  std::vector<ArtifactEntry> artifacts;

  bool operator==(const ListArtifactsResponse&) const = default;
};

/// Admin: dump the daemon's whole telemetry registry. The response
/// body is the Prometheus text exposition render — identical to what the
/// HTTP admin port's GET /metrics serves — so binary-protocol clients
/// (grafics remote-metrics) need no second connection or HTTP stack.
struct MetricsRequest {
  bool operator==(const MetricsRequest&) const = default;
};

struct MetricsResponse {
  /// Prometheus text exposition format, bounded by kMaxFrameBytes like any
  /// other frame.
  std::string text;

  bool operator==(const MetricsResponse&) const = default;
};

using Message =
    std::variant<PredictRequest, PredictResponse, Ping, Pong, ReloadRequest,
                 ReloadResponse, ListModelsRequest, ListModelsResponse,
                 StatsRequest, StatsResponse, SubmitRecordsRequest,
                 SubmitRecordsResponse, IngestStatsRequest,
                 IngestStatsResponse, CheckpointRequest, CheckpointResponse,
                 CompactRequest, CompactResponse, ListArtifactsRequest,
                 ListArtifactsResponse, MetricsRequest, MetricsResponse>;

/// Wire encoding of one record: u64 observation count, then (u64 MAC bits,
/// f64 RSS dBm) per observation, then the optional floor label. Reading
/// validates MAC range, observation count, and MAC uniqueness.
void WriteSignalRecord(std::ostream& out, const rf::SignalRecord& record);
rf::SignalRecord ReadSignalRecord(std::istream& in);
/// Exact encoded size of WriteSignalRecord's output, kept next to the
/// encoder so they cannot drift apart; clients use it to split batches
/// under kMaxFrameBytes.
std::size_t SignalRecordWireBytes(const rf::SignalRecord& record);

/// Frame payload (header + type + body), without the u32 length prefix.
/// Throws grafics::Error for content the format cannot carry (oversized
/// batches or names, empty batches).
std::string EncodePayload(const Message& message);
/// Inverse of EncodePayload. Throws grafics::Error on malformed input,
/// including any header version other than kProtocolVersion and trailing
/// bytes after a well-formed message.
Message DecodePayload(const std::string& payload);
/// Full frame: u32 length prefix followed by the payload.
std::string EncodeFrame(const Message& message);

/// Writes one frame to a connected socket. Throws grafics::Error when the
/// peer is gone (writes never raise SIGPIPE).
void SendFrame(int fd, const Message& message);
/// Reads one frame payload from a connected socket. Returns nullopt when the
/// peer closed cleanly before the first byte of a frame; throws
/// grafics::Error on truncated frames or declared lengths above max_bytes.
std::optional<std::string> ReceiveFramePayload(
    int fd, std::size_t max_bytes = kMaxFrameBytes);
/// ReceiveFramePayload + DecodePayload.
std::optional<Message> ReceiveFrame(int fd,
                                    std::size_t max_bytes = kMaxFrameBytes);

}  // namespace grafics::serve
