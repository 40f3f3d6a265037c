#include "serve/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"

namespace grafics::serve {

namespace {

enum class MessageType : std::uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kPing = 3,
  kPong = 4,
  kReloadRequest = 5,
  kReloadResponse = 6,
  kListModelsRequest = 7,
  kListModelsResponse = 8,
  kStatsRequest = 9,
  kStatsResponse = 10,
  kSubmitRecordsRequest = 11,
  kSubmitRecordsResponse = 12,
  kIngestStatsRequest = 13,
  kIngestStatsResponse = 14,
  kCheckpointRequest = 15,
  kCheckpointResponse = 16,
  kCompactRequest = 17,
  kCompactResponse = 18,
  kListArtifactsRequest = 19,
  kListArtifactsResponse = 20,
  kMetricsRequest = 21,
  kMetricsResponse = 22,
};

MessageType TypeOf(const Message& message) {
  struct Visitor {
    MessageType operator()(const PredictRequest&) const {
      return MessageType::kPredictRequest;
    }
    MessageType operator()(const PredictResponse&) const {
      return MessageType::kPredictResponse;
    }
    MessageType operator()(const Ping&) const { return MessageType::kPing; }
    MessageType operator()(const Pong&) const { return MessageType::kPong; }
    MessageType operator()(const ReloadRequest&) const {
      return MessageType::kReloadRequest;
    }
    MessageType operator()(const ReloadResponse&) const {
      return MessageType::kReloadResponse;
    }
    MessageType operator()(const ListModelsRequest&) const {
      return MessageType::kListModelsRequest;
    }
    MessageType operator()(const ListModelsResponse&) const {
      return MessageType::kListModelsResponse;
    }
    MessageType operator()(const StatsRequest&) const {
      return MessageType::kStatsRequest;
    }
    MessageType operator()(const StatsResponse&) const {
      return MessageType::kStatsResponse;
    }
    MessageType operator()(const SubmitRecordsRequest&) const {
      return MessageType::kSubmitRecordsRequest;
    }
    MessageType operator()(const SubmitRecordsResponse&) const {
      return MessageType::kSubmitRecordsResponse;
    }
    MessageType operator()(const IngestStatsRequest&) const {
      return MessageType::kIngestStatsRequest;
    }
    MessageType operator()(const IngestStatsResponse&) const {
      return MessageType::kIngestStatsResponse;
    }
    MessageType operator()(const CheckpointRequest&) const {
      return MessageType::kCheckpointRequest;
    }
    MessageType operator()(const CheckpointResponse&) const {
      return MessageType::kCheckpointResponse;
    }
    MessageType operator()(const CompactRequest&) const {
      return MessageType::kCompactRequest;
    }
    MessageType operator()(const CompactResponse&) const {
      return MessageType::kCompactResponse;
    }
    MessageType operator()(const ListArtifactsRequest&) const {
      return MessageType::kListArtifactsRequest;
    }
    MessageType operator()(const ListArtifactsResponse&) const {
      return MessageType::kListArtifactsResponse;
    }
    MessageType operator()(const MetricsRequest&) const {
      return MessageType::kMetricsRequest;
    }
    MessageType operator()(const MetricsResponse&) const {
      return MessageType::kMetricsResponse;
    }
  };
  return std::visit(Visitor{}, message);
}

void WriteModelName(std::ostream& out, const std::string& name) {
  Require(name.size() <= kMaxModelNameBytes, "protocol: model name too long");
  WriteString(out, name);
}

/// Bounded by hand instead of serialize.h's ReadString so a hostile length
/// field is an Error before any allocation, per the framing contract.
std::string ReadBoundedString(std::istream& in, std::size_t max_bytes,
                              const char* what) {
  const std::uint64_t size = ReadU64(in);
  Require(size <= max_bytes, std::string("protocol: bad length for ") + what);
  std::string value(size, '\0');
  in.read(value.data(), static_cast<std::streamsize>(size));
  Require(in.good() || size == 0,
          std::string("protocol: truncated ") + what);
  return value;
}

std::string ReadModelName(std::istream& in) {
  return ReadBoundedString(in, kMaxModelNameBytes, "model name");
}

/// Free-form message fields (errors, reload messages): bounded by the frame
/// cap, which every enclosing payload already respects.
std::string ReadMessageString(std::istream& in) {
  return ReadBoundedString(in, kMaxFrameBytes, "string field");
}

void WriteBody(std::ostream& out, const Message& message) {
  struct Visitor {
    std::ostream& out;
    void operator()(const PredictRequest& m) const {
      WriteModelName(out, m.model);
      Require(!m.records.empty(), "protocol: empty predict batch");
      Require(m.records.size() <= kMaxBatchRecords,
              "protocol: oversized predict batch");
      WriteU32(out, static_cast<std::uint32_t>(m.records.size()));
      for (const rf::SignalRecord& record : m.records) {
        WriteSignalRecord(out, record);
      }
    }
    void operator()(const PredictResponse& m) const {
      Require(!m.results.empty(), "protocol: empty predict response");
      Require(m.results.size() <= kMaxBatchRecords,
              "protocol: oversized predict response");
      WriteU32(out, static_cast<std::uint32_t>(m.results.size()));
      for (const PredictResult& result : m.results) {
        WriteU8(out, static_cast<std::uint8_t>(result.status));
        WriteI32(out, result.floor);
        WriteString(out, result.error);
      }
    }
    void operator()(const Ping& m) const { WriteModelName(out, m.model); }
    void operator()(const Pong& m) const {
      WriteU32(out, m.protocol_version);
      WriteU8(out, m.ok ? 1 : 0);
      WriteU64(out, m.model_generation);
      WriteString(out, m.error);
    }
    void operator()(const ReloadRequest& m) const {
      WriteModelName(out, m.model);
      WriteU64(out, m.generation);
    }
    void operator()(const ReloadResponse& m) const {
      WriteU8(out, m.ok ? 1 : 0);
      WriteU64(out, m.model_generation);
      WriteString(out, m.message);
    }
    void operator()(const ListModelsRequest&) const {}
    void operator()(const ListModelsResponse& m) const {
      WriteModelName(out, m.default_model);
      Require(m.models.size() <= kMaxModels, "protocol: too many models");
      WriteU32(out, static_cast<std::uint32_t>(m.models.size()));
      for (const ModelInfo& info : m.models) {
        WriteModelName(out, info.name);
        WriteU64(out, info.generation);
        WriteU8(out, info.reloadable ? 1 : 0);
      }
    }
    void operator()(const StatsRequest& m) const {
      WriteModelName(out, m.model);
    }
    void operator()(const StatsResponse& m) const {
      WriteU64(out, m.connections_accepted);
      Require(m.models.size() <= kMaxModels, "protocol: too many models");
      WriteU32(out, static_cast<std::uint32_t>(m.models.size()));
      for (const ModelStats& stats : m.models) {
        WriteModelName(out, stats.name);
        WriteU64(out, stats.generation);
        WriteU64(out, stats.requests);
        WriteU64(out, stats.batches);
        WriteU64(out, stats.max_batch);
        WriteU64(out, stats.queue_depth);
        WriteU8(out, static_cast<std::uint8_t>(stats.last_publish_source));
        WriteU64(out, stats.pending_ingest);
        WriteU64(out, stats.shared_bytes);
        WriteU64(out, stats.owned_bytes);
      }
      WriteU64(out, m.transport.connections_live);
      WriteU64(out, m.transport.connections_harvested_idle);
      WriteU64(out, m.transport.frames_in);
      WriteU64(out, m.transport.frames_out);
      WriteU64(out, m.transport.bytes_in);
      WriteU64(out, m.transport.bytes_out);
      WriteU64(out, m.transport.requests_rejected_busy);
      WriteU64(out, m.transport.event_workers);
      WriteU8(out, m.store.enabled ? 1 : 0);
      WriteU64(out, m.store.base_count);
      WriteU64(out, m.store.delta_count);
      WriteU64(out, m.store.journal_bytes_reclaimed);
    }
    void operator()(const SubmitRecordsRequest& m) const {
      WriteModelName(out, m.model);
      Require(!m.records.empty(), "protocol: empty submit batch");
      Require(m.records.size() <= kMaxBatchRecords,
              "protocol: oversized submit batch");
      WriteU32(out, static_cast<std::uint32_t>(m.records.size()));
      for (const rf::SignalRecord& record : m.records) {
        WriteSignalRecord(out, record);
      }
    }
    void operator()(const SubmitRecordsResponse& m) const {
      Require(!m.results.empty(), "protocol: empty submit response");
      Require(m.results.size() <= kMaxBatchRecords,
              "protocol: oversized submit response");
      WriteU32(out, static_cast<std::uint32_t>(m.results.size()));
      for (const SubmitResult& result : m.results) {
        WriteU8(out, static_cast<std::uint8_t>(result.status));
        WriteString(out, result.error);
      }
    }
    void operator()(const IngestStatsRequest& m) const {
      WriteModelName(out, m.model);
    }
    void operator()(const IngestStatsResponse& m) const {
      WriteU8(out, m.enabled ? 1 : 0);
      Require(m.models.size() <= kMaxModels, "protocol: too many models");
      WriteU32(out, static_cast<std::uint32_t>(m.models.size()));
      for (const IngestModelStats& stats : m.models) {
        WriteModelName(out, stats.name);
        WriteU64(out, stats.accepted);
        WriteU64(out, stats.rejected);
        WriteU64(out, stats.pending);
        WriteU64(out, stats.folded);
        WriteU64(out, stats.replayed);
        WriteU64(out, stats.journal_bytes);
        WriteU64(out, stats.publishes);
        WriteU64(out, stats.last_publish_generation);
        WriteU64(out, stats.fold_min_us);
        WriteU64(out, stats.fold_mean_us);
        WriteU64(out, stats.fold_max_us);
        WriteU64(out, stats.last_fold_us);
        WriteU64(out, stats.journal_dropped_bytes);
        WriteU64(out, stats.replayed_batches);
      }
    }
    void operator()(const CheckpointRequest& m) const {
      WriteModelName(out, m.model);
    }
    void operator()(const CheckpointResponse& m) const {
      WriteU8(out, m.ok ? 1 : 0);
      WriteU64(out, m.generation);
      WriteU8(out, m.delta ? 1 : 0);
      WriteU64(out, m.bytes_written);
      WriteString(out, m.message);
    }
    void operator()(const CompactRequest& m) const {
      WriteModelName(out, m.model);
    }
    void operator()(const CompactResponse& m) const {
      WriteU8(out, m.ok ? 1 : 0);
      WriteU64(out, m.generation);
      WriteU64(out, m.journal_bytes_reclaimed);
      WriteString(out, m.message);
    }
    void operator()(const ListArtifactsRequest& m) const {
      WriteModelName(out, m.model);
    }
    void operator()(const ListArtifactsResponse& m) const {
      WriteU8(out, m.enabled ? 1 : 0);
      Require(m.artifacts.size() <= kMaxArtifacts,
              "protocol: too many artifacts");
      WriteU32(out, static_cast<std::uint32_t>(m.artifacts.size()));
      for (const ArtifactEntry& entry : m.artifacts) {
        WriteU64(out, entry.generation);
        WriteU8(out, entry.delta ? 1 : 0);
        Require(entry.file.size() <= kMaxArtifactFileBytes,
                "protocol: artifact file name too long");
        WriteString(out, entry.file);
        WriteU64(out, entry.bytes);
      }
    }
    void operator()(const MetricsRequest&) const {}
    void operator()(const MetricsResponse& m) const {
      // Leave headroom for the frame header + type byte so the whole
      // encoded payload stays under kMaxFrameBytes.
      Require(m.text.size() <= kMaxFrameBytes - 64,
              "protocol: oversized metrics dump");
      WriteString(out, m.text);
    }
  };
  std::visit(Visitor{out}, message);
}

Message ReadBody(std::istream& in, MessageType type) {
  switch (type) {
    case MessageType::kPredictRequest: {
      PredictRequest m;
      m.model = ReadModelName(in);
      const std::uint32_t count = ReadU32(in);
      Require(count >= 1, "protocol: empty predict batch");
      Require(count <= kMaxBatchRecords, "protocol: oversized predict batch");
      m.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.records.push_back(ReadSignalRecord(in));
      }
      return m;
    }
    case MessageType::kPredictResponse: {
      PredictResponse m;
      const std::uint32_t count = ReadU32(in);
      Require(count >= 1, "protocol: empty predict response");
      Require(count <= kMaxBatchRecords, "protocol: oversized predict response");
      m.results.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        PredictResult result;
        const std::uint8_t status = ReadU8(in);
        Require(status <= static_cast<std::uint8_t>(PredictStatus::kError),
                "protocol: bad predict status");
        result.status = static_cast<PredictStatus>(status);
        result.floor = ReadI32(in);
        result.error = ReadMessageString(in);
        m.results.push_back(std::move(result));
      }
      return m;
    }
    case MessageType::kPing: {
      Ping m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kPong: {
      Pong m;
      m.protocol_version = ReadU32(in);
      m.ok = ReadU8(in) != 0;
      m.model_generation = ReadU64(in);
      m.error = ReadMessageString(in);
      return m;
    }
    case MessageType::kReloadRequest: {
      ReloadRequest m;
      m.model = ReadModelName(in);
      m.generation = ReadU64(in);
      return m;
    }
    case MessageType::kReloadResponse: {
      ReloadResponse m;
      m.ok = ReadU8(in) != 0;
      m.model_generation = ReadU64(in);
      m.message = ReadMessageString(in);
      return m;
    }
    case MessageType::kListModelsRequest:
      return ListModelsRequest{};
    case MessageType::kListModelsResponse: {
      ListModelsResponse m;
      m.default_model = ReadModelName(in);
      const std::uint32_t count = ReadU32(in);
      Require(count <= kMaxModels, "protocol: too many models");
      m.models.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ModelInfo info;
        info.name = ReadModelName(in);
        info.generation = ReadU64(in);
        info.reloadable = ReadU8(in) != 0;
        m.models.push_back(std::move(info));
      }
      return m;
    }
    case MessageType::kStatsRequest: {
      StatsRequest m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kStatsResponse: {
      StatsResponse m;
      m.connections_accepted = ReadU64(in);
      const std::uint32_t count = ReadU32(in);
      Require(count <= kMaxModels, "protocol: too many models");
      m.models.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ModelStats stats;
        stats.name = ReadModelName(in);
        stats.generation = ReadU64(in);
        stats.requests = ReadU64(in);
        stats.batches = ReadU64(in);
        stats.max_batch = ReadU64(in);
        stats.queue_depth = ReadU64(in);
        const std::uint8_t source = ReadU8(in);
        Require(source <= static_cast<std::uint8_t>(PublishSource::kIngest),
                "protocol: bad publish source");
        stats.last_publish_source = static_cast<PublishSource>(source);
        stats.pending_ingest = ReadU64(in);
        stats.shared_bytes = ReadU64(in);
        stats.owned_bytes = ReadU64(in);
        m.models.push_back(std::move(stats));
      }
      m.transport.connections_live = ReadU64(in);
      m.transport.connections_harvested_idle = ReadU64(in);
      m.transport.frames_in = ReadU64(in);
      m.transport.frames_out = ReadU64(in);
      m.transport.bytes_in = ReadU64(in);
      m.transport.bytes_out = ReadU64(in);
      m.transport.requests_rejected_busy = ReadU64(in);
      m.transport.event_workers = ReadU64(in);
      m.store.enabled = ReadU8(in) != 0;
      m.store.base_count = ReadU64(in);
      m.store.delta_count = ReadU64(in);
      m.store.journal_bytes_reclaimed = ReadU64(in);
      return m;
    }
    case MessageType::kSubmitRecordsRequest: {
      SubmitRecordsRequest m;
      m.model = ReadModelName(in);
      const std::uint32_t count = ReadU32(in);
      Require(count >= 1, "protocol: empty submit batch");
      Require(count <= kMaxBatchRecords, "protocol: oversized submit batch");
      m.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.records.push_back(ReadSignalRecord(in));
      }
      return m;
    }
    case MessageType::kSubmitRecordsResponse: {
      SubmitRecordsResponse m;
      const std::uint32_t count = ReadU32(in);
      Require(count >= 1, "protocol: empty submit response");
      Require(count <= kMaxBatchRecords,
              "protocol: oversized submit response");
      m.results.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        SubmitResult result;
        const std::uint8_t status = ReadU8(in);
        Require(status <= static_cast<std::uint8_t>(SubmitStatus::kRejected),
                "protocol: bad submit status");
        result.status = static_cast<SubmitStatus>(status);
        result.error = ReadMessageString(in);
        m.results.push_back(std::move(result));
      }
      return m;
    }
    case MessageType::kIngestStatsRequest: {
      IngestStatsRequest m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kIngestStatsResponse: {
      IngestStatsResponse m;
      m.enabled = ReadU8(in) != 0;
      const std::uint32_t count = ReadU32(in);
      Require(count <= kMaxModels, "protocol: too many models");
      m.models.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        IngestModelStats stats;
        stats.name = ReadModelName(in);
        stats.accepted = ReadU64(in);
        stats.rejected = ReadU64(in);
        stats.pending = ReadU64(in);
        stats.folded = ReadU64(in);
        stats.replayed = ReadU64(in);
        stats.journal_bytes = ReadU64(in);
        stats.publishes = ReadU64(in);
        stats.last_publish_generation = ReadU64(in);
        stats.fold_min_us = ReadU64(in);
        stats.fold_mean_us = ReadU64(in);
        stats.fold_max_us = ReadU64(in);
        stats.last_fold_us = ReadU64(in);
        stats.journal_dropped_bytes = ReadU64(in);
        stats.replayed_batches = ReadU64(in);
        m.models.push_back(std::move(stats));
      }
      return m;
    }
    case MessageType::kCheckpointRequest: {
      CheckpointRequest m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kCheckpointResponse: {
      CheckpointResponse m;
      m.ok = ReadU8(in) != 0;
      m.generation = ReadU64(in);
      m.delta = ReadU8(in) != 0;
      m.bytes_written = ReadU64(in);
      m.message = ReadMessageString(in);
      return m;
    }
    case MessageType::kCompactRequest: {
      CompactRequest m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kCompactResponse: {
      CompactResponse m;
      m.ok = ReadU8(in) != 0;
      m.generation = ReadU64(in);
      m.journal_bytes_reclaimed = ReadU64(in);
      m.message = ReadMessageString(in);
      return m;
    }
    case MessageType::kListArtifactsRequest: {
      ListArtifactsRequest m;
      m.model = ReadModelName(in);
      return m;
    }
    case MessageType::kListArtifactsResponse: {
      ListArtifactsResponse m;
      m.enabled = ReadU8(in) != 0;
      const std::uint32_t count = ReadU32(in);
      Require(count <= kMaxArtifacts, "protocol: too many artifacts");
      m.artifacts.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ArtifactEntry entry;
        entry.generation = ReadU64(in);
        entry.delta = ReadU8(in) != 0;
        entry.file =
            ReadBoundedString(in, kMaxArtifactFileBytes, "artifact file");
        entry.bytes = ReadU64(in);
        m.artifacts.push_back(std::move(entry));
      }
      return m;
    }
    case MessageType::kMetricsRequest:
      return MetricsRequest{};
    case MessageType::kMetricsResponse: {
      MetricsResponse m;
      m.text = ReadMessageString(in);
      return m;
    }
  }
  throw Error("protocol: unknown message type " +
              std::to_string(static_cast<unsigned>(type)));
}

/// recv() until exactly `size` bytes arrive. Returns false when the peer
/// closed before the first byte; throws on mid-buffer EOF or socket errors.
bool ReceiveExactly(int fd, char* data, std::size_t size) {
  std::size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n == 0) {
      if (received == 0) return false;
      throw Error("protocol: truncated frame (peer closed mid-frame)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("protocol: read failed: ") +
                  std::strerror(errno));
    }
    received += static_cast<std::size_t>(n);
  }
  return true;
}

void SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("protocol: write failed: ") +
                  std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

void WriteSignalRecord(std::ostream& out, const rf::SignalRecord& record) {
  WriteU64(out, record.size());
  for (const rf::Observation& o : record.observations()) {
    WriteU64(out, o.mac.bits());
    WriteDouble(out, o.rssi_dbm);
  }
  WriteOptionalI32(out, record.floor());
}

std::size_t SignalRecordWireBytes(const rf::SignalRecord& record) {
  // u64 count, (u64 MAC, f64 RSS) per observation, u8+i32 constant-width
  // optional floor — mirror WriteSignalRecord above, field for field.
  return 8 + record.size() * 16 + 5;
}

rf::SignalRecord ReadSignalRecord(std::istream& in) {
  const std::uint64_t count = ReadU64(in);
  Require(count <= kMaxObservations,
          "protocol: unreasonable observation count");
  std::vector<rf::Observation> observations;
  observations.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    // MacAddress validates the 48-bit range and the SignalRecord constructor
    // rejects duplicate MACs, so malformed bodies throw instead of building
    // an inconsistent record.
    const rf::MacAddress mac(ReadU64(in));
    observations.push_back({mac, ReadDouble(in)});
  }
  const std::optional<std::int32_t> floor = ReadOptionalI32(in);
  return rf::SignalRecord(std::move(observations), floor);
}

std::string EncodePayload(const Message& message) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, static_cast<std::uint8_t>(TypeOf(message)));
  WriteBody(out, message);
  return std::move(out).str();
}

Message DecodePayload(const std::string& payload) {
  std::istringstream in(payload);
  const std::uint32_t version = ReadHeader(in, kFrameMagic);
  Require(version == kProtocolVersion,
          "protocol: unsupported version " + std::to_string(version));
  const auto type = static_cast<MessageType>(ReadU8(in));
  Message message = ReadBody(in, type);
  Require(in.peek() == std::istream::traits_type::eof(),
          "protocol: trailing bytes after message");
  return message;
}

std::string EncodeFrame(const Message& message) {
  const std::string payload = EncodePayload(message);
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame(sizeof(length) + payload.size(), '\0');
  std::memcpy(frame.data(), &length, sizeof(length));
  std::memcpy(frame.data() + sizeof(length), payload.data(), payload.size());
  return frame;
}

void SendFrame(int fd, const Message& message) {
  const std::string frame = EncodeFrame(message);
  SendAll(fd, frame.data(), frame.size());
}

std::optional<std::string> ReceiveFramePayload(int fd,
                                               std::size_t max_bytes) {
  std::uint32_t length = 0;  // little-endian on the wire == host order
  if (!ReceiveExactly(fd, reinterpret_cast<char*>(&length), sizeof(length))) {
    return std::nullopt;
  }
  Require(length <= max_bytes, "protocol: oversized frame");
  std::string payload(length, '\0');
  if (!ReceiveExactly(fd, payload.data(), payload.size())) {
    throw Error("protocol: truncated frame (peer closed mid-frame)");
  }
  return payload;
}

std::optional<Message> ReceiveFrame(int fd, std::size_t max_bytes) {
  const std::optional<std::string> payload =
      ReceiveFramePayload(fd, max_bytes);
  if (!payload.has_value()) return std::nullopt;
  return DecodePayload(*payload);
}

}  // namespace grafics::serve
