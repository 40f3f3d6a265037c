// Tests for the serving wire protocol (v7, the only dialect): round-trips
// and frozen bytes for every message type, and rejection (grafics::Error,
// never a crash) of other versions and of truncated, garbage, oversized,
// bad-name, zero-batch, and trailing-byte frames — including over a real
// socket pair.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/serialize.h"
#include "ingest/record_journal.h"
#include "serve/protocol.h"

namespace grafics::serve {
namespace {

rf::SignalRecord MakeRecord(std::optional<rf::FloorId> floor = std::nullopt) {
  rf::SignalRecord record;
  record.Add(rf::MacAddress(0xAABBCCDDEEFF), -48.5);
  record.Add(rf::MacAddress(0x112233445566), -73.25);
  record.set_floor(floor);
  return record;
}

TEST(SignalRecordWireTest, RoundTripsLabeledUnlabeledAndEmpty) {
  for (const rf::SignalRecord& record :
       {MakeRecord(), MakeRecord(4), MakeRecord(-2), rf::SignalRecord()}) {
    std::stringstream stream;
    WriteSignalRecord(stream, record);
    EXPECT_EQ(ReadSignalRecord(stream), record);
  }
}

TEST(SignalRecordWireTest, RejectsOutOfRangeMacBits) {
  std::stringstream stream;
  WriteU64(stream, 1);                     // one observation
  WriteU64(stream, 0x1FFFFFFFFFFFFFULL);   // 53 bits: not a MAC
  WriteDouble(stream, -50.0);
  WriteOptionalI32(stream, std::nullopt);
  EXPECT_THROW(ReadSignalRecord(stream), Error);
}

TEST(SignalRecordWireTest, RejectsDuplicateMacs) {
  std::stringstream stream;
  WriteU64(stream, 2);
  for (int i = 0; i < 2; ++i) {
    WriteU64(stream, 0xAABBCCDDEEFF);
    WriteDouble(stream, -50.0);
  }
  WriteOptionalI32(stream, std::nullopt);
  EXPECT_THROW(ReadSignalRecord(stream), Error);
}

TEST(SignalRecordWireTest, RejectsUnreasonableObservationCount) {
  std::stringstream stream;
  WriteU64(stream, kMaxObservations + 1);
  EXPECT_THROW(ReadSignalRecord(stream), Error);
}

std::vector<Message> AllMessageTypes() {
  PredictRequest named_batch;
  named_batch.model = "mall";
  named_batch.records = {MakeRecord(7), MakeRecord(), rf::SignalRecord()};
  PredictResponse mixed;
  mixed.results.push_back({PredictStatus::kOk, -3, ""});
  mixed.results.push_back({PredictStatus::kDiscarded, 0, ""});
  mixed.results.push_back({PredictStatus::kError, 0, "model not trained"});
  Pong pong;
  pong.protocol_version = 2;
  pong.ok = true;
  pong.model_generation = 42;
  Pong failed_pong;
  failed_pong.protocol_version = 2;
  failed_pong.ok = false;
  failed_pong.error = "unknown model 'x'";
  ReloadResponse reloaded;
  reloaded.ok = true;
  reloaded.model_generation = 3;
  reloaded.message = "model reloaded";
  ListModelsResponse listing;
  listing.default_model = "campus";
  listing.models = {{"campus", 2, true}, {"mall", 1, false}};
  StatsResponse stats;
  stats.connections_accepted = 17;
  stats.models = {{"campus", 2, 100, 9, 32, 3, PublishSource::kIngest, 12,
                   /*shared_bytes=*/777216, /*owned_bytes=*/4096},
                  {"mall", 1, 5, 5, 1, 0, PublishSource::kDisk, 0, 0, 99}};
  stats.transport = {/*connections_live=*/7, /*connections_harvested_idle=*/1,
                     /*frames_in=*/400,      /*frames_out=*/398,
                     /*bytes_in=*/65536,     /*bytes_out=*/32768,
                     /*requests_rejected_busy=*/2, /*event_workers=*/2};
  SubmitRecordsRequest submit;
  submit.model = "campus";
  submit.records = {MakeRecord(3), MakeRecord()};
  SubmitRecordsResponse submitted;
  submitted.results.push_back({SubmitStatus::kAccepted, ""});
  submitted.results.push_back({SubmitStatus::kRejected, "empty record"});
  IngestStatsResponse ingest_stats;
  ingest_stats.enabled = true;
  ingest_stats.models = {{"campus", 90, 2, 5, 80, 40, 12345, 3, 7,
                          /*fold_min_us=*/150, /*fold_mean_us=*/420,
                          /*fold_max_us=*/1800, /*last_fold_us=*/300,
                          /*journal_dropped_bytes=*/17,
                          /*replayed_batches=*/4}};
  ReloadRequest pinned_reload;
  pinned_reload.model = "mall";
  pinned_reload.generation = 6;
  CheckpointResponse checkpointed;
  checkpointed.ok = true;
  checkpointed.generation = 4;
  checkpointed.delta = true;
  checkpointed.bytes_written = 12345;
  checkpointed.message = "delta checkpoint written";
  CompactResponse compacted;
  compacted.ok = true;
  compacted.generation = 5;
  compacted.journal_bytes_reclaimed = 7777;
  compacted.message = "journal compacted";
  ListArtifactsResponse artifacts;
  artifacts.enabled = true;
  artifacts.artifacts = {{1, false, "campus.g1.base", 100000},
                         {2, true, "campus.g2.delta", 2048}};
  std::vector<Message> messages;
  messages.push_back(named_batch);
  messages.push_back(PredictRequest{"", {MakeRecord(7)}});
  messages.push_back(mixed);
  messages.push_back(Ping{});
  messages.push_back(Ping{"mall"});
  messages.push_back(pong);
  messages.push_back(failed_pong);
  messages.push_back(ReloadRequest{});
  messages.push_back(ReloadRequest{"mall"});
  messages.push_back(reloaded);
  messages.push_back(ListModelsRequest{});
  messages.push_back(listing);
  messages.push_back(StatsRequest{});
  messages.push_back(StatsRequest{"campus"});
  messages.push_back(stats);
  messages.push_back(submit);
  messages.push_back(submitted);
  messages.push_back(IngestStatsRequest{});
  messages.push_back(IngestStatsRequest{"campus"});
  messages.push_back(ingest_stats);
  messages.push_back(IngestStatsResponse{});  // ingest disabled
  messages.push_back(pinned_reload);
  messages.push_back(CheckpointRequest{});
  messages.push_back(CheckpointRequest{"mall"});
  messages.push_back(checkpointed);
  messages.push_back(CheckpointResponse{});  // failed checkpoint
  messages.push_back(CompactRequest{"campus"});
  messages.push_back(compacted);
  messages.push_back(ListArtifactsRequest{});
  messages.push_back(artifacts);
  messages.push_back(ListArtifactsResponse{});  // store disabled
  messages.push_back(MetricsRequest{});
  MetricsResponse metrics;
  metrics.text =
      "# HELP grafics_transport_frames_in_total Frames decoded.\n"
      "# TYPE grafics_transport_frames_in_total counter\n"
      "grafics_transport_frames_in_total 400\n";
  messages.push_back(metrics);
  messages.push_back(MetricsResponse{});  // telemetry not attached
  return messages;
}

TEST(ProtocolTest, EveryMessageTypeRoundTrips) {
  for (const Message& message : AllMessageTypes()) {
    EXPECT_EQ(DecodePayload(EncodePayload(message)), message);
  }
}

// layout-frozen: v7 — check_invariants.py requires this marker next to the
// byte-exact assertion for kProtocolVersion, the one supported dialect.
TEST(ProtocolTest, V7EncodingsAreFrozen) {
  // Length and CRC-32 of every AllMessageTypes() payload. Any change to the
  // bytes a deployed v7 peer sends or expects fails here; a real layout
  // change needs a version bump, not new pins.
  struct Pinned {
    std::size_t bytes;
    std::uint32_t crc32;
  };
  const std::vector<Pinned> expected = {
      {128, 0x2A9830D7},  // named predict batch
      {66, 0xB7FCB2CB},   // single-record predict
      {69, 0xD48D71EB},   // mixed predict response
      {17, 0xE8827B81},   // Ping{}
      {21, 0x8572A51E},   // Ping{mall}
      {30, 0xC9DF6B1E},   // pong
      {47, 0xD231F987},   // failed pong
      {25, 0xF8345039},   // ReloadRequest{}
      {29, 0xD0519657},   // ReloadRequest{mall}
      {40, 0x1B403003},   // reload response
      {9, 0xC58AD482},    // ListModelsRequest
      {71, 0x22E432A2},   // ListModelsResponse
      {17, 0x7DACF11F},   // StatsRequest{}
      {23, 0xB98BB7BA},   // StatsRequest{campus}
      {266, 0x67728DF4},  // StatsResponse
      {117, 0x1F0F750C},  // SubmitRecordsRequest
      {43, 0x2241D052},   // SubmitRecordsResponse
      {17, 0x2040A013},   // IngestStatsRequest{}
      {23, 0x33F7D2D9},   // IngestStatsRequest{campus}
      {140, 0x436F824B},  // IngestStatsResponse
      {14, 0xD912D6B4},   // IngestStatsResponse{}
      {29, 0x163E9FD0},   // pinned ReloadRequest
      {17, 0x0EB68895},   // CheckpointRequest{}
      {21, 0x1FC81CE5},   // CheckpointRequest{mall}
      {59, 0xD8404ED9},   // CheckpointResponse
      {35, 0x0291729A},   // CheckpointResponse{}
      {23, 0x3260E472},   // CompactRequest
      {51, 0x9BA94372},   // CompactResponse
      {17, 0x444239F0},   // ListArtifactsRequest
      {93, 0xD4280CD7},   // ListArtifactsResponse
      {14, 0x7B5FF749},   // ListArtifactsResponse{}
      {9, 0x3633A5CA},    // MetricsRequest
      {161, 0xF93C1F5B},  // MetricsResponse
      {17, 0x0ED57CBF},   // MetricsResponse{}
  };
  const std::vector<Message> messages = AllMessageTypes();
  ASSERT_EQ(messages.size(), expected.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const std::string payload = EncodePayload(messages[i]);
    EXPECT_EQ(payload.size(), expected[i].bytes) << "message " << i;
    EXPECT_EQ(ingest::Crc32(payload.data(), payload.size()),
              expected[i].crc32)
        << "message " << i;
  }
}

TEST(ProtocolTest, FrameIsLengthPrefixedPayload) {
  const Message message = Ping{};
  const std::string payload = EncodePayload(message);
  const std::string frame = EncodeFrame(message);
  ASSERT_EQ(frame.size(), payload.size() + 4);
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data(), sizeof(length));
  EXPECT_EQ(length, payload.size());
  EXPECT_EQ(frame.substr(4), payload);
}

TEST(ProtocolV5Test, TransportStatsRoundTripWithNonZeroCounters) {
  StatsResponse stats;
  stats.connections_accepted = 17;
  stats.models = {{"campus", 2, 100, 9, 32, 3, PublishSource::kIngest, 12,
                   /*shared_bytes=*/555, /*owned_bytes=*/666}};
  stats.transport = {/*connections_live=*/2048,
                     /*connections_harvested_idle=*/9,
                     /*frames_in=*/123456,
                     /*frames_out=*/123400,
                     /*bytes_in=*/99887766,
                     /*bytes_out=*/55443322,
                     /*requests_rejected_busy=*/31,
                     /*event_workers=*/4};
  const Message decoded = DecodePayload(EncodePayload(stats));
  const auto* response = std::get_if<StatsResponse>(&decoded);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(*response, stats);
}

TEST(ProtocolV6Test, ArtifactListingsAreBoundedAgainstHostileLengths) {
  // A hostile artifact count must be rejected before allocating.
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 20);  // kListArtifactsResponse
  WriteU8(out, 1);   // enabled
  WriteU32(out, 0xFFFFFFFFu);
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolV7Test, MetricsResponseEncodingIsTypeByteThenString) {
  MetricsResponse metrics;
  metrics.text = "grafics_up 1\n";
  std::ostringstream expected;
  WriteHeader(expected, kFrameMagic, kProtocolVersion);
  WriteU8(expected, 22);  // kMetricsResponse
  WriteString(expected, metrics.text);
  EXPECT_EQ(EncodePayload(metrics), std::move(expected).str());
}

TEST(ProtocolV7Test, OversizedMetricsDumpIsRejectedAtEncode) {
  MetricsResponse metrics;
  metrics.text.assign(kMaxFrameBytes, 'x');
  EXPECT_THROW(EncodePayload(metrics), Error);
}

// --- malformed frames --------------------------------------------------

TEST(ProtocolTest, RejectsBadModelNameLength) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 1);  // kPredictRequest
  WriteString(out, std::string(kMaxModelNameBytes + 1, 'm'));
  WriteU32(out, 1);
  WriteSignalRecord(out, MakeRecord());
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolTest, RejectsHostileModelNameLengthBeforeAllocating) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 3);                     // kPing
  WriteU64(out, 0xFFFFFFFFFFFFFFFF);  // declared name length
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolTest, RejectsHostileStringFieldLengthBeforeAllocating) {
  // A free-form string field (here ReloadResponse.message) declaring ~4 GiB
  // must be an Error before any allocation, like model names are.
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 6);  // kReloadResponse
  WriteU8(out, 1);
  WriteU64(out, 3);
  WriteU64(out, 0xFFFFFFFFULL);  // declared message length
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolTest, RejectsZeroRecordBatch) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 1);  // kPredictRequest
  WriteString(out, "");
  WriteU32(out, 0);
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
  EXPECT_THROW(EncodePayload(PredictRequest{}), Error);
}

TEST(ProtocolTest, RejectsOversizedBatch) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 1);  // kPredictRequest
  WriteString(out, "");
  WriteU32(out, static_cast<std::uint32_t>(kMaxBatchRecords + 1));
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolTest, RejectsZeroAndOversizedSubmitBatches) {
  // SubmitRecords is bounded exactly like v2 predict: zero-record and
  // oversized batches (and hostile name lengths) die before any record
  // allocation happens.
  for (const std::uint32_t count :
       {0u, static_cast<std::uint32_t>(kMaxBatchRecords + 1)}) {
    std::ostringstream out;
    WriteHeader(out, kFrameMagic, kProtocolVersion);
    WriteU8(out, 11);  // kSubmitRecordsRequest
    WriteString(out, "");
    WriteU32(out, count);
    EXPECT_THROW(DecodePayload(std::move(out).str()), Error)
        << "count " << count;
  }
  EXPECT_THROW(EncodePayload(SubmitRecordsRequest{}), Error);
  std::vector<rf::SignalRecord> oversized(kMaxBatchRecords + 1,
                                          MakeRecord());
  EXPECT_THROW(
      EncodePayload(SubmitRecordsRequest{"", std::move(oversized)}), Error);
}

TEST(ProtocolTest, RejectsHostileSubmitFieldsBeforeAllocating) {
  {
    std::ostringstream out;  // ~4 GiB declared model name
    WriteHeader(out, kFrameMagic, kProtocolVersion);
    WriteU8(out, 11);  // kSubmitRecordsRequest
    WriteU64(out, 0xFFFFFFFFULL);
    EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
  }
  {
    std::ostringstream out;  // absurd observation count inside a record
    WriteHeader(out, kFrameMagic, kProtocolVersion);
    WriteU8(out, 11);
    WriteString(out, "");
    WriteU32(out, 1);
    WriteU64(out, kMaxObservations + 1);
    EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
  }
  {
    std::ostringstream out;  // bad status byte in a submit response
    WriteHeader(out, kFrameMagic, kProtocolVersion);
    WriteU8(out, 12);  // kSubmitRecordsResponse
    WriteU32(out, 1);
    WriteU8(out, 9);
    WriteString(out, "");
    EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
  }
}

TEST(ProtocolTest, EveryTruncationIsRejectedNotCrashing) {
  const std::string payload =
      EncodePayload(PredictRequest{"mall", {MakeRecord(2), MakeRecord()}});
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_THROW(DecodePayload(payload.substr(0, keep)), Error)
        << "prefix of " << keep << " bytes";
  }
}

TEST(ProtocolTest, RejectsGarbageMagic) {
  std::string payload = EncodePayload(Ping{});
  payload[0] = 'X';
  EXPECT_THROW(DecodePayload(payload), Error);
}

TEST(ProtocolTest, RejectsWrongVersion) {
  // v7 is the only dialect: every other header version — including the
  // retired v1..v6 — is malformed, even with an otherwise valid v7 body.
  const auto ping_at = [](std::uint32_t version) {
    std::ostringstream out;
    WriteHeader(out, kFrameMagic, version);
    WriteU8(out, 3);  // Ping
    WriteString(out, "");
    return std::move(out).str();
  };
  EXPECT_EQ(DecodePayload(ping_at(kProtocolVersion)), Message(Ping{}));
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    EXPECT_THROW(DecodePayload(ping_at(version)), Error)
        << "version " << version;
  }
}

TEST(ProtocolTest, RejectsUnknownMessageType) {
  std::ostringstream out;
  WriteHeader(out, kFrameMagic, kProtocolVersion);
  WriteU8(out, 250);
  EXPECT_THROW(DecodePayload(std::move(out).str()), Error);
}

TEST(ProtocolTest, RejectsTrailingBytes) {
  std::string payload = EncodePayload(Ping{});
  payload.push_back('\0');
  EXPECT_THROW(DecodePayload(payload), Error);
}

/// Loopback socket pair for exercising the fd framing helpers.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(FramingTest, SendReceiveRoundTripsOverSocket) {
  SocketPair pair;
  for (const Message& message : AllMessageTypes()) {
    SendFrame(pair.fds[0], message);
    const std::optional<Message> received = ReceiveFrame(pair.fds[1]);
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(*received, message);
  }
}

TEST(FramingTest, CleanCloseIsEndOfStreamNotError) {
  SocketPair pair;
  SendFrame(pair.fds[0], Ping{});
  pair.CloseWriter();
  EXPECT_TRUE(ReceiveFrame(pair.fds[1]).has_value());
  EXPECT_FALSE(ReceiveFramePayload(pair.fds[1]).has_value());
}

TEST(FramingTest, TruncatedFrameThrows) {
  {
    SocketPair pair;  // peer dies inside the length prefix
    const char partial[2] = {0x10, 0x00};
    ASSERT_EQ(::send(pair.fds[0], partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    pair.CloseWriter();
    EXPECT_THROW(ReceiveFramePayload(pair.fds[1]), Error);
  }
  {
    SocketPair pair;  // peer dies inside the payload
    const std::string frame = EncodeFrame(PredictRequest{"", {MakeRecord()}});
    ASSERT_EQ(::send(pair.fds[0], frame.data(), frame.size() - 3, 0),
              static_cast<ssize_t>(frame.size() - 3));
    pair.CloseWriter();
    EXPECT_THROW(ReceiveFramePayload(pair.fds[1]), Error);
  }
}

TEST(FramingTest, OversizedDeclaredLengthRejectedBeforeAllocation) {
  SocketPair pair;
  const std::uint32_t huge = 0x7FFFFFFF;
  ASSERT_EQ(::send(pair.fds[0], &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW(ReceiveFramePayload(pair.fds[1]), Error);
}

TEST(FramingTest, RespectsCustomFrameLimit) {
  SocketPair pair;
  SendFrame(pair.fds[0], PredictRequest{"", {MakeRecord()}});
  EXPECT_THROW(ReceiveFramePayload(pair.fds[1], /*max_bytes=*/4), Error);
}

}  // namespace
}  // namespace grafics::serve
