// Fuzz harness for the wire-protocol payload decoder — the one parser in
// the daemon that consumes fully untrusted bytes (anything a TCP peer
// sends lands in DecodePayload after the length prefix).
//
// Two build modes from this one file:
//
//  * libFuzzer (Clang with -fsanitize=fuzzer): LLVMFuzzerTestOneInput feeds
//    coverage-guided mutations. The CI fuzz leg runs it for a short budget
//    per push with ASan, seeded from the corpus WriteSeedCorpus generates.
//  * standalone (-DGRAFICS_FUZZ_STANDALONE, any compiler): main() replays
//    the generated seed corpus plus deterministic truncations and byte
//    flips of every seed — a fast smoke test registered as a plain ctest,
//    so the harness itself never rots on toolchains without fuzzer support.
//    `protocol_fuzz_smoke --write-seeds DIR` emits the seed corpus for the
//    CI leg to hand to libFuzzer.
//
// The properties checked for every input:
//  1. DecodePayload either returns a Message or throws grafics::Error —
//     any other exception, signal, or sanitizer report is a bug.
//  2. Round-trip stability: a successfully decoded message re-encodes and
//     decodes back to an equal Message. This catches asymmetric
//     encode/decode drift that byte-frozen tests for hand-picked values
//     would miss.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "serve/protocol.h"

namespace {

using grafics::serve::DecodePayload;
using grafics::serve::EncodePayload;
using grafics::serve::Message;

/// One fuzz probe; aborts (for the fuzzer/sanitizer to report) on any
/// property violation.
void FuzzDecodeOne(const std::string& payload) {
  Message decoded;
  try {
    decoded = DecodePayload(payload);
  } catch (const grafics::Error&) {
    return;  // malformed input rejected with the documented exception — fine
  }
  // Properties below hold for every successfully decoded payload. A failure
  // here is a real decoder/encoder bug, so crash loudly for the harness.
  std::string reencoded;
  try {
    reencoded = EncodePayload(decoded);
  } catch (const grafics::Error& e) {
    std::fprintf(stderr,
                 "protocol_fuzz: decoded message rejects re-encoding: %s\n",
                 e.what());
    std::abort();
  }
  try {
    if (!(DecodePayload(reencoded) == decoded)) {
      std::fprintf(stderr, "protocol_fuzz: round-trip changed the message\n");
      std::abort();
    }
  } catch (const grafics::Error& e) {
    std::fprintf(stderr,
                 "protocol_fuzz: re-encoded message fails to decode: %s\n",
                 e.what());
    std::abort();
  }
}

/// Valid frames covering every message type: the corpus the coverage-guided
/// fuzzer mutates from, and the smoke test's base inputs.
std::vector<std::string> SeedCorpus() {
  using namespace grafics::serve;
  grafics::rf::SignalRecord record;
  record.Add(grafics::rf::MacAddress(3), -52.5);
  record.Add(grafics::rf::MacAddress(17), -80.25);
  grafics::rf::SignalRecord labeled = record;
  labeled.set_floor(2);

  std::vector<Message> messages;
  messages.push_back(PredictRequest{"", {record}});
  messages.push_back(PredictRequest{"mall", {record, labeled}});
  messages.push_back(PredictResponse{
      {{PredictStatus::kOk, 3, ""},
       {PredictStatus::kDiscarded, 0, ""},
       {PredictStatus::kError, 0, "unknown model 'x'"}}});
  messages.push_back(Ping{"campus"});
  messages.push_back(Pong{kProtocolVersion, true, 7, ""});
  messages.push_back(ReloadRequest{"mall", 0});
  messages.push_back(ReloadRequest{"mall", 12});
  messages.push_back(ReloadResponse{true, 8, "reloaded"});
  messages.push_back(ListModelsRequest{});
  {
    ListModelsResponse response;
    response.default_model = "campus";
    response.models.push_back({"campus", 4, true});
    response.models.push_back({"mall", 1, false});
    messages.push_back(response);
  }
  messages.push_back(StatsRequest{"campus"});
  {
    StatsResponse response;
    response.connections_accepted = 11;
    response.transport.connections_live = 3;
    response.transport.frames_in = 200;
    response.transport.frames_out = 199;
    response.transport.bytes_in = 1 << 16;
    response.transport.bytes_out = 1 << 15;
    response.transport.requests_rejected_busy = 2;
    response.transport.event_workers = 2;
    response.store.enabled = true;
    response.store.base_count = 1;
    response.store.delta_count = 3;
    response.store.journal_bytes_reclaimed = 512;
    ModelStats stats;
    stats.name = "campus";
    stats.generation = 4;
    stats.requests = 100;
    stats.batches = 9;
    stats.max_batch = 32;
    stats.queue_depth = 1;
    stats.pending_ingest = 5;
    stats.shared_bytes = 1 << 20;
    stats.owned_bytes = 4096;
    stats.last_publish_source = PublishSource::kIngest;
    response.models.push_back(stats);
    messages.push_back(response);
  }
  messages.push_back(SubmitRecordsRequest{"mall", {labeled}});
  {
    SubmitRecordsResponse response;
    response.results.push_back({SubmitStatus::kAccepted, ""});
    response.results.push_back({SubmitStatus::kRejected, "backpressure"});
    messages.push_back(response);
  }
  messages.push_back(IngestStatsRequest{""});
  {
    IngestStatsResponse response;
    response.enabled = true;
    IngestModelStats stats;
    stats.name = "mall";
    stats.accepted = 40;
    stats.folded = 32;
    stats.publishes = 2;
    stats.journal_bytes = 1234;
    response.models.push_back(stats);
    messages.push_back(response);
  }
  messages.push_back(CheckpointRequest{"mall"});
  messages.push_back(CheckpointResponse{true, 5, true, 2048, "delta"});
  messages.push_back(CompactRequest{""});
  messages.push_back(CompactResponse{true, 6, 900, ""});
  messages.push_back(ListArtifactsRequest{"mall"});
  {
    ListArtifactsResponse response;
    response.enabled = true;
    response.artifacts.push_back({1, false, "mall.1.base", 4096});
    response.artifacts.push_back({2, true, "mall.2.delta", 128});
    messages.push_back(response);
  }
  messages.push_back(MetricsRequest{});
  messages.push_back(MetricsResponse{"grafics_up 1\n"});

  std::vector<std::string> seeds;
  for (const Message& message : messages) {
    seeds.push_back(EncodePayload(message));
  }
  return seeds;
}

}  // namespace

#if defined(GRAFICS_FUZZ_STANDALONE)

namespace {

int WriteSeedCorpus(const std::string& dir) {
  const std::vector<std::string> seeds = SeedCorpus();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::string path = dir + "/seed-" + std::to_string(i) + ".bin";
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "protocol_fuzz: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fwrite(seeds[i].data(), 1, seeds[i].size(), out);
    std::fclose(out);
  }
  std::printf("protocol_fuzz: wrote %zu seeds to %s\n", seeds.size(),
              dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--write-seeds") == 0) {
    return WriteSeedCorpus(argv[2]);
  }
  const std::vector<std::string> seeds = SeedCorpus();
  std::size_t probes = 0;
  for (const std::string& seed : seeds) {
    FuzzDecodeOne(seed);
    ++probes;
    // Every truncation: a peer may legally stop sending mid-body, and the
    // decoder must reject (not overread) all prefixes.
    for (std::size_t len = 0; len < seed.size(); ++len) {
      FuzzDecodeOne(seed.substr(0, len));
      ++probes;
    }
    // Deterministic corruption sweep: every byte position, three patterns.
    // Coverage-guided mutation needs libFuzzer; this bounded sweep still
    // exercises the header/type/length validation on every field boundary.
    for (std::size_t pos = 0; pos < seed.size(); ++pos) {
      for (const unsigned char pattern :
           {static_cast<unsigned char>(0xFF), static_cast<unsigned char>(0x80),
            static_cast<unsigned char>(0x01)}) {
        std::string mutated = seed;
        mutated[pos] = static_cast<char>(mutated[pos] ^ pattern);
        FuzzDecodeOne(mutated);
        ++probes;
      }
    }
  }
  std::printf("protocol_fuzz (standalone): %zu seeds, %zu probes, all "
              "properties held\n",
              seeds.size(), probes);
  return 0;
}

#else  // libFuzzer build

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzDecodeOne(std::string(reinterpret_cast<const char*>(data), size));
  return 0;
}

#endif
