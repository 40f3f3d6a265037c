// Single-threaded load generator for grafics_served.
//
// One thread drives every connection of a phase through ppoll on
// nonblocking sockets, so the generator never needs more threads than the
// phase has streams of work, and never more than one. Requests are written
// at their scheduled due time (open loop) or whenever a connection's window
// has room (closed loop, used only to estimate capacity). The protocol
// answers pipelined requests of one connection in order, so each
// connection keeps a FIFO of what it is waiting for.
//
// Latency is measured from the due time, so a stall delays every request
// scheduled behind it; how late the generator itself wrote each request is
// kept as the send lag.
//
// Streams a phase can carry:
//   predict  single-record PredictRequest frames, round-robin over
//            `predict_conns` connections;
//   submit   SubmitRecords frames of one chunk each on one connection;
//   poll     IngestStats every millisecond on its own connection while
//            any submitted chunk is not yet folded — how visibility is read
//            from outside;
//   compact  a Compact on its own connection after every `compact_every`
//            acknowledged chunks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rf/signal_record.h"
#include "trace.h"

namespace perfbench {

namespace rf = grafics::rf;

enum class Op : std::uint8_t { kPredict, kSubmit };

/// One scheduled request.
struct Send {
  double due = 0;  // seconds after the phase start
  Op op = Op::kPredict;
  std::uint32_t conn = 0;  // predict connection index
  std::uint32_t item = 0;  // scan index (predict) or chunk index (submit)
};

struct Plan {
  std::vector<Send> schedule;  // sorted by due
  std::size_t predict_conns = 0;
  /// Opens the submit, poll and compact connections.
  bool ingest = false;
  std::size_t compact_every = 0;  // 0 = never compact
  /// Replies still missing this long after the last due time time out.
  double drain_s = 5.0;
  /// Per predict connection: a deeper backlog aborts the phase (the
  /// daemon's default in-flight cap is 64; staying below it means the
  /// generator never provokes busy replies by itself).
  std::size_t max_outstanding = 56;
  /// > 0: abort as soon as more than 1% of the schedule finished later
  /// than this (a failed capacity probe ends early).
  double slo_abort_s = 0;
  /// Closed loop instead of the schedule: keep `window` predicts in flight
  /// per connection for `closed_seconds`, items from `closed_first_item`.
  std::size_t window = 0;
  double closed_seconds = 0;
  std::uint32_t closed_first_item = 0;
  std::uint32_t closed_end_item = 0;  // exclusive; no scans beyond it
  /// Span recording for predicts whose `traced(due)` is true.
  Tracer* tracer = nullptr;
  std::function<bool(double)> traced;
};

enum class Status : std::uint8_t {
  kUnsent,
  kOk,
  kDiscarded,  // predict answered "no MAC overlap" (a valid answer)
  kBusy,
  kError,
  kTimeout,
};

struct Result {
  Op op = Op::kPredict;
  std::uint32_t item = 0;
  Status status = Status::kUnsent;
  double due = 0;    // absolute Now() seconds
  double sent = -1;  // when the frame was handed to the socket
  double done = -1;  // when the reply frame was read
  std::optional<rf::FloorId> floor;
  /// Predicts: the answer comes from a model with between version_lo and
  /// version_hi chunks folded in (read from outside).
  std::uint32_t version_lo = 0;
  std::uint32_t version_hi = 0;
  /// Submits: first poll reply showing the chunk folded (-1 = never).
  double visible = -1;
  bool traced = false;

  bool failed() const {
    return status == Status::kBusy || status == Status::kError ||
           status == Status::kTimeout;
  }
  double latency() const { return done - due; }
};

struct PhaseResult {
  std::vector<Result> results;  // schedule order (closed loop: send order)
  double start = 0;             // absolute Now() of due time 0
  bool aborted = false;
  std::size_t compact_failures = 0;
  std::uint64_t backlog_max = 0;  // largest polled ingest backlog
};

class Loadgen {
 public:
  /// `chunk_records` must equal the daemon's fold batch: a chunk is then
  /// exactly one fold, so folded/chunk_records counts model versions.
  Loadgen(std::uint16_t port, std::string model,
          const std::vector<rf::SignalRecord>* scans,
          const std::vector<std::vector<rf::SignalRecord>>* chunks,
          std::size_t chunk_records);

  PhaseResult Run(const Plan& plan);

 private:
  std::uint16_t port_;
  std::string model_;
  const std::vector<rf::SignalRecord>* scans_;
  const std::vector<std::vector<rf::SignalRecord>>* chunks_;
  std::size_t chunk_records_;
  // Chunks written / seen folded so far, across phases on this daemon.
  std::uint32_t chunks_sent_ = 0;
  std::uint32_t chunks_visible_ = 0;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace perfbench
