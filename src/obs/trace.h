// Per-request pipeline tracing for the slow-request log.
//
// A Trace captures a monotonic start time at construction and records one
// entry per pipeline stage: Stamp("frame-decoded") stores the elapsed time
// since the start, Note("predict", us) stores a duration measured elsewhere
// (e.g. on the predict pool worker and carried back in the completion).
// Breakdown() renders the whole request as one log-friendly line:
//
//   frame-decoded=+12us enqueued=+31us queue-wait=842us predict=1204us
//   reply-flushed=+2117us
//
// A Trace is deliberately NOT thread-safe: it is owned by one request and
// every mutation must be ordered by something else (the server stamps
// before handing the request to the registry; the pool's queue mutex and
// the request's completion countdown are the happens-before edges to the
// completion that stamps the tail). Traces are heap-allocated only when
// slow-request logging is enabled, so the default request path never pays
// for them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace grafics::obs {

class Trace {
 public:
  Trace() : start_(std::chrono::steady_clock::now()) {}

  /// Records `stage` at the current elapsed time since construction.
  void Stamp(const char* stage) {
    entries_.emplace_back(Entry{stage, ElapsedUs(), /*relative=*/true});
  }

  /// Records a duration measured elsewhere (not an offset from the start).
  void Note(const char* stage, std::uint64_t us) {
    entries_.emplace_back(Entry{stage, us, /*relative=*/false});
  }

  std::uint64_t ElapsedUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// "stage=+Nus" for stamps (offset from start), "stage=Nus" for notes.
  std::string Breakdown() const {
    std::string out;
    for (const Entry& entry : entries_) {
      if (!out.empty()) out.push_back(' ');
      out += entry.stage;
      out += entry.relative ? "=+" : "=";
      out += std::to_string(entry.us);
      out += "us";
    }
    return out;
  }

 private:
  struct Entry {
    const char* stage;
    std::uint64_t us;
    bool relative;
  };

  std::chrono::steady_clock::time_point start_;
  std::vector<Entry> entries_;
};

}  // namespace grafics::obs
