// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions (the client/protocol path, the inference stages,
// training stages, ingest forks, store opens). Each span carries a name, a
// start and end time, the span that caused it, and the id of the request
// it belongs to. Nothing is written until WriteJson at exit, so recording
// costs two clock reads and a vector append.
//
// A span's self time is its duration minus the part of that interval its
// children cover (children of one span never overlap here: every recorded
// call is synchronous on one thread).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (kNoParent when disabled).
  std::uint32_t Add(const char* name, double start, double end,
                    std::uint32_t parent, std::uint64_t request);

  /// Opens a span whose end is filled in by Close (for parents whose
  /// children are recorded before the parent finishes).
  std::uint32_t Open(const char* name, double start, std::uint32_t parent,
                     std::uint64_t request);
  void Close(std::uint32_t id, double end);

  /// Self time of every span named `name`, microseconds, in record order.
  std::vector<double> SelfMicros(const std::string& name) const;
  /// Sum over the listed span names of each request's self time, keyed by
  /// request id (requests with none of the names are absent).
  std::map<std::uint64_t, double> SelfMicrosByRequest(
      const std::vector<std::string>& names) const;

  /// Writes every span as one JSON document: {"spans": [{"name", "start_s",
  /// "end_s", "self_us", "parent", "request"}, ...]}.
  void WriteJson(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::uint32_t parent;
    std::uint64_t request;
  };

  /// Child-covered seconds of each span, computed on demand.
  std::vector<double> ChildSeconds() const;

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
