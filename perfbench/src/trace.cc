#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util.h"

namespace perfbench {

std::uint32_t Tracer::Add(const char* name, double start, double end,
                          std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t Tracer::Open(const char* name, double start,
                           std::uint32_t parent, std::uint64_t request) {
  return Add(name, start, start, parent, request);
}

void Tracer::Close(std::uint32_t id, double end) {
  if (!enabled_ || id == kNoParent) return;
  spans_[id].end = end;
}

std::vector<double> Tracer::ChildSeconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent];
    const double overlap = std::min(span.end, parent.end) -
                           std::max(span.start, parent.start);
    if (overlap > 0) covered[span.parent] += overlap;
  }
  return covered;
}

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  const std::vector<double> covered = ChildSeconds();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back((spans_[i].end - spans_[i].start - covered[i]) * 1e6);
  }
  return out;
}

std::map<std::uint64_t, double> Tracer::SelfMicrosByRequest(
    const std::vector<std::string>& names) const {
  const std::vector<double> covered = ChildSeconds();
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (std::find(names.begin(), names.end(), span.name) == names.end()) {
      continue;
    }
    out[span.request] += (span.end - span.start - covered[i]) * 1e6;
  }
  return out;
}

void Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const std::vector<double> covered = ChildSeconds();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": %s, \"start_s\": %s, \"end_s\": %s, "
                 "\"self_us\": %s, \"parent\": %s, \"request\": %llu}",
                 i == 0 ? "" : ",\n", JsonString(s.name).c_str(),
                 JsonNumber(s.start).c_str(), JsonNumber(s.end).c_str(),
                 JsonNumber((s.end - s.start - covered[i]) * 1e6).c_str(),
                 s.parent == kNoParent ? "null"
                                       : std::to_string(s.parent).c_str(),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
