#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace grafics::obs {

namespace {

constexpr char kNamePrefix[] = "grafics_";

/// grafics_[a-z0-9_]+ — the rule the repo lint also enforces against
/// docs/observability.md.
bool ValidMetricName(const std::string& name) {
  const std::size_t prefix = sizeof(kNamePrefix) - 1;
  if (name.size() <= prefix || name.compare(0, prefix, kNamePrefix) != 0) {
    return false;
  }
  for (std::size_t i = prefix; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, and newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// HELP-text escaping: backslash and newline only (quotes are legal there).
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Canonical series key AND the rendered {label="value",...} text; labels
/// are escaped here once, so the key doubles as the output fragment.
std::string SerializeLabels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Require(ValidLabelName(labels[i].first),
            "obs: invalid label name '" + labels[i].first + "'");
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += EscapeLabelValue(labels[i].second);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

/// Like SerializeLabels but with one extra label appended — how histogram
/// _bucket series get their le="..." edge.
std::string SerializeLabelsWith(const Labels& labels, const char* extra_name,
                                const std::string& extra_value) {
  Labels extended = labels;
  extended.emplace_back(extra_name, extra_value);
  return SerializeLabels(extended);
}

}  // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> DefaultLatencyBucketsUs() {
  return {10,     20,     50,     55,     60,     65,     70,     75,
          80,     90,     100,    110,    120,    130,    140,    150,
          160,    180,    200,    220,    240,    260,    280,    300,
          330,    360,    400,    440,    480,    520,    560,    600,
          650,    700,    750,    800,    900,    1000,   2000,   5000,
          10000,  20000,  50000,  100000, 200000, 500000, 1000000};
}

std::vector<std::uint64_t> PowerOfTwoBuckets(std::uint64_t max) {
  Require(max >= 1, "obs: PowerOfTwoBuckets needs max >= 1");
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t edge = 1; edge <= max; edge *= 2) {
    bounds.push_back(edge);
    if (edge > max / 2) break;  // avoid overflow past 2^63
  }
  return bounds;
}

Registry::Family& Registry::ResolveFamily(const std::string& name,
                                          const std::string& help,
                                          Kind kind) {
  Require(ValidMetricName(name),
          "obs: instrument name '" + name +
              "' does not match grafics_[a-z0-9_]+");
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
  } else {
    Require(family.kind == kind,
            "obs: instrument '" + name + "' already registered as a "
            "different kind");
    Require(family.help == help,
            "obs: instrument '" + name + "' re-registered with different "
            "help text");
  }
  return family;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help, const Labels& labels) {
  const std::string key = SerializeLabels(labels);
  const MutexLock lock(&mutex_);
  Family& family = ResolveFamily(name, help, Kind::kCounter);
  auto [it, inserted] = family.series.try_emplace(key);
  if (inserted) {
    it->second.labels = labels;
    it->second.counter.reset(new Counter());
  }
  return it->second.counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels) {
  const std::string key = SerializeLabels(labels);
  const MutexLock lock(&mutex_);
  Family& family = ResolveFamily(name, help, Kind::kGauge);
  auto [it, inserted] = family.series.try_emplace(key);
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge.reset(new Gauge());
  }
  return it->second.gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const std::vector<std::uint64_t>& bounds,
                                  const Labels& labels) {
  Require(!bounds.empty(), "obs: histogram '" + name + "' needs bounds");
  Require(std::is_sorted(bounds.begin(), bounds.end()) &&
              std::adjacent_find(bounds.begin(), bounds.end()) ==
                  bounds.end(),
          "obs: histogram '" + name +
              "' bounds must be strictly increasing");
  const std::string key = SerializeLabels(labels);
  const MutexLock lock(&mutex_);
  Family& family = ResolveFamily(name, help, Kind::kHistogram);
  if (family.series.empty()) {
    family.bounds = bounds;
  } else {
    Require(family.bounds == bounds,
            "obs: histogram '" + name +
                "' re-registered with different bounds");
  }
  auto [it, inserted] = family.series.try_emplace(key);
  if (inserted) {
    it->second.labels = labels;
    it->second.histogram.reset(new Histogram(bounds));
  }
  return it->second.histogram.get();
}

std::uint64_t Registry::AddHook(std::function<void()> hook) {
  Require(hook != nullptr, "obs: null collection hook");
  const MutexLock lock(&mutex_);
  const std::uint64_t id = next_hook_id_++;
  hooks_.emplace(id, std::move(hook));
  return id;
}

void Registry::RemoveHook(std::uint64_t id) {
  const MutexLock lock(&mutex_);
  hooks_.erase(id);
}

std::string Registry::RenderPrometheus() const {
  // Hooks run outside the mutex: they resolve instruments and take the
  // mutex themselves. Copying the map keeps RemoveHook safe mid-render.
  std::vector<std::function<void()>> hooks;
  {
    const MutexLock lock(&mutex_);
    hooks.reserve(hooks_.size());
    for (const auto& [id, hook] : hooks_) hooks.push_back(hook);
  }
  for (const auto& hook : hooks) hook();

  std::ostringstream out;
  const MutexLock lock(&mutex_);
  for (const auto& [name, family] : families_) {
    out << "# HELP " << name << " " << EscapeHelp(family.help) << "\n";
    out << "# TYPE " << name << " ";
    switch (family.kind) {
      case Kind::kCounter:
        out << "counter\n";
        break;
      case Kind::kGauge:
        out << "gauge\n";
        break;
      case Kind::kHistogram:
        out << "histogram\n";
        break;
    }
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out << name << key << " " << series.counter->value() << "\n";
          break;
        case Kind::kGauge:
          out << name << key << " " << series.gauge->value() << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& histogram = *series.histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
            cumulative += histogram.bucket(i);
            out << name << "_bucket"
                << SerializeLabelsWith(series.labels, "le",
                                       std::to_string(histogram.bounds()[i]))
                << " " << cumulative << "\n";
          }
          cumulative += histogram.bucket(histogram.bounds().size());
          out << name << "_bucket"
              << SerializeLabelsWith(series.labels, "le", "+Inf") << " "
              << cumulative << "\n";
          out << name << "_sum" << key << " " << histogram.sum() << "\n";
          out << name << "_count" << key << " " << histogram.count() << "\n";
          break;
        }
      }
    }
  }
  return out.str();
}

ScopedHook::~ScopedHook() { Detach(); }

void ScopedHook::Attach(std::shared_ptr<Registry> registry,
                        std::function<void()> fn) {
  Require(registry != nullptr && fn != nullptr,
          "obs: ScopedHook::Attach needs a registry and a callback");
  Require(registry_ == nullptr, "obs: ScopedHook already attached");
  state_ = std::make_shared<State>();
  {
    const MutexLock lock(&state_->mutex);
    state_->fn = std::move(fn);
  }
  registry_ = std::move(registry);
  // The registered closure owns only the State; after Detach clears fn it
  // is inert no matter how long a copied hook lingers inside a render.
  id_ = registry_->AddHook([state = state_] {
    const MutexLock lock(&state->mutex);
    if (state->fn) state->fn();
  });
}

void ScopedHook::Detach() {
  if (registry_ == nullptr) return;
  {
    // Blocks until an in-flight invocation releases the mutex — this is
    // the quiesce point that makes `this`-capturing callbacks safe.
    const MutexLock lock(&state_->mutex);
    state_->fn = nullptr;
  }
  registry_->RemoveHook(id_);
  registry_.reset();
  state_.reset();
  id_ = 0;
}

}  // namespace grafics::obs
