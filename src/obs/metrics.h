// Lock-cheap runtime telemetry: a registry of named instruments with an
// atomic hot path and Prometheus text exposition.
//
// The design splits the cost asymmetrically:
//
//  * Instrument *resolution* (GetCounter / GetGauge / GetHistogram) takes a
//    registry mutex, validates the name, and returns a stable raw pointer.
//    Instrumented code resolves its handles once — at construction or load
//    time — and never does a string lookup on a request path.
//  * Instrument *updates* (Counter::Add, Gauge::Set, Histogram::Observe)
//    are a handful of relaxed atomic operations. No locks, no allocation,
//    safe from any thread, TSan-clean by construction. Each instrument is
//    the only home of its quantity: it is updated when the event happens,
//    and in-process stats (the wire Stats replies) read it back.
//  * *Rendering* (RenderPrometheus) takes the mutex again, runs registered
//    collection hooks (for the few values that can only be computed at
//    scrape time), and emits the text exposition format a Prometheus
//    scraper expects. Scrapes are rare; their cost is irrelevant.
//
// Relaxed ordering is deliberate: each instrument is an independent
// statistic, and a scrape that observes a count a few nanoseconds stale is
// indistinguishable from a scrape that arrived a few nanoseconds earlier.
// Histogram bucket counts, sum, and count are each individually atomic but
// not mutually consistent within one scrape — standard for lock-free
// histograms, and harmless for rate/quantile math.
//
// Naming is enforced here AND by the repo lint: every instrument name must
// match grafics_[a-z0-9_]+ and be cataloged in docs/observability.md
// (tools/check_invariants.py cross-checks the sources against the doc).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_sync.h"

namespace grafics::obs {

/// Label set for one instrument handle, resolved once at Get time. Order is
/// preserved into the exposition output.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (queue depth, bytes held, generation).
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(std::int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer observations
/// (microseconds, batch sizes). Bounds are inclusive upper edges, strictly
/// increasing; an implicit +Inf bucket catches the overflow tail.
class Histogram {
 public:
  void Observe(std::uint64_t value) {
    // First edge >= value; bounds_.size() (the +Inf bucket) past the last.
    const auto index = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Observations in bucket `index` (NOT cumulative); index bounds_.size()
  /// is the +Inf bucket.
  std::uint64_t bucket(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(std::vector<std::uint64_t> bounds);

  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// 10µs .. 1s latency edges, the default for every *_us histogram: steps of
/// about 10% from 50µs to 1ms, where a served predict's stages fall, and
/// 1-2-5 steps outside that range.
std::vector<std::uint64_t> DefaultLatencyBucketsUs();
/// Powers of two 1..max (inclusive when max is itself a power of two).
std::vector<std::uint64_t> PowerOfTwoBuckets(std::uint64_t max);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolves (creating on first use) the instrument for `name` + `labels`.
  /// The returned pointer is stable for the registry's lifetime — cache it;
  /// never resolve on a hot path. The same name+labels always returns the
  /// same instrument. Throws grafics::Error when the name violates
  /// grafics_[a-z0-9_]+, when the name is already registered as a different
  /// kind, when `help` disagrees with the first registration, or (for
  /// histograms) when `bounds` disagree or are not strictly increasing.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<std::uint64_t>& bounds,
                          const Labels& labels = {});

  /// Collection hooks run at the start of every RenderPrometheus, outside
  /// the registry mutex — only for values that can be computed nowhere but
  /// at scrape time (the model registry's snapshot byte accounting, which
  /// depends on the lifetimes of other snapshots). A hook may resolve new
  /// instruments. Returns an id for RemoveHook; hooks whose captured
  /// objects die before the registry must be removed first.
  std::uint64_t AddHook(std::function<void()> hook);
  void RemoveHook(std::uint64_t id);

  /// Prometheus text exposition format, version 0.0.4: one # HELP / # TYPE
  /// pair per family, series sorted deterministically, label values
  /// escaped. Histograms emit cumulative _bucket series plus _sum/_count.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<std::uint64_t> bounds;  // histograms only
    std::map<std::string, Series> series;  // keyed by serialized labels
  };

  Family& ResolveFamily(const std::string& name, const std::string& help,
                        Kind kind) GRAFICS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Family> families_ GRAFICS_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::function<void()>> hooks_
      GRAFICS_GUARDED_BY(mutex_);
  std::uint64_t next_hook_id_ GRAFICS_GUARDED_BY(mutex_) = 1;
};

/// RAII collection-hook registration with *quiescent* detach. RemoveHook
/// alone does not stop a render already in flight from invoking the hook it
/// copied, so a hook that captures `this` of a shorter-lived object needs
/// more: ScopedHook runs the callback under an internal mutex, and Detach()
/// (or the destructor) blocks until an in-flight invocation finishes, then
/// guarantees the callback never runs again. A subsystem that registers a
/// hook does so through one of these and detaches it before the captured
/// state dies.
class ScopedHook {
 public:
  ScopedHook() = default;
  ~ScopedHook();

  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;

  /// Registers `fn` on `registry` (both must be non-null; the registry is
  /// kept alive by the held shared_ptr). At most one attachment at a time.
  void Attach(std::shared_ptr<Registry> registry, std::function<void()> fn);
  /// Blocks until any in-flight invocation returns, then unregisters.
  /// Idempotent; safe on a never-attached hook.
  void Detach();

  bool attached() const { return registry_ != nullptr; }

 private:
  struct State {
    Mutex mutex;
    std::function<void()> fn GRAFICS_GUARDED_BY(mutex);
  };

  std::shared_ptr<State> state_;
  std::shared_ptr<Registry> registry_;
  std::uint64_t id_ = 0;
};

}  // namespace grafics::obs
