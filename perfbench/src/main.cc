// grafics_perfbench — the GRAFICS end-to-end benchmark.
//
// Builds a synthetic building from --seed, trains it with library
// defaults, serves it with the shipped grafics_served binary, and drives
// the daemon over the wire protocol with open-loop traffic. Every served
// answer is checked bit-for-bit against an in-process reference before any
// metric is printed. perfbench/README.md describes the workloads, metrics
// and the traced run; perfbench/run.py builds this binary and calls it.
//
//   grafics_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --daemon PATH --work-dir DIR --out-dir DIR
//                     [--git-sha SHA] [--source-digest HEX]
//                     [--inject-mismatch] [--checkpoint-before-restart]
//
// The two bracketed flags exist for perfbench/test_gate.py: the first
// corrupts one served answer, the second writes the run's Checkpoint
// before the restarts instead of after them.
//
// The last line of standard output is one JSON object {"correct",
// "attempted", "failed", "metrics"}; --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. Exit status is non-zero, with no
// result line, when any answer disagrees with the reference.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/grafics.h"
#include "core/metrics.h"
#include "daemon.h"
#include "layers.h"
#include "loadgen.h"
#include "prom.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "store/model_store.h"
#include "synth/presets.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace wire = grafics::serve;
namespace synth = grafics::synth;

/// Records per Submit chunk: the daemon's default fold batch, so each chunk
/// is exactly one fold and the model version after k chunks is known.
constexpr std::size_t kChunkRecords = 64;
/// Latency limit of max_qps_at_slo: p99 from the due time.
constexpr double kSloSeconds = 0.050;
/// A probe whose last quarter waits this much longer (median) than its
/// first quarter has a growing backlog and fails.
constexpr double kBacklogGrowthSeconds = 0.005;
/// Probe length of the capacity search.
constexpr double kProbeSeconds = 0.6;
/// Rate-search resolution: stop when hi/lo is within this ratio (3%, finer
/// than the bound 0.25 that this metric would need to be gated).
constexpr double kSearchStep = 1.03;
/// A Compact follows every kCompactEvery acknowledged chunks; a run ends
/// with kReplayChunks more, the journal suffix every restart replays.
constexpr std::size_t kCompactEvery = 8;
constexpr std::size_t kReplayChunks = 4;
/// Labeled training records per floor (the paper's few-label regime).
constexpr std::size_t kLabelsPerFloor = 5;
/// The building (AP layout, training records, labels) is the same in every
/// run of a workload, so every run trains and serves the same model; --seed
/// draws the traffic: scan positions and floors, chunks and send times.
constexpr std::uint64_t kBuildingSeed = 1;
constexpr int kSetupSpawns = 11;
constexpr std::size_t kRestarts = 5;
constexpr double kWarmupSeconds = 0.5;
/// Scans checked through the daemon before the restart, and after each.
constexpr std::size_t kGateScansBefore = 100;
constexpr std::size_t kGateScansAfter = 50;
/// In-process scans of the traced run's layer probes.
constexpr std::size_t kLayerScans = 300;
/// Verification threads (the daemon is stopped while they run).
constexpr std::size_t kVerifyThreads = 3;

struct Workload {
  const char* name;
  bool tower;  // hk-office-tower-2 instead of the campus building
  int records_per_floor;
  std::size_t predict_conns;  // main phase and capacity search
  double predict_rate;        // main phase, predicts per second
  bool search;                // capacity search after the main phase
  double chunk_rate;          // Submit chunks per second
  // Chunks stream beside the main predicts, and the daemon is restarted
  // on its store and journal afterwards.
  bool mixed;
  // Shares of --seconds; the capacity search takes extra time (it runs
  // until its resolution is reached, about 6 s).
  double main_share;
  double ingest_share;  // separate ingest phase (serve workloads)
};

// Rates here are the ones BENCHMARK.json's workload descriptions state.
constexpr Workload kWorkloads[] = {
    {"serve-light", false, 200, 1, 100.0, false, 12.0, false, 0.5, 0.2},
    {"serve-heavy", false, 200, 4, 800.0, true, 12.0, false, 0.5, 0.2},
    {"ingest-mixed", true, 80, 1, 80.0, false, 5.0, true, 0.7, 0.0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string daemon;
  std::string work_dir;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool inject_mismatch = false;
  bool checkpoint_before_restart = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (flag == "--checkpoint-before-restart") {
      args.checkpoint_before_restart = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--daemon") args.daemon = value;
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--out-dir") args.out_dir = value;
    else if (flag == "--git-sha") args.git_sha = value;
    else if (flag == "--source-digest") args.source_digest = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (args.daemon.empty() || args.work_dir.empty() || args.out_dir.empty()) {
    throw std::runtime_error("--daemon, --work-dir and --out-dir are required");
  }
  if (args.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return args;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// p-quantile of latencies where failed/unanswered requests count as
/// infinitely late (they miss any latency limit).
double LatencyQuantile(const std::vector<const Result*>& results, double q) {
  std::vector<double> latencies;
  for (const Result* r : results) {
    latencies.push_back(r->failed() || r->done < 0 ? INFINITY
                                                   : r->latency());
  }
  return Quantile(latencies, q);
}

/// Tail of a long phase: the median of the q-quantiles of consecutive
/// windows of at least kWindowRequests requests (one window when the phase
/// is shorter), so a single host stall moves one window, not the metric.
constexpr std::size_t kWindowRequests = 1000;
double WindowedQuantile(const std::vector<const Result*>& results, double q) {
  const std::size_t windows =
      std::max<std::size_t>(results.size() / kWindowRequests, 1);
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = results.size() * w / windows;
    const std::size_t end = results.size() * (w + 1) / windows;
    tails.push_back(LatencyQuantile(
        std::vector<const Result*>(results.begin() + begin,
                                   results.begin() + end),
        q));
  }
  return Median(tails);
}

/// Prints one line per metric and returns the table as a JSON object.
std::string PrintTable(const MetricTable& table, const char* note) {
  std::string json = "{";
  for (const auto& [name, metric] : table) {
    std::printf("  %-34s %16.6f %s%s\n", name.c_str(), metric.value,
                metric.unit.c_str(), note);
    json += std::string(json.size() > 1 ? ", " : "") + JsonString(name) +
            ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return json + "}";
}

struct Phase {
  std::string name;
  PhaseResult result;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args),
        workload_(workload),
        model_name_(workload.tower ? "tower" : "campus"),
        rng_(args.seed * 0x9E3779B97F4A7C15ULL + 17),
        search_rng_(args.seed * 0x9E3779B97F4A7C15ULL + 29),
        tracer_(args.trace) {}

  int Run();

 private:
  rf::SignalRecord NewScan(grafics::Rng& rng);
  std::uint32_t AddScans(std::size_t count, grafics::Rng& rng);
  std::uint32_t AddChunks(std::size_t count);
  std::vector<Send> Poisson(double rate, double seconds, std::size_t conns,
                            grafics::Rng& rng);
  std::vector<Send> ChunkStream(double rate, double seconds);
  PhaseResult RunPhase(const std::string& name, Plan plan);
  double SearchCapacity(std::size_t conns);
  bool Probe(double rate, std::size_t conns, double seconds);
  Scrape ScrapeMetrics();
  void GateThroughDaemon(std::uint32_t first, std::size_t count);
  std::size_t Verify(const core::Grafics& base);

  const Args& args_;
  const Workload& workload_;
  const std::string model_name_;
  // Every input drawn before the capacity search comes from rng_ and the
  // simulator in a fixed order; the search, whose length depends on
  // timing, draws last and from search_rng_. The same seed therefore gives
  // the same inputs to every phase.
  grafics::Rng rng_;
  grafics::Rng search_rng_;
  Tracer tracer_;
  std::unique_ptr<synth::BuildingSimulator> sim_;
  std::vector<rf::SignalRecord> scans_;  // unlabeled, sent once each
  std::vector<rf::FloorId> truth_;
  std::vector<std::vector<rf::SignalRecord>> chunks_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Loadgen> loadgen_;
  std::vector<Phase> phases_;
  // Gate probes: scans answered after all chunks were folded.
  std::vector<std::uint32_t> gate_items_;
  std::vector<std::optional<rf::FloorId>> gate_answers_;
  // Reference-chain costs (Clone / Update / owned bytes per chunk).
  std::vector<double> clone_us_;
  std::vector<double> update_us_per_record_;
  std::vector<double> owned_bytes_;
  MetricTable metrics_;      // bounded in BENCHMARK.json
  MetricTable report_only_;  // printed and reported, not bounded (README)
};

rf::SignalRecord Bench::NewScan(grafics::Rng& rng) {
  // Floor and position come from the run's generator, so each seed sends
  // its own scans of the fixed building; empty scans are redrawn.
  const synth::BuildingSpec& spec = sim_->spec();
  const int floor = static_cast<int>(rng.UniformInt(0, spec.num_floors - 1));
  while (true) {
    const synth::Point position{
        rng.Uniform(0.0, spec.floor_width_m),
        rng.Uniform(0.0, spec.floor_depth_m),
        static_cast<double>(floor) * spec.floor_height_m + 1.2};
    rf::SignalRecord scan = sim_->MeasureAt(position, floor);
    if (!scan.empty()) return scan;
  }
}

std::uint32_t Bench::AddScans(std::size_t count, grafics::Rng& rng) {
  const auto first = static_cast<std::uint32_t>(scans_.size());
  for (std::size_t i = 0; i < count; ++i) {
    rf::SignalRecord scan = NewScan(rng);
    truth_.push_back(*scan.floor());
    scan.set_floor(std::nullopt);
    scans_.push_back(std::move(scan));
  }
  return first;
}

std::uint32_t Bench::AddChunks(std::size_t count) {
  const auto first = static_cast<std::uint32_t>(chunks_.size());
  for (std::size_t c = 0; c < count; ++c) {
    std::vector<rf::SignalRecord> chunk;
    for (std::size_t i = 0; i < kChunkRecords; ++i) {
      rf::SignalRecord record = NewScan(rng_);
      record.set_floor(std::nullopt);
      chunk.push_back(std::move(record));
    }
    chunks_.push_back(std::move(chunk));
  }
  return first;
}

std::vector<Send> Bench::Poisson(double rate, double seconds,
                                 std::size_t conns, grafics::Rng& rng) {
  // A Poisson process conditioned on its count: the arrival times of `n`
  // events are sorted uniform draws. Fixing n removes count noise.
  const auto n = static_cast<std::size_t>(std::lround(rate * seconds));
  std::vector<double> times(n);
  for (double& t : times) t = rng.NextDouble() * seconds;
  std::sort(times.begin(), times.end());
  const std::uint32_t first = AddScans(n, rng);
  std::vector<Send> schedule;
  for (std::size_t i = 0; i < n; ++i) {
    schedule.push_back(Send{times[i], Op::kPredict,
                            static_cast<std::uint32_t>(i % conns),
                            first + static_cast<std::uint32_t>(i)});
  }
  return schedule;
}

std::vector<Send> Bench::ChunkStream(double rate, double seconds) {
  // A gateway uploading one chunk every 1/rate seconds (after a random
  // phase). The count is a whole number of compaction intervals plus
  // kReplayChunks, so every run leaves the same journal suffix for the
  // restarts to replay.
  const std::size_t n =
      std::max<std::size_t>(
          static_cast<std::size_t>(rate * seconds) / kCompactEvery, 1) *
          kCompactEvery +
      kReplayChunks;
  const double period = seconds / static_cast<double>(n);
  const double phase = rng_.NextDouble() * period;
  const std::uint32_t first = AddChunks(n);
  std::vector<Send> schedule;
  for (std::size_t i = 0; i < n; ++i) {
    schedule.push_back(Send{phase + period * static_cast<double>(i),
                            Op::kSubmit, 0,
                            first + static_cast<std::uint32_t>(i)});
  }
  return schedule;
}

PhaseResult Bench::RunPhase(const std::string& name, Plan plan) {
  PhaseResult result = loadgen_->Run(plan);
  phases_.push_back(Phase{name, result});
  return result;
}

bool Bench::Probe(double rate, std::size_t conns, double seconds) {
  // A failed probe is repeated once: one scheduler hiccup on a shared host
  // must not end the search, a real overload fails twice.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Plan plan;
    plan.schedule = Poisson(rate, seconds, conns, search_rng_);
    plan.predict_conns = conns;
    plan.slo_abort_s = kSloSeconds;
    plan.drain_s = 2.0;
    const PhaseResult result = RunPhase("search", std::move(plan));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::vector<const Result*> all;
    bool failed = result.aborted;
    for (const Result& r : result.results) {
      all.push_back(&r);
      failed = failed || r.failed();
    }
    if (failed || LatencyQuantile(all, 0.99) > kSloSeconds) continue;
    // No growing backlog: the last quarter of the probe must not wait
    // longer than the first (an overload grows the queue linearly).
    const std::size_t quarter = all.size() / 4;
    const std::vector<const Result*> head(all.begin(), all.begin() + quarter);
    const std::vector<const Result*> tail(all.end() - quarter, all.end());
    if (LatencyQuantile(tail, 0.5) - LatencyQuantile(head, 0.5) >
        kBacklogGrowthSeconds) {
      continue;
    }
    return true;
  }
  return false;
}

double Bench::SearchCapacity(std::size_t conns) {
  // Closed-loop estimate first, so the bisection starts near the knee.
  constexpr double kClosedSeconds = 0.4;
  constexpr std::size_t kWindow = 16;
  const std::uint32_t first = AddScans(
      static_cast<std::size_t>(5000 * kClosedSeconds), search_rng_);
  Plan closed;
  closed.predict_conns = conns;
  closed.window = kWindow;
  closed.closed_seconds = kClosedSeconds;
  closed.closed_first_item = first;
  closed.closed_end_item = static_cast<std::uint32_t>(scans_.size());
  const PhaseResult estimate = RunPhase("search", std::move(closed));
  double completed = 0;
  for (const Result& r : estimate.results) {
    if (!r.failed() && r.done >= 0 &&
        r.done <= estimate.start + kClosedSeconds) {
      ++completed;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double capacity = std::max(completed / kClosedSeconds, 20.0);
  const double probe_s = kProbeSeconds;

  double lo = 0.7 * capacity;
  double hi = 1.1 * capacity;
  bool lo_ok = false;
  for (int raise = 0; raise < 4 && Probe(hi, conns, probe_s); ++raise) {
    lo = hi;
    lo_ok = true;
    hi *= 1.25;
  }
  while (hi / lo > kSearchStep) {
    const double mid = std::sqrt(lo * hi);
    if (Probe(mid, conns, probe_s)) {
      lo = mid;
      lo_ok = true;
    } else {
      hi = mid;
    }
  }
  for (int lower = 0; !lo_ok && lower < 6; ++lower) {
    if (Probe(lo, conns, probe_s)) {
      lo_ok = true;
    } else {
      lo /= 1.5;
    }
  }
  if (!lo_ok) {
    throw std::runtime_error("capacity search found no rate meeting the SLO");
  }
  return lo;
}

Scrape Bench::ScrapeMetrics() {
  wire::Client client("127.0.0.1", daemon_->port());
  return Scrape(client.Metrics());
}

void Bench::GateThroughDaemon(std::uint32_t first, std::size_t count) {
  const std::vector<rf::SignalRecord> batch(scans_.begin() + first,
                                            scans_.begin() + first + count);
  wire::Client client("127.0.0.1", daemon_->port());
  const auto served = client.PredictBatch(batch, model_name_, 1);
  for (std::size_t i = 0; i < served.size(); ++i) {
    gate_items_.push_back(first + static_cast<std::uint32_t>(i));
    gate_answers_.push_back(served[i]);
  }
}

/// Recomputes every served answer in process: version v of the model is
/// the loaded artifact with the first v chunks applied through Clone +
/// Update, exactly the daemon's fold sequence. Returns the mismatch count.
std::size_t Bench::Verify(const core::Grafics& base) {
  // Versions each predict may have been answered by.
  std::map<std::uint32_t, std::set<std::uint32_t>> needed;
  const auto final_version = static_cast<std::uint32_t>(chunks_.size());
  for (const Phase& phase : phases_) {
    for (const Result& r : phase.result.results) {
      if (r.op != Op::kPredict || r.done < 0 || r.failed()) continue;
      for (std::uint32_t v = r.version_lo; v <= r.version_hi; ++v) {
        needed[v].insert(r.item);
      }
    }
  }
  for (std::uint32_t item : gate_items_) needed[final_version].insert(item);

  std::unordered_map<std::uint64_t, std::optional<rf::FloorId>> reference;
  const auto key = [](std::uint32_t v, std::uint32_t item) {
    return (static_cast<std::uint64_t>(v) << 32) | item;
  };
  core::Grafics current = base.Clone();
  for (std::uint32_t v = 0; v <= final_version; ++v) {
    if (v > 0) {
      const double t0 = Now();
      core::Grafics next = current.Clone();
      const double t1 = Now();
      next.Update(chunks_[v - 1]);
      const double t2 = Now();
      clone_us_.push_back((t1 - t0) * 1e6);
      update_us_per_record_.push_back((t2 - t1) * 1e6 / kChunkRecords);
      owned_bytes_.push_back(
          static_cast<double>(next.MemoryBytes().owned_bytes));
      current = std::move(next);
    }
    const auto it = needed.find(v);
    if (it == needed.end()) continue;
    std::vector<std::uint32_t> items(it->second.begin(), it->second.end());
    std::vector<rf::SignalRecord> records;
    for (std::uint32_t item : items) records.push_back(scans_[item]);
    grafics::core::BatchPredictOptions options;
    options.num_threads = records.size() >= 64 ? kVerifyThreads : 1;
    const auto answers = std::as_const(current).PredictBatch(records, options);
    for (std::size_t i = 0; i < items.size(); ++i) {
      reference[key(v, items[i])] = answers[i];
    }
  }

  std::size_t mismatches = 0;
  bool injected = !args_.inject_mismatch;
  const auto check = [&](std::optional<rf::FloorId> served,
                         std::uint32_t item, std::uint32_t lo,
                         std::uint32_t hi) {
    if (!injected && served.has_value()) {
      served = *served + 1;  // the gate's self-test: one corrupted answer
      injected = true;
    }
    for (std::uint32_t v = lo; v <= hi; ++v) {
      if (reference.at(key(v, item)) == served) return;
    }
    if (mismatches++ < 5) {
      std::fprintf(stderr,
                   "perfbench: answer mismatch for scan %u (versions %u..%u)\n",
                   item, lo, hi);
    }
  };
  for (const Phase& phase : phases_) {
    for (const Result& r : phase.result.results) {
      if (r.op != Op::kPredict || r.done < 0 || r.failed()) continue;
      check(r.floor, r.item, r.version_lo, r.version_hi);
    }
  }
  for (std::size_t i = 0; i < gate_items_.size(); ++i) {
    check(gate_answers_[i], gate_items_[i], final_version, final_version);
  }
  return mismatches;
}

int Bench::Run() {
  const double run_start = Now();
  const double S = args_.seconds;
  fs::create_directories(args_.work_dir);
  fs::create_directories(args_.out_dir);

  // --- building, training, artifact -------------------------------------
  const synth::BuildingConfig building =
      workload_.tower
          ? synth::HongKongFleet(kBuildingSeed, workload_.records_per_floor)[1]
          : synth::CampusBuildingConfig(kBuildingSeed,
                                        workload_.records_per_floor);
  sim_ = std::make_unique<synth::BuildingSimulator>(building.MakeSimulator());
  rf::Dataset dataset = sim_->GenerateDataset();
  grafics::Rng label_rng(kBuildingSeed);
  dataset.KeepLabelsPerFloor(kLabelsPerFloor, label_rng);
  // Library defaults. Training is deterministic, so the two repeats later
  // in the run (while the daemon is idle or stopped) yield the same model.
  // Neighbours on a shared host only ever slow the same computation down,
  // so the fastest of the three is the estimate they disturb least.
  std::vector<double> train_s;
  const auto train = [&] {
    core::Grafics model;
    const double train_start = Now();
    model.Train(dataset.records());
    train_s.push_back(Now() - train_start);
    return model;
  };
  const core::Grafics trained = train();
  const std::string model_path = args_.work_dir + "/model.bin";
  trained.SaveModel(model_path);
  const core::Grafics base = core::Grafics::LoadModel(model_path);

  // --- daemon set-up -----------------------------------------------------
  DaemonPaths paths;
  paths.binary = args_.daemon;
  paths.model_name = model_name_;
  paths.model_path = fs::absolute(model_path).string();
  paths.journal_dir = fs::absolute(args_.work_dir + "/journal").string();
  paths.store_dir = fs::absolute(args_.work_dir + "/store").string();
  paths.run_dir = fs::absolute(args_.work_dir).string();
  daemon_ = std::make_unique<Daemon>(paths);
  std::vector<double> setup;
  for (int i = 0; i < kSetupSpawns; ++i) {
    setup.push_back(daemon_->StartAndWaitReady());
  }
  metrics_["setup_s"] = {Median(setup), "s"};
  loadgen_ = std::make_unique<Loadgen>(daemon_->port(), model_name_, &scans_,
                                       &chunks_, kChunkRecords);
  const Scrape first_scrape = ScrapeMetrics();

  // --- traffic -----------------------------------------------------------
  const auto main_plan = [&](double seconds, bool with_chunks) {
    Plan plan;
    plan.schedule = Poisson(workload_.predict_rate, seconds,
                            workload_.predict_conns, rng_);
    plan.predict_conns = workload_.predict_conns;
    if (with_chunks) {
      const std::vector<Send> chunks =
          ChunkStream(workload_.chunk_rate, seconds);
      plan.schedule.insert(plan.schedule.end(), chunks.begin(), chunks.end());
      std::sort(plan.schedule.begin(), plan.schedule.end(),
                [](const Send& a, const Send& b) { return a.due < b.due; });
      plan.ingest = true;
      plan.compact_every = kCompactEvery;
    }
    return plan;
  };
  // Every fixed input first (see rng_), the timing-dependent search last.
  Plan warmup = main_plan(kWarmupSeconds, false);
  Plan plan = main_plan(workload_.main_share * S, workload_.mixed);
  Plan ingest;
  if (!workload_.mixed) {
    ingest.schedule =
        ChunkStream(workload_.chunk_rate, workload_.ingest_share * S);
    ingest.ingest = true;
    ingest.compact_every = kCompactEvery;
  }
  const std::size_t restarts = workload_.mixed ? kRestarts : 0;
  const std::uint32_t gate_before = AddScans(kGateScansBefore, rng_);
  const std::uint32_t gate_after = AddScans(kGateScansAfter * restarts, rng_);
  const std::uint32_t layer_first = AddScans(kLayerScans, rng_);

  RunPhase("warmup", std::move(warmup));
  const Scrape before_main = ScrapeMetrics();
  if (args_.trace) {
    // Alternate one-second blocks with and without spans: the difference
    // of the two halves' p50 is the tracing overhead.
    plan.tracer = &tracer_;
    plan.traced = [](double due) {
      return static_cast<long>(due) % 2 == 1;
    };
  }
  const std::size_t main_index = phases_.size();
  RunPhase("main", std::move(plan));
  const Scrape after_main = ScrapeMetrics();
  metrics_["peak_rss_mb"] = {daemon_->PeakRssMb(), "MB"};
  if (workload_.search) {
    report_only_["max_qps_at_slo"] = {
        SearchCapacity(workload_.predict_conns), "1/s"};
  }
  train();
  // Serve workloads fold their chunks in a phase of their own, after the
  // predicts, so the ingest and store layers are measured on every
  // workload without touching its latency phase.
  std::size_t ingest_index = main_index;
  Scrape before_ingest = before_main;
  if (!workload_.mixed) {
    before_ingest = ScrapeMetrics();
    ingest_index = phases_.size();
    RunPhase("ingest", std::move(ingest));
  }
  const Scrape after_ingest = ScrapeMetrics();
  for (const Phase& phase : phases_) {
    if (phase.result.compact_failures > 0) {
      throw std::runtime_error("a Compact RPC failed");
    }
  }

  // All chunks are folded (the generator waited for each to be visible);
  // read the ingest and store state, then check answers before restarting.
  wire::IngestStatsResponse ingest_stats;
  wire::StatsResponse serve_stats;
  {
    wire::Client client("127.0.0.1", daemon_->port());
    ingest_stats = client.IngestStats(model_name_);
    serve_stats = client.Stats(model_name_);
  }
  const std::string backend =
      after_ingest.LabelOf("grafics_simd_backend", "backend");
  if (ingest_stats.models.empty() ||
      ingest_stats.models[0].folded != chunks_.size() * kChunkRecords) {
    throw std::runtime_error("daemon did not fold every submitted chunk");
  }
  GateThroughDaemon(gate_before, kGateScansBefore);
  // One explicit Checkpoint per run. With restarts (ingest-mixed) it is
  // written by the last restarted daemon, after its answers were read: a
  // restart that follows an explicit Checkpoint re-applies the journal
  // suffix the checkpoint already holds, and --checkpoint-before-restart
  // reproduces that.
  Scrape before_checkpoint;
  Scrape after_checkpoint;
  wire::ListArtifactsResponse artifacts;
  const auto checkpoint = [&] {
    before_checkpoint = ScrapeMetrics();
    wire::Client client("127.0.0.1", daemon_->port());
    if (!client.Checkpoint(model_name_).ok) {
      throw std::runtime_error("Checkpoint RPC failed");
    }
    artifacts = client.ListArtifacts(model_name_);
    after_checkpoint = ScrapeMetrics();
  };
  if (args_.checkpoint_before_restart) checkpoint();

  std::vector<double> restore;
  for (std::size_t i = 0; i < restarts; ++i) {
    daemon_->Stop();
    restore.push_back(daemon_->StartAndWaitReady());
    GateThroughDaemon(
        gate_after + static_cast<std::uint32_t>(i * kGateScansAfter),
        kGateScansAfter);
  }
  if (!restore.empty()) {
    // Like training, a restart's work is deterministic: take the fastest.
    report_only_["restore_s"] = {
        *std::min_element(restore.begin(), restore.end()), "s"};
  }
  if (!args_.checkpoint_before_restart) checkpoint();
  daemon_->Stop();

  train();
  report_only_["train_s"] = {
      *std::min_element(train_s.begin(), train_s.end()), "s"};

  // --- correctness gate ---------------------------------------------------
  const std::size_t mismatches = Verify(base);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: %zu served answer(s) differ from the in-process "
                 "reference; no metrics reported\n",
                 mismatches);
    return 3;
  }

  // --- end-to-end metrics ------------------------------------------------
  const PhaseResult& main = phases_[main_index].result;
  std::vector<const Result*> predicts;
  std::vector<const Result*> predicts_untraced;
  std::vector<const Result*> predicts_traced;
  for (const Result& r : main.results) {
    if (r.op != Op::kPredict) continue;
    predicts.push_back(&r);
    (r.traced ? predicts_traced : predicts_untraced).push_back(&r);
  }
  metrics_["p50_ms"] = {LatencyQuantile(predicts_untraced, 0.5) * 1e3, "ms"};
  std::vector<const Result*> submits;
  std::vector<double> fresh;
  for (const Result& r : phases_[ingest_index].result.results) {
    if (r.op != Op::kSubmit) continue;
    submits.push_back(&r);
    fresh.push_back(r.visible < 0 ? INFINITY : r.visible - r.due);
  }
  report_only_["fresh_p50_ms"] = {Quantile(fresh, 0.5) * 1e3, "ms"};
  report_only_["p99_ms"] = {
      WindowedQuantile(predicts_untraced, 0.99) * 1e3, "ms"};
  report_only_["submit_p50_ms"] = {LatencyQuantile(submits, 0.5) * 1e3,
                                   "ms"};
  report_only_["submit_p99_ms"] = {LatencyQuantile(submits, 0.99) * 1e3,
                                   "ms"};
  report_only_["fresh_p99_ms"] = {Quantile(fresh, 0.99) * 1e3, "ms"};

  std::vector<rf::FloorId> truth;
  std::vector<std::optional<rf::FloorId>> served;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> lag;
  for (const Phase& phase : phases_) {
    for (const Result& r : phase.result.results) {
      if (r.sent < 0) continue;
      ++attempted;
      if (r.failed()) ++failed;
      lag.push_back(r.sent - r.due);
      if (r.op == Op::kPredict && !r.failed()) {
        truth.push_back(truth_[r.item]);
        served.push_back(r.floor);
      }
    }
  }
  attempted += gate_items_.size();
  const core::ClassificationMetrics scores =
      core::ComputeMetrics(truth, served);
  metrics_["micro_f1"] = {scores.micro.f_score, "ratio"};
  metrics_["macro_f1"] = {scores.macro.f_score, "ratio"};
  report_only_["fail_frac"] = {
      static_cast<double>(failed) / static_cast<double>(attempted), "ratio"};

  // --- per-layer metrics (traced run) ------------------------------------
  MetricTable layers;
  if (args_.trace) {
    const std::string label = "model=\"" + model_name_ + "\"";
    const auto hist = [&](const Scrape& a, const Scrape& b,
                          const std::string& family, bool labeled) {
      return DeltaOf(a, b, family, labeled ? label : "");
    };
    const HistogramDelta queue_wait = hist(
        before_main, after_main, "grafics_batcher_queue_wait_us", true);
    const HistogramDelta batch_predict =
        hist(before_main, after_main, "grafics_batcher_predict_us", true);
    const HistogramDelta batch_size =
        hist(before_main, after_main, "grafics_batcher_batch_size", true);
    const HistogramDelta decode = hist(
        before_main, after_main, "grafics_transport_frame_decode_us", false);
    double max_batch = 0;
    for (const auto& [edge, count] : batch_size.buckets) {
      if (std::isfinite(edge)) max_batch = edge;
    }
    layers["serve.queue_wait_us.p50"] = {queue_wait.Quantile(0.5), "us"};
    layers["serve.queue_wait_us.p99"] = {queue_wait.Quantile(0.99), "us"};
    layers["serve.predict_us.p50"] = {batch_predict.Quantile(0.5), "us"};
    layers["serve.batch_size.mean"] = {batch_size.Mean(), "count"};
    layers["serve.batch_fill"] = {
        max_batch > 0 ? batch_size.Mean() / max_batch : 0.0, "ratio"};
    layers["serve.decode_us.mean"] = {decode.Mean(), "us"};
    std::vector<double> rtt_us;
    double frame_bytes = 0;
    for (const Result* r : predicts) {
      if (r->done >= 0) rtt_us.push_back((r->done - r->sent) * 1e6);
    }
    for (const Result* r : predicts) {
      wire::PredictRequest request;
      request.model = model_name_;
      request.records.push_back(scans_[r->item]);
      wire::PredictResponse response;
      response.results.resize(1);
      response.results[0].status = r->floor.has_value()
                                       ? wire::PredictStatus::kOk
                                       : wire::PredictStatus::kDiscarded;
      response.results[0].floor = r->floor.value_or(0);
      frame_bytes += static_cast<double>(wire::EncodeFrame(request).size() +
                                         wire::EncodeFrame(response).size());
    }
    layers["serve.rtt_us.p50"] = {Median(rtt_us), "us"};
    layers["serve.busy"] = {
        CounterDelta(first_scrape, after_ingest,
                     "grafics_transport_busy_rejections_total"),
        "count"};
    layers["serve.bytes_per_query"] = {
        predicts.empty() ? 0.0
                         : frame_bytes / static_cast<double>(predicts.size()),
        "bytes"};
    layers["trace.overhead_p50_ms"] = {
        (LatencyQuantile(predicts_traced, 0.5) -
         LatencyQuantile(predicts_untraced, 0.5)) *
            1e3,
        "ms"};

    const std::vector<rf::SignalRecord> layer_scans(
        scans_.begin() + layer_first,
        scans_.begin() + layer_first + kLayerScans);
    const CodecProbe codec = ProbeCodec(layer_scans, model_name_);
    layers["protocol.encode_us"] = {codec.encode_us, "us"};
    layers["protocol.decode_us"] = {codec.decode_us, "us"};

    // Fresh scans the daemon never saw: core predict vs stage replay.
    const std::uint64_t first_request = 1ULL << 40;
    const InferenceProbe inference =
        ProbeInference(base, layer_scans, tracer_, first_request);
    if (inference.mismatches > 0) {
      throw std::runtime_error(
          "stage replay disagrees with InferenceContext::Predict on " +
          std::to_string(inference.mismatches) + " scan(s)");
    }
    const double core_p50 = Median(inference.predict_us);
    const auto stage_self = tracer_.SelfMicrosByRequest(
        {"graph.overlay_extend", "embed.grow", "embed.refine",
         "cluster.classify"});
    std::vector<double> stage_sum;
    for (const auto& [request, micros] : stage_self) {
      stage_sum.push_back(micros);
    }
    const double stage_p50 = Median(stage_sum);
    if (std::fabs(stage_p50 - core_p50) > 0.10 * core_p50) {
      throw std::runtime_error(
          "stage self times (p50 " + std::to_string(stage_p50) +
          " us) do not account for core.predict_us.p50 (" +
          std::to_string(core_p50) + " us) within 10%");
    }
    layers["core.predict_us.p50"] = {core_p50, "us"};
    layers["core.predict_us.p99"] = {Quantile(inference.predict_us, 0.99),
                                     "us"};
    layers["core.accept_ratio"] = {
        static_cast<double>(inference.accepted) /
            static_cast<double>(layer_scans.size()),
        "ratio"};
    layers["core.stage_share"] = {stage_p50 / core_p50, "ratio"};
    layers["graph.overlay_extend_us"] = {
        Median(tracer_.SelfMicros("graph.overlay_extend")), "us"};
    layers["embed.grow_us"] = {Median(tracer_.SelfMicros("embed.grow")), "us"};
    const std::vector<double> refine = tracer_.SelfMicros("embed.refine");
    layers["embed.refine_us.p50"] = {Median(refine), "us"};
    layers["embed.sgd_steps"] = {Mean(inference.sgd_steps), "count"};
    double refine_total = 0;
    double steps_total = 0;
    for (double us : refine) refine_total += us;
    for (double steps : inference.sgd_steps) steps_total += steps;
    layers["embed.ns_per_step"] = {
        steps_total > 0 ? refine_total * 1e3 / steps_total : 0.0, "ns"};
    layers["cluster.classify_us"] = {
        Median(tracer_.SelfMicros("cluster.classify")), "us"};

    const TrainProbe training =
        ProbeTraining(trained, dataset.records(), tracer_, first_request - 1);
    if (!training.matches) {
      throw std::runtime_error(
          "stage replay of Train disagrees with Grafics::Train");
    }
    layers["graph.build_s"] = {training.graph_build_s, "s"};
    layers["embed.train_s"] = {training.embed_train_s, "s"};
    layers["cluster.cluster_s"] = {training.cluster_s, "s"};

    layers["core.clone_us"] = {Median(clone_us_), "us"};
    layers["core.update_us_per_record"] = {Median(update_us_per_record_),
                                           "us"};
    layers["core.owned_bytes"] = {Median(owned_bytes_), "bytes"};

    const HistogramDelta fsync = hist(before_ingest, after_ingest,
                                      "grafics_ingest_journal_fsync_us", true);
    const HistogramDelta fold =
        hist(before_ingest, after_ingest, "grafics_ingest_fold_us", true);
    const HistogramDelta compaction = hist(
        before_ingest, after_ingest, "grafics_ingest_compaction_us", true);
    const HistogramDelta checkpoint_us =
        hist(before_checkpoint, after_checkpoint,
             "grafics_store_checkpoint_us", false);
    layers["ingest.fsync_us.p50"] = {fsync.Quantile(0.5), "us"};
    layers["ingest.fsync_us.p99"] = {fsync.Quantile(0.99), "us"};
    layers["ingest.fold_us.p50"] = {fold.Quantile(0.5), "us"};
    layers["ingest.fold_us.p99"] = {fold.Quantile(0.99), "us"};
    layers["ingest.compaction_us.mean"] = {compaction.Mean(), "us"};
    layers["ingest.backlog_max"] = {
        static_cast<double>(phases_[ingest_index].result.backlog_max),
        "count"};
    const double journal_written =
        static_cast<double>(ingest_stats.models[0].journal_bytes +
                            serve_stats.store.journal_bytes_reclaimed);
    layers["ingest.journal_bytes_per_record"] = {
        journal_written /
            static_cast<double>(chunks_.size() * kChunkRecords),
        "bytes"};
    // One checkpoint per run: the histogram's sum is its exact duration.
    layers["store.checkpoint_us"] = {checkpoint_us.Mean(), "us"};
    double delta_bytes = 0;
    double deltas = 0;
    for (const wire::ArtifactEntry& entry : artifacts.artifacts) {
      if (!entry.delta) continue;
      delta_bytes += static_cast<double>(entry.bytes);
      ++deltas;
    }
    layers["store.delta_bytes"] = {deltas > 0 ? delta_bytes / deltas : 0.0,
                                   "bytes"};
    layers["store.chain_length"] = {
        static_cast<double>(artifacts.artifacts.size()), "count"};
    // Open a copy of the run's store, as a restart would.
    const std::string copy = args_.work_dir + "/store-copy";
    fs::copy(paths.store_dir, copy, fs::copy_options::recursive);
    const double open_start = Now();
    grafics::store::ModelStore copied(copy);
    const auto opened = copied.Open(model_name_);
    const double open_end = Now();
    tracer_.Add("store.open", open_start, open_end, Tracer::kNoParent, 0);
    if (opened == nullptr) throw std::runtime_error("store copy did not open");
    layers["store.open_s"] = {open_end - open_start, "s"};

    layers["loadgen.lag_p99_ms"] = {Quantile(lag, 0.99) * 1e3, "ms"};
    layers["loadgen.sent"] = {static_cast<double>(attempted), "count"};
    layers["loadgen.failed"] = {static_cast<double>(failed), "count"};
    tracer_.WriteJson(args_.out_dir + "/trace-" + workload_.name + "-seed" +
                      std::to_string(args_.seed) + ".json");
  }

  // --- report ------------------------------------------------------------
  const MetricTable& reported = args_.trace ? layers : metrics_;
  std::string phases_json = "[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    std::size_t sent = 0, ok = 0, bad = 0;
    for (const Result& r : phases_[i].result.results) {
      if (r.sent < 0) continue;
      ++sent;
      if (r.failed()) ++bad; else ++ok;
    }
    phases_json += std::string(i == 0 ? "" : ", ") + "{\"phase\": " +
                   JsonString(phases_[i].name) + ", \"sent\": " +
                   std::to_string(sent) + ", \"succeeded\": " +
                   std::to_string(ok) + ", \"failed\": " +
                   std::to_string(bad) + "}";
  }
  phases_json += "]";
  std::printf("perfbench %s seed %llu trace %d: correctness gate passed "
              "(%zu answers checked)\n",
              workload_.name, static_cast<unsigned long long>(args_.seed),
              args_.trace ? 1 : 0, served.size() + gate_items_.size());
  const std::string metrics_json = PrintTable(reported, "");
  const std::string report_only_json =
      PrintTable(report_only_, " (report only)");
  const std::string env =
      "{\"git_sha\": " + JsonString(args_.git_sha) +
      ", \"source_digest\": " + JsonString(args_.source_digest) +
      ", \"cpu\": " + JsonString(CpuModel()) + ", \"nproc\": " +
      std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"seed\": " + std::to_string(args_.seed) +
      ", \"simd_backend\": " + JsonString(backend) + "}";
  const std::string report =
      "{\"workload\": " + JsonString(workload_.name) +
      ", \"trace\": " + (args_.trace ? "1" : "0") + ", \"seconds\": " +
      JsonNumber(S) + ", \"wall_s\": " + JsonNumber(Now() - run_start) +
      ", \"environment\": " + env + ", \"phases\": " + phases_json +
      ", \"report_only\": " + report_only_json +
      ", \"samples\": {\"setup_s\": " + JsonArray(setup) +
      ", \"train_s\": " + JsonArray(train_s) +
      ", \"restore_s\": " + JsonArray(restore) + "}" +
      ", \"metrics\": " + metrics_json + "}";
  {
    std::ofstream out(args_.out_dir + "/report-" + workload_.name + "-seed" +
                      std::to_string(args_.seed) + "-trace" +
                      (args_.trace ? "1" : "0") + ".json");
    out << report << "\n";
  }
  std::printf("report %s\n", report.c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              attempted, failed, metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::ParseArgs(argc, argv);
    for (const perfbench::Workload& workload : perfbench::kWorkloads) {
      if (args.workload == workload.name) {
        perfbench::Bench bench(args, workload);
        return bench.Run();
      }
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
