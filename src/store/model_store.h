// Unified model persistence: named artifact chains + crash-safe manifests.
//
// A ModelStore owns every on-disk representation of a served model:
//
//  * base artifacts — full Grafics snapshots (Grafics::SaveModel), one per
//    chain start;
//  * delta checkpoints — only the copy-on-write chunks a snapshot owns
//    relative to the previous generation (Grafics::SaveDelta), so
//    checkpointing a K-record fold costs O(owned chunks), not O(model);
//  * a per-model manifest listing the chain plus the active journal epoch,
//    committed by write-temp + fsync + rename — the rename is the single
//    atomic commit point for both "artifact exists" and "journal truncated",
//    which is what makes compaction crash-safe (docs/persistence.md).
//
// Open(name, generation) resolves a generation (0 = latest) to its nearest
// base plus the delta chain behind it and replays the deltas in order; the
// result is bit-identical to the snapshot that was checkpointed, folds and
// sampler state included. Generations are never rewritten, so any recorded
// generation doubles as a rollback point.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_sync.h"
#include "core/grafics.h"
#include "obs/metrics.h"

namespace grafics::store {

/// One entry of a model's artifact chain.
struct ArtifactInfo {
  std::uint64_t generation = 0;
  bool is_delta = false;
  /// True for artifacts recorded by ImportBase: `file` is then the external
  /// path as given (by reference, never copied into the store directory).
  bool external = false;
  /// File name inside the store directory, or the external path.
  std::string file;
  std::uint64_t bytes = 0;
};

/// Store-wide artifact totals, surfaced through protocol v6 store stats.
struct ArtifactCounts {
  std::uint64_t base_count = 0;
  std::uint64_t delta_count = 0;
};

/// An artifact written durably to disk but not yet referenced by any
/// manifest — invisible to Open until CommitStaged renames the manifest.
struct StagedArtifact {
  std::uint64_t generation = 0;
  bool is_delta = false;
  std::string file;
  std::uint64_t bytes = 0;
};

class ModelStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. Checkpoint
  /// durations and the artifact-count gauges (set from the manifests found
  /// here, then at every commit) live in `obs`; one store per obs registry.
  explicit ModelStore(
      std::string dir,
      std::shared_ptr<obs::Registry> obs = std::make_shared<obs::Registry>());

  const std::string& dir() const { return dir_; }

  /// Loads the model at `generation` (0 = latest): nearest base artifact
  /// plus every delta up to the generation, applied in order. Throws when
  /// the model or generation is unknown. Opening the latest generation
  /// retains the loaded snapshot as the delta base for future checkpoints;
  /// opening an older one (rollback) does not — the next checkpoint then
  /// starts a fresh base chain.
  std::shared_ptr<const core::Grafics> Open(const std::string& name,
                                            std::uint64_t generation = 0);

  /// Latest generation of `name`, or 0 when the store has never seen it.
  std::uint64_t LatestGeneration(const std::string& name) const;

  std::vector<ArtifactInfo> List(const std::string& name) const;
  std::vector<std::string> ListModels() const;
  /// Artifact totals across every model, read off the store's gauges.
  ArtifactCounts Counts() const;

  /// Writes a full snapshot as the next generation and commits it.
  std::uint64_t WriteBase(const std::string& name,
                          std::shared_ptr<const core::Grafics> model);

  /// Writes the next generation and commits it: a delta checkpoint against
  /// the retained previous generation when the model is a fold-descendant
  /// of it (Grafics::DeltaCompatible), a full base otherwise. Reports what
  /// was written through `info` when non-null.
  std::uint64_t WriteCheckpoint(const std::string& name,
                                std::shared_ptr<const core::Grafics> model,
                                StagedArtifact* info = nullptr);

  /// Records an externally produced artifact file (daemon --model
  /// NAME=PATH) as the next generation without copying it. Re-importing the
  /// path that is already the latest generation is a no-op returning that
  /// generation, so daemon restarts do not grow the chain.
  std::uint64_t ImportBase(const std::string& name, const std::string& path);

  /// Compaction protocol, used by ingest::IngestPipeline. StageCheckpoint
  /// writes the artifact file durably WITHOUT touching the manifest; after
  /// the caller has made the replacement journal epoch durable,
  /// CommitStaged publishes artifact + epoch in one atomic manifest rename.
  /// A crash between the two leaves the manifest — and therefore restart
  /// behavior — exactly as before the stage.
  StagedArtifact StageCheckpoint(const std::string& name,
                                 std::shared_ptr<const core::Grafics> model);
  void CommitStaged(const std::string& name, const StagedArtifact& staged,
                    std::uint64_t journal_epoch,
                    std::shared_ptr<const core::Grafics> model);

  /// Journal epoch the manifest points at (0 for legacy/unknown models).
  /// The epoch names the journal file the ingest pipeline must replay.
  std::uint64_t JournalEpoch(const std::string& name) const;

  /// Percent-encodes `name` into a filesystem-safe file stem; the same
  /// scheme the ingest journal uses, so store and journal files for one
  /// model sort together.
  static std::string EncodedFileStem(const std::string& name);

 private:
  struct Manifest {
    std::uint64_t journal_epoch = 0;
    std::vector<ArtifactInfo> artifacts;
  };

  std::string ManifestPath(const std::string& name) const;
  std::string ArtifactPath(const ArtifactInfo& info) const;
  Manifest ReadManifest(const std::string& name) const;
  void WriteManifest(const std::string& name, const Manifest& manifest) const;
  StagedArtifact StageLocked(const std::string& name,
                             const std::shared_ptr<const core::Grafics>& model)
      GRAFICS_REQUIRES(mutex_);
  void CommitLocked(const std::string& name, const StagedArtifact& staged,
                    std::uint64_t journal_epoch,
                    const std::shared_ptr<const core::Grafics>& model)
      GRAFICS_REQUIRES(mutex_);
  /// Writes `manifest`, whose last artifact is new, and counts that
  /// artifact in the gauges.
  void AppendManifest(const std::string& name, const Manifest& manifest)
      GRAFICS_REQUIRES(mutex_);
  obs::Gauge* ChainLength(const std::string& name) const;
  /// Records one committed checkpoint's duration.
  void ObserveCheckpoint(std::chrono::steady_clock::time_point started) const;

  std::string dir_;
  const std::shared_ptr<obs::Registry> obs_;
  obs::Histogram* const checkpoint_us_;
  obs::Gauge* const base_artifacts_;
  obs::Gauge* const delta_artifacts_;
  mutable Mutex mutex_;
  /// Last committed generation's in-memory snapshot per model: the base the
  /// next delta checkpoint diffs against (chunk identity, not content).
  std::map<std::string, std::shared_ptr<const core::Grafics>> retained_
      GRAFICS_GUARDED_BY(mutex_);
};

}  // namespace grafics::store
