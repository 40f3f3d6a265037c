#include "store/model_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"
#include "ingest/record_journal.h"  // Crc32

namespace grafics::store {

namespace {

constexpr char kManifestMagic[4] = {'G', 'M', 'A', 'N'};
constexpr std::uint32_t kManifestVersion = 1;
constexpr char kManifestSuffix[] = ".manifest";

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Best-effort directory fsync so a just-renamed file survives power loss.
/// Some filesystems reject fsync on directories; that only weakens
/// durability, never consistency, so failures are ignored.
void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Writes `content` to `path` atomically: temp file + fsync + rename. The
/// file either keeps its previous content or holds all of `content`.
void WriteFileDurably(const std::string& dir, const std::string& path,
                      const std::string& content) {
  const std::string temp = path + ".tmp";
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  Require(fd >= 0, ErrnoMessage("ModelStore: cannot create " + temp));
  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(temp.c_str());
      throw Error(ErrnoMessage("ModelStore: cannot write " + temp));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(temp.c_str());
    throw Error(ErrnoMessage("ModelStore: cannot fsync " + temp));
  }
  ::close(fd);
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    throw Error(ErrnoMessage("ModelStore: cannot rename " + temp));
  }
  FsyncDir(dir);
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st = {};
  Require(::stat(path.c_str(), &st) == 0,
          ErrnoMessage("ModelStore: cannot stat " + path));
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

std::string ModelStore::EncodedFileStem(const std::string& name) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string stem;
  stem.reserve(name.size());
  for (const char c : name) {
    const auto byte = static_cast<unsigned char>(c);
    const bool safe =
        (byte >= 'A' && byte <= 'Z') || (byte >= 'a' && byte <= 'z') ||
        (byte >= '0' && byte <= '9') || byte == '.' || byte == '_' ||
        byte == '-';
    if (safe) {
      stem.push_back(c);
    } else {
      stem.push_back('%');
      stem.push_back(kHex[byte >> 4]);
      stem.push_back(kHex[byte & 0xF]);
    }
  }
  return stem;
}

ModelStore::ModelStore(std::string dir, std::shared_ptr<obs::Registry> obs)
    : dir_(std::move(dir)),
      obs_(std::move(obs)),
      checkpoint_us_(obs_->GetHistogram(
          "grafics_store_checkpoint_us",
          "Microseconds one committed checkpoint (stage + manifest commit) "
          "took.",
          obs::DefaultLatencyBucketsUs())),
      base_artifacts_(obs_->GetGauge("grafics_store_base_artifacts",
                                     "Base artifacts across every model.")),
      delta_artifacts_(
          obs_->GetGauge("grafics_store_delta_artifacts",
                         "Delta checkpoints across every model.")) {
  Require(!dir_.empty(), "ModelStore: empty directory");
  ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine
  struct stat st = {};
  Require(::stat(dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode),
          "ModelStore: cannot create directory " + dir_);
  // Count what earlier runs committed; commits through this store keep the
  // gauges current from here on.
  ArtifactCounts totals;
  for (const std::string& name : ListModels()) {
    std::vector<ArtifactInfo> chain;
    try {
      chain = List(name);
    } catch (const Error&) {
      continue;  // a corrupt manifest fails on Open; ListModels skips it too
    }
    for (const ArtifactInfo& info : chain) {
      ++(info.is_delta ? totals.delta_count : totals.base_count);
    }
    ChainLength(name)->Set(static_cast<std::int64_t>(chain.size()));
  }
  base_artifacts_->Set(static_cast<std::int64_t>(totals.base_count));
  delta_artifacts_->Set(static_cast<std::int64_t>(totals.delta_count));
}

std::string ModelStore::ManifestPath(const std::string& name) const {
  return dir_ + "/" + EncodedFileStem(name) + kManifestSuffix;
}

std::string ModelStore::ArtifactPath(const ArtifactInfo& info) const {
  return info.external ? info.file : dir_ + "/" + info.file;
}

namespace {

/// Parses a manifest file into (model name, epoch, artifacts). The file is
/// rename-committed so it is either the previous or the new version in
/// full; the trailing CRC turns any other state into a loud error instead
/// of a silently wrong artifact chain.
struct ParsedManifest {
  std::string name;
  std::uint64_t journal_epoch = 0;
  std::vector<ArtifactInfo> artifacts;
};

ParsedManifest ParseManifestFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  Require(file.is_open(), "ModelStore: cannot open manifest " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string content = buffer.str();
  Require(content.size() > 4, "ModelStore: manifest truncated: " + path);
  const std::size_t body_size = content.size() - 4;
  std::istringstream in(content);
  std::uint32_t stored_crc = 0;
  {
    std::istringstream tail(content.substr(body_size));
    stored_crc = ReadU32(tail);
  }
  Require(ingest::Crc32(content.data(), body_size) == stored_crc,
          "ModelStore: manifest checksum mismatch: " + path);
  CheckHeader(in, kManifestMagic, kManifestVersion);
  ParsedManifest parsed;
  parsed.name = ReadString(in);
  parsed.journal_epoch = ReadU64(in);
  const std::uint32_t count = ReadU32(in);
  parsed.artifacts.reserve(count);
  std::uint64_t previous_generation = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    ArtifactInfo info;
    info.generation = ReadU64(in);
    info.is_delta = ReadU8(in) != 0;
    info.external = ReadU8(in) != 0;
    info.file = ReadString(in);
    info.bytes = ReadU64(in);
    Require(info.generation > previous_generation,
            "ModelStore: manifest generations out of order: " + path);
    Require(i > 0 || !info.is_delta,
            "ModelStore: manifest starts with a delta: " + path);
    previous_generation = info.generation;
    parsed.artifacts.push_back(std::move(info));
  }
  Require(in.good(), "ModelStore: manifest truncated: " + path);
  return parsed;
}

}  // namespace

ModelStore::Manifest ModelStore::ReadManifest(const std::string& name) const {
  const std::string path = ManifestPath(name);
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return Manifest{};  // unknown model
  ParsedManifest parsed = ParseManifestFile(path);
  Require(parsed.name == name,
          "ModelStore: manifest " + path + " belongs to model '" +
              parsed.name + "', not '" + name + "'");
  return Manifest{parsed.journal_epoch, std::move(parsed.artifacts)};
}

void ModelStore::WriteManifest(const std::string& name,
                               const Manifest& manifest) const {
  std::ostringstream out;
  WriteHeader(out, kManifestMagic, kManifestVersion);
  WriteString(out, name);
  WriteU64(out, manifest.journal_epoch);
  WriteU32(out, static_cast<std::uint32_t>(manifest.artifacts.size()));
  for (const ArtifactInfo& info : manifest.artifacts) {
    WriteU64(out, info.generation);
    WriteU8(out, info.is_delta ? 1 : 0);
    WriteU8(out, info.external ? 1 : 0);
    WriteString(out, info.file);
    WriteU64(out, info.bytes);
  }
  std::string body = out.str();
  std::ostringstream crc;
  WriteU32(crc, ingest::Crc32(body.data(), body.size()));
  body += crc.str();
  WriteFileDurably(dir_, ManifestPath(name), body);
}

std::shared_ptr<const core::Grafics> ModelStore::Open(
    const std::string& name, std::uint64_t generation) {
  const MutexLock lock(&mutex_);
  const Manifest manifest = ReadManifest(name);
  Require(!manifest.artifacts.empty(),
          "ModelStore: unknown model '" + name + "'");
  const std::uint64_t latest = manifest.artifacts.back().generation;
  const std::uint64_t target = generation == 0 ? latest : generation;
  std::size_t index = manifest.artifacts.size();
  for (std::size_t i = 0; i < manifest.artifacts.size(); ++i) {
    if (manifest.artifacts[i].generation == target) {
      index = i;
      break;
    }
  }
  Require(index < manifest.artifacts.size(),
          "ModelStore: model '" + name + "' has no generation " +
              std::to_string(target));
  std::size_t base = index;
  while (manifest.artifacts[base].is_delta) --base;  // index 0 is a base
  const std::string base_path = ArtifactPath(manifest.artifacts[base]);
  std::ifstream base_in(base_path, std::ios::binary);
  Require(base_in.is_open(), "ModelStore: cannot open artifact " + base_path);
  core::Grafics model = core::Grafics::LoadModel(base_in);
  for (std::size_t i = base + 1; i <= index; ++i) {
    const std::string delta_path = ArtifactPath(manifest.artifacts[i]);
    std::ifstream delta_in(delta_path, std::ios::binary);
    Require(delta_in.is_open(),
            "ModelStore: cannot open artifact " + delta_path);
    model.ApplyDelta(delta_in);
  }
  auto loaded = std::make_shared<const core::Grafics>(std::move(model));
  // Opening the latest generation re-anchors the delta chain on the loaded
  // snapshot; a rollback open leaves the retained base untouched (pointer
  // identity in DeltaCompatible keeps stale bases harmless — the next
  // checkpoint of an unrelated lineage writes a full base).
  if (target == latest) retained_[name] = loaded;
  return loaded;
}

std::uint64_t ModelStore::LatestGeneration(const std::string& name) const {
  const MutexLock lock(&mutex_);
  const Manifest manifest = ReadManifest(name);
  return manifest.artifacts.empty() ? 0
                                    : manifest.artifacts.back().generation;
}

std::vector<ArtifactInfo> ModelStore::List(const std::string& name) const {
  const MutexLock lock(&mutex_);
  return ReadManifest(name).artifacts;
}

std::vector<std::string> ModelStore::ListModels() const {
  const MutexLock lock(&mutex_);
  std::vector<std::string> names;
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return names;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    const std::size_t suffix = sizeof(kManifestSuffix) - 1;
    if (file.size() <= suffix ||
        file.compare(file.size() - suffix, suffix, kManifestSuffix) != 0) {
      continue;
    }
    try {
      names.push_back(ParseManifestFile(dir_ + "/" + file).name);
    } catch (const Error&) {
      // A corrupt manifest fails loudly on Open; stats keep working.
    }
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

ArtifactCounts ModelStore::Counts() const {
  return {static_cast<std::uint64_t>(base_artifacts_->value()),
          static_cast<std::uint64_t>(delta_artifacts_->value())};
}

void ModelStore::AppendManifest(const std::string& name,
                                const Manifest& manifest) {
  WriteManifest(name, manifest);
  (manifest.artifacts.back().is_delta ? delta_artifacts_ : base_artifacts_)
      ->Add(1);
  ChainLength(name)->Set(static_cast<std::int64_t>(manifest.artifacts.size()));
}

obs::Gauge* ModelStore::ChainLength(const std::string& name) const {
  return obs_->GetGauge("grafics_store_chain_length",
                        "Artifacts (bases + deltas) in the model's chain.",
                        {{"model", name}});
}

void ModelStore::ObserveCheckpoint(
    std::chrono::steady_clock::time_point started) const {
  checkpoint_us_->Observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
}

StagedArtifact ModelStore::StageLocked(
    const std::string& name,
    const std::shared_ptr<const core::Grafics>& model) {
  Require(model != nullptr, "ModelStore: null model");
  const Manifest manifest = ReadManifest(name);
  const std::uint64_t generation =
      (manifest.artifacts.empty() ? 0 : manifest.artifacts.back().generation) +
      1;
  const auto retained = retained_.find(name);
  const bool is_delta = !manifest.artifacts.empty() &&
                        retained != retained_.end() &&
                        retained->second != nullptr &&
                        model->DeltaCompatible(*retained->second);
  std::ostringstream artifact;
  if (is_delta) {
    model->SaveDelta(artifact, *retained->second);
  } else {
    model->SaveModel(artifact);
  }
  const std::string content = artifact.str();
  const std::string file = EncodedFileStem(name) + ".g" +
                           std::to_string(generation) +
                           (is_delta ? ".delta" : ".base");
  WriteFileDurably(dir_, dir_ + "/" + file, content);
  return StagedArtifact{generation, is_delta, file, content.size()};
}

void ModelStore::CommitLocked(const std::string& name,
                              const StagedArtifact& staged,
                              std::uint64_t journal_epoch,
                              const std::shared_ptr<const core::Grafics>& model) {
  Manifest manifest = ReadManifest(name);
  const std::uint64_t latest =
      manifest.artifacts.empty() ? 0 : manifest.artifacts.back().generation;
  Require(staged.generation == latest + 1,
          "ModelStore: staged generation " +
              std::to_string(staged.generation) + " of '" + name +
              "' raced another commit (latest is " + std::to_string(latest) +
              ")");
  manifest.artifacts.push_back(ArtifactInfo{
      staged.generation, staged.is_delta, false, staged.file, staged.bytes});
  manifest.journal_epoch = journal_epoch;
  AppendManifest(name, manifest);
  retained_[name] = model;
}

std::uint64_t ModelStore::WriteBase(
    const std::string& name, std::shared_ptr<const core::Grafics> model) {
  const MutexLock lock(&mutex_);
  const auto started = std::chrono::steady_clock::now();
  // Forgetting the retained base forces StageLocked onto the full-snapshot
  // path; CommitLocked re-retains `model`.
  retained_.erase(name);
  const StagedArtifact staged = StageLocked(name, model);
  CommitLocked(name, staged, ReadManifest(name).journal_epoch, model);
  ObserveCheckpoint(started);
  return staged.generation;
}

std::uint64_t ModelStore::WriteCheckpoint(
    const std::string& name, std::shared_ptr<const core::Grafics> model,
    StagedArtifact* info) {
  const MutexLock lock(&mutex_);
  const auto started = std::chrono::steady_clock::now();
  const StagedArtifact staged = StageLocked(name, model);
  CommitLocked(name, staged, ReadManifest(name).journal_epoch, model);
  ObserveCheckpoint(started);
  if (info != nullptr) *info = staged;
  return staged.generation;
}

std::uint64_t ModelStore::ImportBase(const std::string& name,
                                     const std::string& path) {
  const MutexLock lock(&mutex_);
  Manifest manifest = ReadManifest(name);
  if (!manifest.artifacts.empty() && manifest.artifacts.back().external &&
      manifest.artifacts.back().file == path) {
    return manifest.artifacts.back().generation;  // restart with same --model
  }
  const std::uint64_t generation =
      (manifest.artifacts.empty() ? 0 : manifest.artifacts.back().generation) +
      1;
  manifest.artifacts.push_back(
      ArtifactInfo{generation, false, true, path, FileBytes(path)});
  AppendManifest(name, manifest);
  // The imported file's in-memory snapshot is unknown here; Open(name)
  // re-anchors the delta chain when the daemon loads it.
  retained_.erase(name);
  return generation;
}

StagedArtifact ModelStore::StageCheckpoint(
    const std::string& name, std::shared_ptr<const core::Grafics> model) {
  const MutexLock lock(&mutex_);
  return StageLocked(name, model);
}

void ModelStore::CommitStaged(const std::string& name,
                              const StagedArtifact& staged,
                              std::uint64_t journal_epoch,
                              std::shared_ptr<const core::Grafics> model) {
  const MutexLock lock(&mutex_);
  CommitLocked(name, staged, journal_epoch, model);
}

std::uint64_t ModelStore::JournalEpoch(const std::string& name) const {
  const MutexLock lock(&mutex_);
  return ReadManifest(name).journal_epoch;
}

}  // namespace grafics::store
