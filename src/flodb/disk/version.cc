#include "flodb/disk/version.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "flodb/common/coding.h"
#include "flodb/disk/crc32c.h"

namespace flodb {

namespace {

std::string CurrentFileName(const std::string& dbname) { return dbname + "/CURRENT"; }

// Tags the optional log-number section that follows the levels section.
// A value-log section, which older builds wrote in the same place, starts
// with a file count that can never equal it.
constexpr uint32_t kLogNumberTag = 0x4e474f4c;  // "LOGN"

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/MANIFEST-%06llu", static_cast<unsigned long long>(number));
  return dbname + buf;
}

}  // namespace

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileMetaData& f : levels_[level]) {
    total += f.file_size;
  }
  return total;
}

int Version::NumFiles() const {
  int total = 0;
  for (const auto& level : levels_) {
    total += static_cast<int>(level.size());
  }
  return total;
}

std::vector<FileMetaData> Version::OverlappingFiles(int level, const Slice& begin,
                                                    const Slice& end) const {
  std::vector<FileMetaData> result;
  for (const FileMetaData& f : levels_[level]) {
    if (f.OverlapsRange(begin, end)) {
      result.push_back(f);
    }
  }
  return result;
}

bool Version::IsBottommostForRange(int level, const Slice& begin, const Slice& end) const {
  for (int l = level + 1; l < NumLevels(); ++l) {
    if (!OverlappingFiles(l, begin, end).empty()) {
      return false;
    }
  }
  return true;
}

VersionSet::VersionSet(Env* env, std::string dbname, int num_levels)
    : env_(env), dbname_(std::move(dbname)), num_levels_(num_levels) {
  current_ = std::make_shared<Version>(num_levels_);
  registry_.emplace_back(current_);
}

void VersionSet::RegisterVersionLocked(const std::shared_ptr<const Version>& v) {
  mu_.AssertHeld();
  registry_.erase(std::remove_if(registry_.begin(), registry_.end(),
                                 [](const std::weak_ptr<const Version>& w) { return w.expired(); }),
                  registry_.end());
  registry_.emplace_back(v);
}

std::string VersionSet::TableFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06llu.sst", static_cast<unsigned long long>(number));
  return dbname_ + buf;
}

std::shared_ptr<const Version> VersionSet::Current() const {
  MutexLock lock(mu_);
  return current_;
}

Status VersionSet::Recover() {
  env_->CreateDir(dbname_);
  std::string current_contents;
  Status s = ReadFileToString(env_, CurrentFileName(dbname_), &current_contents);
  if (!s.ok()) {
    // Fresh database: persist an empty snapshot so CURRENT exists.
    MutexLock lock(mu_);
    return WriteSnapshot(*current_, log_number_);
  }
  // Strip trailing newline.
  while (!current_contents.empty() && current_contents.back() == '\n') {
    current_contents.pop_back();
  }
  // Resume manifest numbering from CURRENT. Restarting at zero would make
  // the next snapshot reuse the number of (or a number below) the live
  // manifest — a failed write then deletes the only manifest on disk.
  const std::string kPrefix = "MANIFEST-";
  if (current_contents.compare(0, kPrefix.size(), kPrefix) != 0) {
    return Status::Corruption("CURRENT does not name a manifest");
  }
  const uint64_t live_manifest = static_cast<uint64_t>(
      strtoull(current_contents.c_str() + kPrefix.size(), nullptr, 10));
  if (live_manifest == 0) {
    return Status::Corruption("CURRENT names an invalid manifest number");
  }
  std::shared_ptr<Version> v;
  uint64_t log_number = 0;
  s = LoadSnapshot(dbname_ + "/" + current_contents, &v, &log_number);
  if (!s.ok()) {
    return s;
  }
  MutexLock lock(mu_);
  log_number_ = log_number;
  manifest_number_ = live_manifest;
  current_manifest_number_ = live_manifest;
  current_ = std::move(v);
  RegisterVersionLocked(current_);
  return Status::OK();
}

// Snapshot format:
//   fixed64 next_file_number | fixed32 num_levels
//   per level: fixed32 count, then per file:
//     fixed64 number | fixed64 size | fixed64 entries
//     | fixed64 smallest_seq | fixed64 largest_seq
//     | lp smallest | lp largest
//   fixed32 kLogNumberTag | fixed64 log_number
//   fixed32 masked crc of everything above
Status VersionSet::WriteSnapshot(const Version& v, uint64_t log_number) {
  mu_.AssertHeld();
  std::string data;
  PutFixed64(&data, next_file_number_.load(std::memory_order_relaxed));
  PutFixed32(&data, static_cast<uint32_t>(num_levels_));
  for (int level = 0; level < num_levels_; ++level) {
    const auto& files = v.LevelFiles(level);
    PutFixed32(&data, static_cast<uint32_t>(files.size()));
    for (const FileMetaData& f : files) {
      PutFixed64(&data, f.number);
      PutFixed64(&data, f.file_size);
      PutFixed64(&data, f.entries);
      PutFixed64(&data, f.smallest_seq);
      PutFixed64(&data, f.largest_seq);
      PutLengthPrefixedSlice(&data, Slice(f.smallest));
      PutLengthPrefixedSlice(&data, Slice(f.largest));
    }
  }
  PutFixed32(&data, kLogNumberTag);
  PutFixed64(&data, log_number);
  PutFixed32(&data, crc32c::Mask(crc32c::Value(data.data(), data.size())));

  const uint64_t number = ++manifest_number_;
  const std::string fname = ManifestFileName(dbname_, number);
  Status s = WriteStringToFile(env_, Slice(data), fname, /*sync=*/true);
  if (!s.ok()) {
    return s;
  }
  // Repoint CURRENT atomically: write a temp file, sync it, rename over
  // CURRENT (::rename is atomic on POSIX). Rewriting CURRENT in place
  // would truncate it first, so a crash mid-write loses BOTH versions.
  const std::string manifest_basename = fname.substr(dbname_.size() + 1);
  const std::string tmp = CurrentFileName(dbname_) + ".tmp";
  s = WriteStringToFile(env_, Slice(manifest_basename + "\n"), tmp, /*sync=*/true);
  if (s.ok()) {
    s = env_->RenameFile(tmp, CurrentFileName(dbname_));
  }
  if (!s.ok()) {
    // CURRENT still points at the old manifest; drop the orphan snapshot
    // (never the live one — `number` was allocated above the resume
    // point) so a later retry starts clean.
    env_->RemoveFile(tmp);
    env_->RemoveFile(fname);
    return s;
  }
  // Drop the previously live manifest. Numbers are not always
  // consecutive (a failed snapshot write burns one), so track the actual
  // predecessor instead of assuming number - 1; open-time GC sweeps any
  // strays a crash leaves behind.
  const uint64_t old_manifest = current_manifest_number_;
  current_manifest_number_ = number;
  if (old_manifest > 0 && old_manifest != number) {
    env_->RemoveFile(ManifestFileName(dbname_, old_manifest));
  }
  return Status::OK();
}

Status VersionSet::LoadSnapshot(const std::string& manifest_file, std::shared_ptr<Version>* out,
                                uint64_t* log_number) {
  std::string data;
  Status s = ReadFileToString(env_, manifest_file, &data);
  if (!s.ok()) {
    return s;
  }
  if (data.size() < 4) {
    return Status::Corruption("manifest too small");
  }
  const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(data.data() + data.size() - 4));
  const uint32_t actual_crc = crc32c::Value(data.data(), data.size() - 4);
  if (stored_crc != actual_crc) {
    return Status::Corruption("manifest checksum mismatch");
  }
  Slice in(data.data(), data.size() - 4);
  if (in.size() < 12) {
    return Status::Corruption("manifest truncated");
  }
  next_file_number_.store(DecodeFixed64(in.data()), std::memory_order_relaxed);
  in.remove_prefix(8);
  const uint32_t levels = DecodeFixed32(in.data());
  in.remove_prefix(4);
  if (levels != static_cast<uint32_t>(num_levels_)) {
    return Status::Corruption("manifest level-count mismatch");
  }
  auto v = std::make_shared<Version>(num_levels_);
  for (uint32_t level = 0; level < levels; ++level) {
    if (in.size() < 4) {
      return Status::Corruption("manifest truncated");
    }
    const uint32_t count = DecodeFixed32(in.data());
    in.remove_prefix(4);
    for (uint32_t i = 0; i < count; ++i) {
      if (in.size() < 40) {
        return Status::Corruption("manifest truncated");
      }
      FileMetaData f;
      f.number = DecodeFixed64(in.data());
      f.file_size = DecodeFixed64(in.data() + 8);
      f.entries = DecodeFixed64(in.data() + 16);
      f.smallest_seq = DecodeFixed64(in.data() + 24);
      f.largest_seq = DecodeFixed64(in.data() + 32);
      in.remove_prefix(40);
      Slice smallest, largest;
      if (!GetLengthPrefixedSlice(&in, &smallest) || !GetLengthPrefixedSlice(&in, &largest)) {
        return Status::Corruption("manifest truncated key");
      }
      f.smallest = smallest.ToString();
      f.largest = largest.ToString();
      // Level files are stored in key order; trust but keep sorted anyway.
      v->levels_[level].push_back(std::move(f));
    }
  }
  for (auto& level_files : v->levels_) {
    std::sort(level_files.begin(), level_files.end(),
              [](const FileMetaData& a, const FileMetaData& b) {
                return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
              });
  }
  // The levels section is followed by the log number, or by nothing in a
  // snapshot written before it was recorded (read as 0: replay every
  // log). Older builds could append a value-log section here instead
  // (value separation); its values live in files this build cannot read,
  // so refuse the directory rather than open it with those values
  // silently missing.
  *log_number = 0;
  if (in.size() == 12 && DecodeFixed32(in.data()) == kLogNumberTag) {
    *log_number = DecodeFixed64(in.data() + 4);
    in.remove_prefix(12);
  }
  if (!in.empty()) {
    return Status::NotSupported(
        "manifest has bytes after the levels section: directories written with value "
        "separation are not supported");
  }
  *out = std::move(v);
  return Status::OK();
}

Status VersionSet::LogAndApply(const VersionEdit& edit) {
  MutexLock lock(mu_);
  auto next = std::make_shared<Version>(num_levels_);
  next->levels_ = current_->levels_;
  for (const auto& [level, number] : edit.deleted) {
    auto& files = next->levels_[level];
    files.erase(std::remove_if(files.begin(), files.end(),
                               [n = number](const FileMetaData& f) { return f.number == n; }),
                files.end());
  }
  for (const auto& [level, meta] : edit.added) {
    assert(level >= 0 && level < num_levels_);
    next->levels_[level].push_back(meta);
  }
  // Keep levels >= 1 ordered by smallest key (disjoint ranges); keep L0
  // ordered by file number (flush order) for debuggability.
  for (int level = 1; level < num_levels_; ++level) {
    auto& files = next->levels_[level];
    std::sort(files.begin(), files.end(), [](const FileMetaData& a, const FileMetaData& b) {
      return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
    });
  }
  {
    auto& l0 = next->levels_[0];
    std::sort(l0.begin(), l0.end(),
              [](const FileMetaData& a, const FileMetaData& b) { return a.number < b.number; });
  }
  const uint64_t log_number = edit.log_number != 0 ? edit.log_number : log_number_;
  Status s = WriteSnapshot(*next, log_number);
  if (!s.ok()) {
    return s;
  }
  log_number_ = log_number;
  current_ = std::move(next);
  RegisterVersionLocked(current_);
  return Status::OK();
}

uint64_t VersionSet::CurrentManifestNumber() const {
  MutexLock lock(mu_);
  return current_manifest_number_;
}

uint64_t VersionSet::LogNumber() const {
  MutexLock lock(mu_);
  return log_number_;
}

uint64_t VersionSet::MaxPersistedSeq() const {
  MutexLock lock(mu_);
  uint64_t max_seq = 0;
  for (int level = 0; level < num_levels_; ++level) {
    for (const FileMetaData& f : current_->LevelFiles(level)) {
      if (f.largest_seq > max_seq) {
        max_seq = f.largest_seq;
      }
    }
  }
  return max_seq;
}

std::set<uint64_t> VersionSet::LiveFileNumbers() const {
  MutexLock lock(mu_);
  std::set<uint64_t> live;
  for (int level = 0; level < num_levels_; ++level) {
    for (const FileMetaData& f : current_->LevelFiles(level)) {
      live.insert(f.number);
    }
  }
  return live;
}

std::set<uint64_t> VersionSet::AllLiveFileNumbers() const {
  MutexLock lock(mu_);
  std::set<uint64_t> live;
  for (const std::weak_ptr<const Version>& w : registry_) {
    std::shared_ptr<const Version> v = w.lock();
    if (v == nullptr) {
      continue;
    }
    for (int level = 0; level < v->NumLevels(); ++level) {
      for (const FileMetaData& f : v->LevelFiles(level)) {
        live.insert(f.number);
      }
    }
  }
  return live;
}

}  // namespace flodb
