#include "flodb/disk/disk_component.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <set>

#include "flodb/disk/level_iterator.h"
#include "flodb/disk/merging_iterator.h"
#include "flodb/disk/table_builder.h"

namespace flodb {

namespace {

// AddRun blocks while L0 holds this many files.
constexpr size_t kL0StallTrigger = 12;

CompactionConfig MakeCompactionConfig(const DiskOptions& options) {
  CompactionConfig config;
  config.num_levels = options.num_levels;
  config.l0_compaction_trigger = options.l0_compaction_trigger;
  config.l1_max_bytes = options.l1_max_bytes;
  config.level_size_multiplier = options.level_size_multiplier;
  return config;
}

}  // namespace

DiskComponent::DiskComponent(const DiskOptions& options)
    : options_(options),
      level_busy_(options.num_levels, false),
      picker_(MakeCompactionConfig(options)) {}

Status DiskComponent::Open(const DiskOptions& options, std::unique_ptr<DiskComponent>* out) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("DiskOptions requires env and path");
  }
  // One listing serves the refusals below and, once the Version is
  // recovered, the sweep (a store not created yet has no directory).
  // Older builds could move large values into *.vlog files (value
  // separation); this build reads values inline only, so opening such a
  // directory would silently lose every separated value. Older builds
  // could also split a store over shard subdirectories behind a SHARDING
  // manifest and a txn.log; opening the parent directory as one store
  // would silently read none of it.
  std::vector<std::string> children;
  options.env->GetChildren(options.path, &children);
  for (const std::string& name : children) {
    if (name.size() >= 5 && name.substr(name.size() - 5) == ".vlog") {
      return Status::NotSupported("found " + name +
                                  ": directories written with value separation are not "
                                  "supported");
    }
    if (name == "SHARDING" || name == "txn.log") {
      return Status::NotSupported("found " + name +
                                  ": directories written by the sharded store are not "
                                  "supported");
    }
  }
  auto dc = std::unique_ptr<DiskComponent>(new DiskComponent(options));
  if (options.block_cache_bytes > 0) {
    dc->block_cache_ = std::make_unique<ShardedLruCache>(options.block_cache_bytes);
  }
  dc->versions_ =
      std::make_unique<VersionSet>(options.env, options.path, options.num_levels);
  Status s = dc->versions_->Recover(
      [raw = dc.get()](FileMetaData* f) { return raw->OpenTable(f, /*deletable=*/false); });
  if (!s.ok()) {
    return s;
  }
  dc->RemoveObsoleteFiles(children);
  for (int i = 0; i < options.compaction_threads; ++i) {
    dc->workers_.emplace_back([raw = dc.get()] { raw->BackgroundWork(); });
  }
  *out = std::move(dc);
  return Status::OK();
}

void DiskComponent::RemoveObsoleteFiles(const std::vector<std::string>& children) {
  std::set<uint64_t> live;
  std::shared_ptr<const Version> v = versions_->Current();
  for (int level = 0; level < v->NumLevels(); ++level) {
    for (const FileMetaData& f : v->LevelFiles(level)) {
      live.insert(f.number);
    }
  }
  const uint64_t live_manifest = versions_->CurrentManifestNumber();
  uint64_t max_table = 0;
  for (const std::string& name : children) {
    const uint64_t table = ParseFileNumber(
        options_.path, name, [this](uint64_t n) { return versions_->TableFileName(n); });
    const uint64_t manifest = ParseFileNumber(
        options_.path, name, [this](uint64_t n) { return versions_->ManifestFileName(n); });
    max_table = std::max(max_table, table);
    // A table the Version does not name is the output of a crashed flush
    // or compaction; a manifest below the live one, of a failed or
    // crashed snapshot write.
    if ((table != 0 && live.count(table) == 0) || (manifest != 0 && manifest < live_manifest)) {
      options_.env->RemoveFile(options_.path + "/" + name);
    }
  }
  versions_->EnsureFileNumberAtLeast(max_table + 1);
  options_.env->RemoveFile(options_.path + "/CURRENT.tmp");
}

DiskComponent::~DiskComponent() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

Status DiskComponent::OpenTable(FileMetaData* meta, bool deletable) const {
  std::string fname = versions_->TableFileName(meta->number);
  std::unique_ptr<RandomAccessFile> file;
  Status s = options_.env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    return s;  // Env errors name the file
  }
  TableReader::Options reader_options;
  reader_options.block_cache = block_cache_.get();
  reader_options.cache_id = meta->number;  // file numbers are never reused
  std::unique_ptr<TableReader> reader;
  s = TableReader::Open(std::move(file), meta->file_size, reader_options, &reader);
  if (!s.ok()) {
    const std::string msg = fname + ": " + s.ToString();
    return s.IsCorruption() ? Status::Corruption(msg) : Status::IOError(msg);
  }
  meta->table =
      std::make_shared<TableHandle>(std::move(reader), options_.env, std::move(fname), deletable);
  return Status::OK();
}

Status DiskComponent::WriteTables(Iterator* iter, int level, uint64_t roll_bytes,
                                  bool drop_tombstones, VersionEdit* edit) {
  TableBuilder::Options builder_options;
  builder_options.block_bytes = options_.block_bytes;
  builder_options.bloom_bits_per_key = BloomBitsForLevel(level);
  uint64_t number = 0;
  std::unique_ptr<WritableFile> file;
  std::unique_ptr<TableBuilder> builder;

  // Syncs and opens the table being written and hands it to the edit.
  auto finish = [&]() -> Status {
    Status s = builder->Finish();
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
    if (!s.ok()) {
      return s;
    }
    FileMetaData meta;
    meta.number = number;
    meta.file_size = builder->FileSize();
    meta.entries = builder->NumEntries();
    meta.smallest = builder->smallest_key().ToString();
    meta.largest = builder->largest_key().ToString();
    meta.smallest_seq = builder->smallest_seq();
    meta.largest_seq = builder->largest_seq();
    s = OpenTable(&meta, /*deletable=*/true);
    if (!s.ok()) {
      return s;
    }
    edit->added.emplace_back(level, std::move(meta));
    builder.reset();
    file.reset();
    return Status::OK();
  };

  std::string last_key;
  bool has_last = false;
  Status s;
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    // The first occurrence of a user key is the freshest (children merge
    // key-asc, seq-desc); drop the rest.
    if (has_last && iter->key() == Slice(last_key)) {
      continue;
    }
    last_key.assign(iter->key().data(), iter->key().size());
    has_last = true;
    if (drop_tombstones && iter->type() == ValueType::kTombstone) {
      continue;  // no deeper level can hold this key: tombstone retires
    }
    if (builder == nullptr) {
      number = versions_->NewFileNumber();
      s = options_.env->NewWritableFile(versions_->TableFileName(number), &file);
      if (!s.ok()) {
        return s;
      }
      builder = std::make_unique<TableBuilder>(builder_options, file.get());
    }
    builder->Add(iter->key(), iter->seq(), iter->type(), iter->value());
    if (builder->FileSize() + options_.block_bytes >= roll_bytes) {
      s = finish();
    }
  }
  if (s.ok()) {
    s = iter->status();
  }
  if (s.ok() && builder != nullptr) {
    s = finish();
  }
  if (builder != nullptr) {
    // Failed mid-table. The finished tables, still deletable, go with the
    // edit.
    builder.reset();
    file.reset();
    options_.env->RemoveFile(versions_->TableFileName(number));
  }
  return s;
}

Status DiskComponent::AddRun(Iterator* iter, uint64_t log_number) {
  // Backpressure: writers stall while L0 is saturated, like LevelDB's
  // level-0 stop trigger. (The persist thread calling us is the "writer"
  // here; user writers block on Memtable room upstream.)
  {
    MutexLock lock(mu_);
    // Explicit loop: the predicate reads guarded state (stop_), so it
    // must run in this annotated scope rather than inside a lambda.
    while (!stop_ && versions_->Current()->LevelFiles(0).size() >= kL0StallTrigger) {
      idle_cv_.Wait(mu_);
    }
    if (stop_) {
      return Status::Aborted("shutting down");
    }
  }

  VersionEdit edit;
  Status s = WriteTables(iter, /*level=*/0, std::numeric_limits<uint64_t>::max(),
                         /*drop_tombstones=*/false, &edit);
  if (!s.ok() || edit.added.empty()) {
    return s;  // empty: nothing to persist
  }
  edit.log_number = log_number;
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    return s;
  }
  bytes_flushed_.fetch_add(edit.added[0].second.file_size, std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  {
    // The new L0 file changes what BackgroundWork's pick reads, outside
    // mu_. Signal under mu_ so a worker between its pick and its sleep
    // cannot miss the wakeup; a lost one leaves L0 to fill until the
    // stall above blocks every flush for good.
    MutexLock lock(mu_);
    work_cv_.SignalAll();
  }
  return Status::OK();
}

Status DiskComponent::Get(const Slice& key, std::string* value, uint64_t* seq,
                          ValueType* type) const {
  const VersionSet::ReadSection section(*versions_);
  const Version& version = section.version();

  // Level 0: overlapping files, kept newest-first, so the first hit is
  // the freshest version of the key.
  for (const FileMetaData& f : version.LevelFiles(0)) {
    if (f.ContainsKey(key)) {
      Status s = f.table->reader().Get(key, value, seq, type);
      if (!s.IsNotFound()) {
        return s;  // hit or error
      }
    }
  }

  // Levels >= 1: at most one file per level can contain the key.
  for (int level = 1; level < version.NumLevels(); ++level) {
    const auto& files = version.LevelFiles(level);
    // Binary search: files sorted by smallest key, ranges disjoint.
    size_t lo = 0, hi = files.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Slice(files[mid].largest).compare(key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == files.size() || !files[lo].ContainsKey(key)) {
      continue;
    }
    Status s = files[lo].table->reader().Get(key, value, seq, type);
    if (!s.IsNotFound()) {
      return s;
    }
  }
  return Status::NotFound();
}

namespace {

// Pins the Version, and so the TableReaders, backing a merged iterator.
class VersionPinnedIterator final : public Iterator {
 public:
  VersionPinnedIterator(std::unique_ptr<Iterator> base, std::shared_ptr<const Version> version)
      : version_(std::move(version)), base_(std::move(base)) {}

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void Seek(const Slice& target) override { base_->Seek(target); }
  void Next() override { base_->Next(); }
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  uint64_t seq() const override { return base_->seq(); }
  ValueType type() const override { return base_->type(); }
  Status status() const override { return base_->status(); }

 private:
  std::shared_ptr<const Version> version_;  // declared first: outlives base_
  std::unique_ptr<Iterator> base_;
};

}  // namespace

std::unique_ptr<Iterator> DiskComponent::NewIterator() const {
  std::shared_ptr<const Version> version = versions_->Current();
  std::vector<std::unique_ptr<Iterator>> children;
  // L0 files overlap: each needs its own merge child.
  for (const FileMetaData& f : version->LevelFiles(0)) {
    children.push_back(f.table->reader().NewIterator());
  }
  // Levels >= 1 are disjoint and sorted: one lazy concatenating child per
  // level keeps the merge heap O(L0 + levels) wide instead of O(files),
  // and a Seek reads only the one file per level that can hold the
  // target.
  for (int level = 1; level < version->NumLevels(); ++level) {
    if (!version->LevelFiles(level).empty()) {
      children.push_back(NewLevelIterator(version->LevelFiles(level)));
    }
  }
  return std::make_unique<VersionPinnedIterator>(NewMergingIterator(std::move(children)),
                                                 std::move(version));
}

bool DiskComponent::PickCompactionLocked(CompactionJob* job) {
  mu_.AssertHeld();
  std::shared_ptr<const Version> v = versions_->Current();
  if (!picker_.Pick(*v, level_busy_, job)) {
    return false;
  }
  ClaimLocked(*job);
  return true;
}

void DiskComponent::ClaimLocked(const CompactionJob& job) {
  mu_.AssertHeld();
  level_busy_[job.level] = true;
  level_busy_[job.level + 1] = true;
  ++active_compactions_;
}

Status DiskComponent::RunJob(CompactionJob job) {
  const int level = job.level;
  Status s = DoCompaction(std::move(job));
  MutexLock lock(mu_);
  --active_compactions_;
  level_busy_[level] = false;
  level_busy_[level + 1] = false;
  idle_cv_.SignalAll();
  work_cv_.SignalAll();  // follow-up compactions may now be possible
  return s;
}

Status DiskComponent::DoCompaction(CompactionJob job) {
  std::vector<std::unique_ptr<Iterator>> children;
  uint64_t in_bytes = 0;
  for (const auto* inputs : {&job.inputs_lo, &job.inputs_hi}) {
    for (const FileMetaData& f : *inputs) {
      // No-fill: a compaction streams every input block exactly once and
      // then deletes the files — inserting them would flush the readers'
      // hot set out of the shared cache for nothing. Blocks user reads
      // already cached are still served from the cache.
      children.push_back(f.table->reader().NewIterator(/*fill_cache=*/false));
      in_bytes += f.file_size;
    }
  }
  std::unique_ptr<Iterator> merged = NewMergingIterator(std::move(children));

  const int out_level = job.level + 1;
  VersionEdit edit;
  Status s = WriteTables(merged.get(), out_level, options_.sstable_target_bytes,
                         job.drop_tombstones, &edit);
  if (!s.ok()) {
    return s;
  }
  for (const FileMetaData& f : job.inputs_lo) {
    edit.deleted.emplace_back(job.level, f.number);
  }
  for (const FileMetaData& f : job.inputs_hi) {
    edit.deleted.emplace_back(out_level, f.number);
  }
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    return s;
  }
  uint64_t out_bytes = 0;
  for (const auto& [level, meta] : edit.added) {
    out_bytes += meta.file_size;
  }
  bytes_compacted_in_.fetch_add(in_bytes, std::memory_order_relaxed);
  bytes_compacted_out_.fetch_add(out_bytes, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void DiskComponent::BackgroundWork() {
  while (true) {
    CompactionJob job;
    {
      MutexLock lock(mu_);
      while (!stop_ && !PickCompactionLocked(&job)) {
        work_cv_.Wait(mu_);
      }
      if (stop_) {
        return;
      }
    }
    Status s = RunJob(std::move(job));
    if (!s.ok()) {
      fprintf(stderr, "flodb: compaction failed: %s\n", s.ToString().c_str());
      // Back off: a transient I/O failure retries; a persistent one must
      // not melt into a busy loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

void DiskComponent::WaitForCompactions() {
  if (options_.compaction_threads == 0) {
    return;
  }
  MutexLock lock(mu_);
  work_cv_.SignalAll();
  // Explicit loop: the predicate reads guarded state (stop_,
  // active_compactions_, picker_), so it must run in this annotated
  // scope rather than inside a lambda.
  while (!stop_ &&
         (active_compactions_ != 0 || picker_.NeedsCompaction(*versions_->Current()))) {
    idle_cv_.Wait(mu_);
  }
}

Status DiskComponent::CompactOnce(bool* did_work) {
  CompactionJob job;
  bool picked = false;
  {
    MutexLock lock(mu_);
    picked = PickCompactionLocked(&job);
  }
  if (did_work != nullptr) {
    *did_work = picked;
  }
  return picked ? RunJob(std::move(job)) : Status::OK();
}

namespace {

// Fills *job with every file at `level` overlapping [begin, end] and the
// files below them at level + 1; false when there is none.
bool BuildRangeJob(const Version& v, int level, const Slice& begin, const Slice& end,
                   CompactionJob* job) {
  std::vector<FileMetaData> inputs = v.OverlappingFiles(level, begin, end);
  if (inputs.empty()) {
    return false;
  }
  auto span_of = [](const std::vector<FileMetaData>& files, std::string* lo, std::string* hi) {
    *lo = files[0].smallest;
    *hi = files[0].largest;
    for (const FileMetaData& f : files) {
      if (Slice(f.smallest).compare(Slice(*lo)) < 0) {
        *lo = f.smallest;
      }
      if (Slice(f.largest).compare(Slice(*hi)) > 0) {
        *hi = f.largest;
      }
    }
  };
  std::string span_lo, span_hi;
  span_of(inputs, &span_lo, &span_hi);
  if (level == 0) {
    // L0 files overlap: expand to a fixpoint so no L0 file sharing a key
    // with the chosen set stays behind — an older version left above data
    // pushed to L1 would shadow it.
    while (true) {
      std::vector<FileMetaData> wider = v.OverlappingFiles(0, Slice(span_lo), Slice(span_hi));
      if (wider.size() == inputs.size()) {
        break;
      }
      inputs = std::move(wider);
      span_of(inputs, &span_lo, &span_hi);
    }
  }
  job->level = level;
  job->inputs_lo = std::move(inputs);
  job->inputs_hi = v.OverlappingFiles(level + 1, Slice(span_lo), Slice(span_hi));
  job->drop_tombstones = v.IsBottommostForRange(level + 1, Slice(span_lo), Slice(span_hi));
  return true;
}

}  // namespace

Status DiskComponent::CompactRange(const Slice& begin, const Slice& end) {
  for (int level = 0; level + 1 < options_.num_levels; ++level) {
    CompactionJob job;
    {
      MutexLock lock(mu_);
      // Manual jobs are rare (tests, ops): the simple and correct
      // serialization is to wait out every running compaction, then build
      // the job against the then-current version with the lock held so no
      // background pick can consume the same inputs. Explicit loop: the
      // predicate reads guarded state.
      while (!stop_ && active_compactions_ != 0) {
        idle_cv_.Wait(mu_);
      }
      if (stop_) {
        return Status::Aborted("shutting down");
      }
      if (!BuildRangeJob(*versions_->Current(), level, begin, end, &job)) {
        continue;
      }
      ClaimLocked(job);
    }
    Status s = RunJob(std::move(job));
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

DiskComponent::Stats DiskComponent::GetStats() const {
  Stats stats;
  std::shared_ptr<const Version> v = versions_->Current();
  for (int level = 0; level < v->NumLevels(); ++level) {
    stats.files_per_level.push_back(static_cast<int>(v->LevelFiles(level).size()));
    stats.bytes_per_level.push_back(v->LevelBytes(level));
  }
  stats.bytes_flushed = bytes_flushed_.load(std::memory_order_relaxed);
  stats.bytes_compacted_in = bytes_compacted_in_.load(std::memory_order_relaxed);
  stats.bytes_compacted_out = bytes_compacted_out_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  if (block_cache_ != nullptr) {
    const ShardedLruCache::Stats cache = block_cache_->GetStats();
    stats.block_cache_hits = cache.hits;
    stats.block_cache_misses = cache.misses;
    stats.block_cache_evictions = cache.evictions;
    stats.block_cache_bytes = cache.charge;
    stats.block_cache_pinned_bytes = cache.pinned_charge;
  }
  stats.open_tables = static_cast<uint64_t>(v->NumFiles());
  return stats;
}

}  // namespace flodb
