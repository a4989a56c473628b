#include "flodb/disk/disk_component.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

// RAII allocation + registration of an output file number in
// pending_outputs_. Both happen under pending_mu_, so a file GC that
// reads its barrier under the same lock never sees a number below the
// barrier that is not yet registered (see RemoveObsoleteFiles).
struct DiskComponent::PendingOutput {
  explicit PendingOutput(DiskComponent* dc) : dc_(dc) {
    MutexLock lock(dc_->pending_mu_);
    number_ = dc_->versions_->NewFileNumber();
    dc_->pending_outputs_.insert(number_);
  }
  uint64_t number() const { return number_; }
  ~PendingOutput() { Release(); }
  void Release() {
    if (dc_ != nullptr) {
      MutexLock lock(dc_->pending_mu_);
      dc_->pending_outputs_.erase(number_);
      dc_ = nullptr;
    }
  }
  PendingOutput(const PendingOutput&) = delete;
  PendingOutput& operator=(const PendingOutput&) = delete;

 private:
  DiskComponent* dc_;
  uint64_t number_ = 0;
};

Status DiskComponent::Open(const DiskOptions& options, std::unique_ptr<DiskComponent>* out) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("DiskOptions requires env and path");
  }
  // One listing serves three checks. Older builds could move large values
  // into *.vlog files (value separation); this build reads values inline
  // only, so opening such a directory would silently lose every separated
  // value. Older builds could also split a store over shard subdirectories
  // behind a SHARDING manifest and a txn.log; opening the parent directory
  // as one store would silently read none of it. And a crash
  // mid-compaction leaves orphan outputs (.sst files never installed in a
  // version) numbered above the recovered counter; the bump below moves
  // them under the GC barrier so the sweep can touch them.
  uint64_t max_sst_number = 0;
  {
    std::vector<std::string> children;
    if (options.env->GetChildren(options.path, &children).ok()) {
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
        if (name.size() >= 5 && name.substr(name.size() - 4) == ".sst") {
          max_sst_number = std::max(
              max_sst_number, static_cast<uint64_t>(strtoull(name.c_str(), nullptr, 10)));
        }
      }
    }
  }
  auto dc = std::unique_ptr<DiskComponent>(new DiskComponent(options));
  if (options.block_cache_bytes > 0) {
    dc->block_cache_ = std::make_unique<ShardedLruCache>(options.block_cache_bytes);
  }
  dc->versions_ =
      std::make_unique<VersionSet>(options.env, options.path, options.num_levels);
  Status s =
      dc->versions_->Recover([raw = dc.get()](FileMetaData* f) { return raw->OpenTable(f); });
  if (!s.ok()) {
    return s;
  }
  dc->versions_->EnsureFileNumberAtLeast(max_sst_number + 1);
  // Sweep orphans and a possibly stale manifest before background work
  // starts.
  dc->options_.env->RemoveFile(options.path + "/CURRENT.tmp");
  dc->RemoveObsoleteFiles();
  for (int i = 0; i < options.compaction_threads; ++i) {
    dc->workers_.emplace_back([raw = dc.get()] { raw->BackgroundWork(); });
  }
  *out = std::move(dc);
  return Status::OK();
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

Status DiskComponent::OpenTable(FileMetaData* meta) const {
  const std::string fname = versions_->TableFileName(meta->number);
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
  meta->table = std::move(reader);
  return Status::OK();
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

  PendingOutput pending(this);  // shield from GC until installed
  const uint64_t number = pending.number();
  const std::string fname = versions_->TableFileName(number);
  std::unique_ptr<WritableFile> file;
  Status s = options_.env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  TableBuilder::Options builder_options;
  builder_options.block_bytes = options_.block_bytes;
  builder_options.bloom_bits_per_key = BloomBitsForLevel(/*level=*/0);
  TableBuilder builder(builder_options, file.get());

  std::string last_key;
  bool has_last = false;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    // First occurrence of a user key is the freshest (children are merged
    // key-asc/seq-desc); drop the rest.
    if (has_last && iter->key() == Slice(last_key)) {
      continue;
    }
    last_key.assign(iter->key().data(), iter->key().size());
    has_last = true;
    builder.Add(iter->key(), iter->seq(), iter->type(), iter->value());
  }
  if (!iter->status().ok()) {
    builder.Finish();
    file->Close();
    options_.env->RemoveFile(fname);
    return iter->status();
  }
  if (builder.NumEntries() == 0) {
    builder.Finish();
    file->Close();
    options_.env->RemoveFile(fname);
    return Status::OK();  // nothing to persist
  }
  s = builder.Finish();
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    options_.env->RemoveFile(fname);
    return s;
  }

  FileMetaData meta;
  meta.number = number;
  meta.file_size = builder.FileSize();
  meta.entries = builder.NumEntries();
  meta.smallest = builder.smallest_key().ToString();
  meta.largest = builder.largest_key().ToString();
  meta.smallest_seq = builder.smallest_seq();
  meta.largest_seq = builder.largest_seq();
  s = OpenTable(&meta);
  if (!s.ok()) {
    options_.env->RemoveFile(fname);
    return s;
  }

  VersionEdit edit;
  edit.added.emplace_back(0, std::move(meta));
  edit.log_number = log_number;
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    return s;
  }
  bytes_flushed_.fetch_add(builder.FileSize(), std::memory_order_relaxed);
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
  std::shared_ptr<const Version> version = versions_->Current();

  // Level 0: overlapping files; consult in decreasing max-seq order so the
  // first hit is the freshest version of the key.
  std::vector<const FileMetaData*> l0;
  for (const FileMetaData& f : version->LevelFiles(0)) {
    if (f.ContainsKey(key)) {
      l0.push_back(&f);
    }
  }
  std::sort(l0.begin(), l0.end(), [](const FileMetaData* a, const FileMetaData* b) {
    return a->largest_seq > b->largest_seq;
  });
  for (const FileMetaData* f : l0) {
    Status s = f->table->Get(key, value, seq, type);
    if (!s.IsNotFound()) {
      return s;  // hit or error
    }
  }

  // Levels >= 1: at most one file per level can contain the key.
  for (int level = 1; level < version->NumLevels(); ++level) {
    const auto& files = version->LevelFiles(level);
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
    Status s = files[lo].table->Get(key, value, seq, type);
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
    children.push_back(f.table->NewIterator());
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
  level_busy_[job->level] = true;
  level_busy_[job->level + 1] = true;
  return true;
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
      children.push_back(f.table->NewIterator(/*fill_cache=*/false));
      in_bytes += f.file_size;
    }
  }
  std::unique_ptr<Iterator> merged = NewMergingIterator(std::move(children));

  VersionEdit edit;
  const int out_level = job.level + 1;
  uint64_t out_bytes = 0;

  std::unique_ptr<WritableFile> file;
  std::unique_ptr<TableBuilder> builder;
  uint64_t out_number = 0;
  std::vector<std::unique_ptr<PendingOutput>> pending;  // GC shields, held past install
  TableBuilder::Options builder_options;
  builder_options.block_bytes = options_.block_bytes;
  builder_options.bloom_bits_per_key = BloomBitsForLevel(out_level);

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) {
      return Status::OK();
    }
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
    meta.number = out_number;
    meta.file_size = builder->FileSize();
    meta.entries = builder->NumEntries();
    meta.smallest = builder->smallest_key().ToString();
    meta.largest = builder->largest_key().ToString();
    meta.smallest_seq = builder->smallest_seq();
    meta.largest_seq = builder->largest_seq();
    s = OpenTable(&meta);
    if (!s.ok()) {
      return s;
    }
    out_bytes += meta.file_size;
    edit.added.emplace_back(out_level, std::move(meta));
    builder.reset();
    file.reset();
    return Status::OK();
  };

  std::string last_key;
  bool has_last = false;
  Status s;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    if (has_last && merged->key() == Slice(last_key)) {
      continue;  // older version of the same user key
    }
    last_key.assign(merged->key().data(), merged->key().size());
    has_last = true;
    if (job.drop_tombstones && merged->type() == ValueType::kTombstone) {
      continue;  // no deeper level can hold this key: tombstone retires
    }
    if (builder == nullptr) {
      pending.push_back(std::make_unique<PendingOutput>(this));
      out_number = pending.back()->number();
      s = options_.env->NewWritableFile(versions_->TableFileName(out_number), &file);
      if (!s.ok()) {
        return s;
      }
      builder = std::make_unique<TableBuilder>(builder_options, file.get());
    }
    builder->Add(merged->key(), merged->seq(), merged->type(), merged->value());
    if (builder->FileSize() + options_.block_bytes >= options_.sstable_target_bytes) {
      s = finish_output();
      if (!s.ok()) {
        return s;
      }
    }
  }
  if (!merged->status().ok()) {
    return merged->status();
  }
  s = finish_output();
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
  bytes_compacted_in_.fetch_add(in_bytes, std::memory_order_relaxed);
  bytes_compacted_out_.fetch_add(out_bytes, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  RemoveObsoleteFiles();
  return Status::OK();
}

void DiskComponent::RemoveObsoleteFiles() {
  // Barrier BEFORE the liveness snapshot: any file allocated from here on
  // (a concurrent flush/compaction output) is younger than `live` and
  // might be installed between our snapshot and the directory listing —
  // it must never be considered obsolete. Read with the pending outputs
  // under pending_mu_, where numbers are allocated and registered
  // together: every number below the barrier is either still pending
  // here or was released after its install, and so is in the version
  // snapshot taken next. (Taking the snapshot first would miss an output
  // installed after it and released before the pending read, deleting a
  // live table.)
  uint64_t barrier = 0;
  std::set<uint64_t> pending;
  {
    MutexLock lock(pending_mu_);
    barrier = versions_->PeekFileNumber();
    pending = pending_outputs_;
  }
  std::set<uint64_t> live = versions_->AllLiveFileNumbers();
  live.insert(pending.begin(), pending.end());
  const uint64_t live_manifest = versions_->CurrentManifestNumber();
  std::vector<std::string> children;
  if (!options_.env->GetChildren(options_.path, &children).ok()) {
    return;
  }
  for (const std::string& name : children) {
    if (name.size() >= 5 && name.substr(name.size() - 4) == ".sst") {
      const uint64_t number = static_cast<uint64_t>(strtoull(name.c_str(), nullptr, 10));
      if (number >= barrier || live.count(number) != 0) {
        continue;
      }
      options_.env->RemoveFile(options_.path + "/" + name);
    } else if (name.rfind("MANIFEST-", 0) == 0) {
      // Failed or crashed snapshot writes strand manifests below the one
      // CURRENT points at. Higher numbers are never touched: one may be
      // a concurrent LogAndApply mid-write.
      const uint64_t number =
          static_cast<uint64_t>(strtoull(name.c_str() + strlen("MANIFEST-"), nullptr, 10));
      if (number < live_manifest) {
        options_.env->RemoveFile(options_.path + "/" + name);
      }
    }
  }
}

void DiskComponent::BackgroundWork() {
  // Explicit lock()/unlock() pairing (not MutexLock): each iteration
  // drops mu_ around the merge I/O, and the analysis checks the manual
  // pairing on every branch.
  mu_.lock();
  while (true) {
    CompactionJob job;
    while (!stop_ && !PickCompactionLocked(&job)) {
      work_cv_.Wait(mu_);
    }
    if (stop_) {
      mu_.unlock();
      return;
    }
    ++active_compactions_;
    const int level = job.level;
    mu_.unlock();
    Status s = DoCompaction(std::move(job));
    if (!s.ok()) {
      fprintf(stderr, "flodb: compaction failed: %s\n", s.ToString().c_str());
      // Back off: a transient I/O failure retries; a persistent one must
      // not melt into a busy loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    mu_.lock();
    --active_compactions_;
    level_busy_[level] = false;
    level_busy_[level + 1] = false;
    idle_cv_.SignalAll();
    work_cv_.SignalAll();  // follow-up compactions may now be possible
  }
}

void DiskComponent::WaitForCompactions() {
  if (options_.compaction_threads == 0) {
    return;
  }
  {
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
  // Concurrent GC passes can leave a file obsoleted by the final
  // compaction on disk; a quiescent sweep reclaims it.
  RemoveObsoleteFiles();
}

Status DiskComponent::CompactOnce(bool* did_work) {
  CompactionJob job;
  {
    MutexLock lock(mu_);
    if (!PickCompactionLocked(&job)) {
      if (did_work != nullptr) {
        *did_work = false;
      }
      return Status::OK();
    }
    ++active_compactions_;
  }
  const int level = job.level;
  Status s = DoCompaction(std::move(job));
  {
    MutexLock lock(mu_);
    --active_compactions_;
    level_busy_[level] = false;
    level_busy_[level + 1] = false;
  }
  idle_cv_.SignalAll();
  if (did_work != nullptr) {
    *did_work = true;
  }
  return s;
}

Status DiskComponent::RunManualCompaction(
    const std::function<bool(const Version&, CompactionJob*)>& build, bool* did_work) {
  *did_work = false;
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
    std::shared_ptr<const Version> v = versions_->Current();
    if (!build(*v, &job)) {
      return Status::OK();
    }
    level_busy_[job.level] = true;
    level_busy_[job.level + 1] = true;
    ++active_compactions_;
  }
  const int level = job.level;
  Status s = DoCompaction(std::move(job));
  {
    MutexLock lock(mu_);
    --active_compactions_;
    level_busy_[level] = false;
    level_busy_[level + 1] = false;
  }
  idle_cv_.SignalAll();
  work_cv_.SignalAll();
  *did_work = true;
  return s;
}

Status DiskComponent::CompactRange(const Slice& begin, const Slice& end) {
  for (int level = 0; level + 1 < options_.num_levels; ++level) {
    bool did_work = false;
    Status s = RunManualCompaction(
        [&](const Version& v, CompactionJob* job) {
          std::vector<FileMetaData> inputs = v.OverlappingFiles(level, begin, end);
          if (inputs.empty()) {
            return false;
          }
          auto span_of = [](const std::vector<FileMetaData>& files, std::string* lo,
                            std::string* hi) {
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
            // L0 files overlap: expand to a fixpoint so no L0 file sharing
            // a key with the chosen set stays behind — an older version
            // left above data pushed to L1 would shadow it.
            while (true) {
              std::vector<FileMetaData> wider =
                  v.OverlappingFiles(0, Slice(span_lo), Slice(span_hi));
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
          job->drop_tombstones =
              v.IsBottommostForRange(level + 1, Slice(span_lo), Slice(span_hi));
          return true;
        },
        &did_work);
    if (!s.ok()) {
      return s;
    }
  }
  RemoveObsoleteFiles();
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
