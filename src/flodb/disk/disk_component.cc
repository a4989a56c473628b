#include "flodb/disk/disk_component.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "flodb/common/coding.h"
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
  if (options.table_cache_entries == 0) {
    // Without any open-table reuse every Get would reopen (and re-read
    // the index + bloom filter of) its file; reject the footgun instead
    // of silently crawling. block_cache_bytes == 0 stays valid: it only
    // turns off block caching.
    return Status::InvalidArgument("table_cache_entries must be >= 1");
  }
  if (options.value_separation_threshold < 0) {
    return Status::InvalidArgument("value_separation_threshold must be >= 0");
  }
  if (!(options.vlog_gc_garbage_ratio > 0.0) || options.vlog_gc_garbage_ratio > 1.0) {
    return Status::InvalidArgument("vlog_gc_garbage_ratio must be in (0, 1]");
  }
  auto dc = std::unique_ptr<DiskComponent>(new DiskComponent(options));
  if (options.block_cache_bytes > 0) {
    dc->block_cache_ = std::make_unique<ShardedLruCache>(options.block_cache_bytes);
  }
  // Entry-charged cache: cap the shard count by the entry budget so no
  // shard ends up with a zero slice of a small open-table bound.
  dc->table_cache_ = std::make_unique<ShardedLruCache>(
      options.table_cache_entries,
      static_cast<int>(std::min<size_t>(options.table_cache_entries, ShardedLruCache::kNumShards)));
  dc->versions_ =
      std::make_unique<VersionSet>(options.env, options.path, options.num_levels);
  Status s = dc->versions_->Recover();
  if (!s.ok()) {
    return s;
  }
  // A crash mid-compaction leaves orphan outputs (.sst files never
  // installed in a version) and possibly a stale manifest; sweep them
  // before background work starts. The counter bump moves orphans below
  // the GC barrier so the sweep can touch them.
  dc->options_.env->RemoveFile(options.path + "/CURRENT.tmp");
  {
    std::vector<std::string> children;
    if (dc->options_.env->GetChildren(options.path, &children).ok()) {
      uint64_t max_number = 0;
      for (const std::string& name : children) {
        const bool is_sst = name.size() >= 5 && name.substr(name.size() - 4) == ".sst";
        const bool is_vlog = name.size() >= 6 && name.substr(name.size() - 5) == ".vlog";
        if (is_sst || is_vlog) {
          max_number = std::max(
              max_number, static_cast<uint64_t>(strtoull(name.c_str(), nullptr, 10)));
        }
      }
      dc->versions_->EnsureFileNumberAtLeast(max_number + 1);
    }
  }
  // Value log: enabled by the threshold, and kept alive for reads/GC even
  // at threshold 0 when the recovered version already owns vlog files
  // (separation turned off on a previously separated store).
  if (options.value_separation_threshold > 0 ||
      !dc->versions_->Current()->VlogFiles().empty()) {
    DiskComponent* raw = dc.get();
    dc->value_log_ = std::make_unique<ValueLog>(
        options.env, options.path, options.vlog_file_target_bytes,
        [raw] {
          // Shield the number from a sweep racing the creation→register
          // window (same pending-outputs discipline as .sst outputs).
          MutexLock lock(raw->pending_mu_);
          const uint64_t number = raw->versions_->NewFileNumber();
          raw->pending_outputs_.insert(number);
          return number;
        },
        [raw](uint64_t number) {
          VersionEdit edit;
          edit.added_vlogs.push_back(number);
          Status status = raw->versions_->LogAndApply(edit);
          MutexLock lock(raw->pending_mu_);
          raw->pending_outputs_.erase(number);
          return status;
        });
    // A vlog registered in the MANIFEST but missing on disk was lost
    // before any append to it was synced (registration precedes appends;
    // vlog sync precedes any WAL sync or table install referencing it),
    // so nothing durable points into it: deregister.
    VersionEdit edit;
    for (const auto& [number, garbage] : dc->versions_->Current()->VlogFiles()) {
      if (!options.env->FileExists(VlogFileName(options.path, number))) {
        edit.deleted_vlogs.push_back(number);
      }
    }
    if (!edit.deleted_vlogs.empty()) {
      s = dc->versions_->LogAndApply(edit);
      if (!s.ok()) {
        return s;
      }
    }
  }
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

namespace {

// Table-cache values are heap shared_ptrs so pinned readers (iterators,
// compactions) outlive eviction; the cache entry holds one strong ref.
void DeleteTableEntry(const Slice& /*key*/, void* value) {
  delete static_cast<std::shared_ptr<TableReader>*>(value);
}

Slice TableCacheKey(uint64_t number, char* buf /*8 bytes*/) {
  EncodeFixed64(buf, number);
  return Slice(buf, 8);
}

}  // namespace

std::shared_ptr<TableReader> DiskComponent::GetTable(uint64_t number, uint64_t file_size) const {
  char buf[8];
  const Slice key = TableCacheKey(number, buf);
  if (ShardedLruCache::Handle* handle = table_cache_->Lookup(key)) {
    std::shared_ptr<TableReader> table =
        *static_cast<std::shared_ptr<TableReader>*>(table_cache_->Value(handle));
    table_cache_->Release(handle);
    return table;
  }
  std::unique_ptr<RandomAccessFile> file;
  Status s = options_.env->NewRandomAccessFile(versions_->TableFileName(number), &file);
  if (!s.ok()) {
    return nullptr;
  }
  TableReader::Options reader_options;
  reader_options.block_cache = block_cache_.get();
  reader_options.cache_id = number;  // file numbers are never reused
  std::unique_ptr<TableReader> reader;
  s = TableReader::Open(std::move(file), file_size, reader_options, &reader);
  if (!s.ok()) {
    return nullptr;
  }
  // Two threads can race the same miss and both insert; the loser's
  // entry is replaced and its reader torn down once unpinned (a benign
  // transient: the torn-down duplicate also purges the file's shared
  // block keys, costing at most a few warm blocks).
  auto* holder = new std::shared_ptr<TableReader>(std::move(reader));
  std::shared_ptr<TableReader> table = *holder;
  ShardedLruCache::Handle* handle =
      table_cache_->Insert(key, holder, /*charge=*/1, &DeleteTableEntry);
  table_cache_->Release(handle);
  return table;
}

Status DiskComponent::AddRun(Iterator* iter) {
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
  std::set<uint64_t> vlog_refs;
  std::map<uint64_t, uint64_t> vlog_garbage;  // vlog number -> dead bytes
  auto vlog_pointer = [](const Slice& value, ValuePointer* ptr) {
    return DecodeValuePointer(value, ptr);
  };
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    // First occurrence of a user key is the freshest (children are merged
    // key-asc/seq-desc); drop the rest.
    if (has_last && iter->key() == Slice(last_key)) {
      ValuePointer ptr;
      if (iter->type() == ValueType::kValuePointer && vlog_pointer(iter->value(), &ptr)) {
        vlog_garbage[ptr.file_number] += ptr.length;  // record died with its entry
      }
      continue;
    }
    last_key.assign(iter->key().data(), iter->key().size());
    has_last = true;
    ValuePointer ptr;
    if (iter->type() == ValueType::kValuePointer && vlog_pointer(iter->value(), &ptr)) {
      vlog_refs.insert(ptr.file_number);
    }
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
  if (s.ok() && value_log_ != nullptr && !vlog_refs.empty()) {
    // An installed table must never reference unsynced vlog bytes (the
    // no-WAL / sync=false paths reach here with the vlog still dirty).
    s = value_log_->Sync();
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
  meta.vlog_refs.assign(vlog_refs.begin(), vlog_refs.end());

  // Fold garbage observed in the memory component into this flush's
  // edit: the flush is the generation boundary — the WAL records that
  // could replay (and re-derive) those deaths are deleted once this
  // cycle completes, so this is the earliest point the counts may
  // persist without double-counting across a crash. (Deaths staged
  // while the table was being built belong to the next generation and
  // fold one flush early — a bounded, benign over-count on crash.)
  std::map<uint64_t, uint64_t> staged;
  {
    MutexLock lock(reported_garbage_mu_);
    staged.swap(reported_garbage_);
  }
  for (const auto& [vlog_number, bytes] : staged) {
    vlog_garbage[vlog_number] += bytes;
  }

  VersionEdit edit;
  edit.added.emplace_back(0, std::move(meta));
  for (const auto& [vlog_number, bytes] : vlog_garbage) {
    edit.vlog_garbage.emplace_back(vlog_number, bytes);
  }
  s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    // Re-stage so the observed garbage is not lost; a later flush or the
    // live GC picker still sees it.
    MutexLock lock(reported_garbage_mu_);
    for (const auto& [vlog_number, bytes] : staged) {
      reported_garbage_[vlog_number] += bytes;
    }
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
    std::shared_ptr<TableReader> table = GetTable(f->number, f->file_size);
    if (table == nullptr) {
      return Status::IOError("cannot open table file");
    }
    Status s = table->Get(key, value, seq, type);
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
    std::shared_ptr<TableReader> table = GetTable(files[lo].number, files[lo].file_size);
    if (table == nullptr) {
      return Status::IOError("cannot open table file");
    }
    Status s = table->Get(key, value, seq, type);
    if (!s.IsNotFound()) {
      return s;
    }
  }
  return Status::NotFound();
}

namespace {

// Pins the Version (and the TableReaders) backing a merged iterator.
class VersionPinnedIterator final : public Iterator {
 public:
  VersionPinnedIterator(std::unique_ptr<Iterator> base, std::shared_ptr<const Version> version,
                        std::vector<std::shared_ptr<TableReader>> tables)
      : base_(std::move(base)), version_(std::move(version)), tables_(std::move(tables)) {}

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
  std::unique_ptr<Iterator> base_;
  std::shared_ptr<const Version> version_;
  std::vector<std::shared_ptr<TableReader>> tables_;
};

}  // namespace

std::unique_ptr<Iterator> DiskComponent::NewIterator() const {
  std::shared_ptr<const Version> version = versions_->Current();
  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<std::shared_ptr<TableReader>> tables;
  // L0 files overlap: each needs its own merge child.
  for (const FileMetaData& f : version->LevelFiles(0)) {
    std::shared_ptr<TableReader> table = GetTable(f.number, f.file_size);
    if (table == nullptr) {
      continue;  // surfaced via status of other children in practice
    }
    children.push_back(table->NewIterator());
    tables.push_back(std::move(table));
  }
  // Levels >= 1 are disjoint and sorted: one lazy concatenating child per
  // level keeps the merge heap O(L0 + levels) wide instead of O(files),
  // and a Seek opens only the one file per level that can hold the
  // target.
  TableOpener opener = [this](uint64_t number, uint64_t file_size) {
    return GetTable(number, file_size);
  };
  for (int level = 1; level < version->NumLevels(); ++level) {
    if (!version->LevelFiles(level).empty()) {
      children.push_back(NewLevelIterator(version->LevelFiles(level), opener));
    }
  }
  return std::make_unique<VersionPinnedIterator>(NewMergingIterator(std::move(children)),
                                                 std::move(version), std::move(tables));
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

Status DiskComponent::DoCompaction(const CompactionJob& job) {
  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<std::shared_ptr<TableReader>> pinned;
  uint64_t in_bytes = 0;
  for (const auto* inputs : {&job.inputs_lo, &job.inputs_hi}) {
    for (const FileMetaData& f : *inputs) {
      std::shared_ptr<TableReader> table = GetTable(f.number, f.file_size);
      if (table == nullptr) {
        return Status::IOError("compaction input missing");
      }
      // No-fill: a compaction streams every input block exactly once and
      // then deletes the files — inserting them would flush the readers'
      // hot set out of the shared cache for nothing. Blocks user reads
      // already cached are still served from the cache.
      children.push_back(table->NewIterator(/*fill_cache=*/false));
      pinned.push_back(std::move(table));
      in_bytes += f.file_size;
    }
  }
  std::unique_ptr<Iterator> merged = NewMergingIterator(std::move(children));

  VersionEdit edit;
  const int out_level = job.output_level >= 0 ? job.output_level : job.level + 1;
  uint64_t out_bytes = 0;
  const std::set<uint64_t> gc_vlogs(job.rewrite_vlogs.begin(), job.rewrite_vlogs.end());
  std::set<uint64_t> output_refs;                 // vlogs referenced by the current output
  std::map<uint64_t, uint64_t> vlog_garbage;      // vlog number -> dead bytes
  bool vlog_needs_sync = false;                   // fresh GC appends before install
  auto account_dropped_pointer = [&](const Slice& value, ValueType type) {
    ValuePointer ptr;
    if (type == ValueType::kValuePointer && DecodeValuePointer(value, &ptr)) {
      vlog_garbage[ptr.file_number] += ptr.length;
    }
  };

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
    meta.vlog_refs.assign(output_refs.begin(), output_refs.end());
    output_refs.clear();
    out_bytes += meta.file_size;
    edit.added.emplace_back(out_level, std::move(meta));
    builder.reset();
    file.reset();
    return Status::OK();
  };

  std::string last_key;
  bool has_last = false;
  std::string gc_value, gc_pointer;
  Status s;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    if (has_last && merged->key() == Slice(last_key)) {
      account_dropped_pointer(merged->value(), merged->type());
      continue;  // older version of the same user key
    }
    last_key.assign(merged->key().data(), merged->key().size());
    has_last = true;
    if (job.drop_tombstones && merged->type() == ValueType::kTombstone) {
      continue;  // no deeper level can hold this key: tombstone retires
    }
    Slice value = merged->value();
    ValuePointer ptr;
    if (merged->type() == ValueType::kValuePointer) {
      if (!DecodeValuePointer(value, &ptr)) {
        return Status::Corruption("bad value pointer in compaction input");
      }
      if (gc_vlogs.count(ptr.file_number) != 0) {
        // Vlog GC: move the live record out of the victim so the file
        // loses its last references and can be retired.
        s = value_log_->Read(ptr, &gc_value);
        if (!s.ok()) {
          return s;
        }
        ValuePointer moved;
        s = value_log_->Append(merged->key(), gc_value, &moved, /*pin=*/false);
        if (!s.ok()) {
          return s;
        }
        gc_pointer.clear();
        EncodeValuePointer(&gc_pointer, moved);
        value = Slice(gc_pointer);
        ptr = moved;
        vlog_needs_sync = true;
        vlog_gc_rewrites_.fetch_add(1, std::memory_order_relaxed);
      }
      output_refs.insert(ptr.file_number);
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
    builder->Add(merged->key(), merged->seq(), merged->type(), value);
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
  if (vlog_needs_sync) {
    // The outputs reference freshly appended vlog bytes; they must be
    // durable before the manifest installs tables pointing at them.
    s = value_log_->Sync();
    if (!s.ok()) {
      return s;
    }
  }

  for (const FileMetaData& f : job.inputs_lo) {
    edit.deleted.emplace_back(job.level, f.number);
  }
  for (const FileMetaData& f : job.inputs_hi) {
    edit.deleted.emplace_back(out_level, f.number);
  }
  for (const auto& [vlog_number, bytes] : vlog_garbage) {
    edit.vlog_garbage.emplace_back(vlog_number, bytes);
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
  std::set<uint64_t> live_vlogs = versions_->AllLiveVlogNumbers();
  live.insert(pending.begin(), pending.end());
  live_vlogs.insert(pending.begin(), pending.end());
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
      // Dropping the table handle tears down its reader (once unpinned),
      // which purges the file's blocks from the block cache.
      char buf[8];
      table_cache_->Erase(TableCacheKey(number, buf));
    } else if (name.size() >= 6 && name.substr(name.size() - 5) == ".vlog") {
      // Same barrier discipline as .sst: orphans of a crashed rotation or
      // a GC'd victim go once no pinned version can resolve into them.
      const uint64_t number = static_cast<uint64_t>(strtoull(name.c_str(), nullptr, 10));
      if (number >= barrier || live_vlogs.count(number) != 0) {
        continue;
      }
      options_.env->RemoveFile(options_.path + "/" + name);
      if (value_log_ != nullptr) {
        value_log_->EvictReader(number);
      }
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
    mu_.unlock();
    // The cross-shard bound is taken OUTSIDE mu_ (blocking with the
    // scheduling lock held would freeze AddRun's stall check) and only
    // around the I/O: picking is cheap, merging is not.
    if (options_.compaction_limiter != nullptr) {
      options_.compaction_limiter->Acquire();
    }
    Status s = DoCompaction(job);
    if (options_.compaction_limiter != nullptr) {
      options_.compaction_limiter->Release();
    }
    if (!s.ok()) {
      fprintf(stderr, "flodb: compaction failed: %s\n", s.ToString().c_str());
      // Back off: a transient I/O failure retries; a persistent one must
      // not melt into a busy loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    mu_.lock();
    --active_compactions_;
    level_busy_[job.level] = false;
    level_busy_[job.level + 1] = false;
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
  Status s = DoCompaction(job);
  {
    MutexLock lock(mu_);
    --active_compactions_;
    level_busy_[job.level] = false;
    level_busy_[job.level + 1] = false;
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
  int out_level = -1;
  {
    MutexLock lock(mu_);
    // Manual jobs are rare (tests, ops, vlog GC): the simple and correct
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
    out_level = job.output_level >= 0 ? job.output_level : job.level + 1;
    level_busy_[job.level] = true;
    level_busy_[out_level] = true;
    ++active_compactions_;
  }
  Status s = DoCompaction(job);
  {
    MutexLock lock(mu_);
    --active_compactions_;
    level_busy_[job.level] = false;
    level_busy_[out_level] = false;
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

Status DiskComponent::AppendToValueLog(const Slice& key, const Slice& value,
                                       std::string* pointer_value, uint64_t* pinned_file) {
  if (value_log_ == nullptr) {
    return Status::NotSupported("value separation disabled");
  }
  ValuePointer ptr;
  Status s = value_log_->Append(key, value, &ptr, /*pin=*/true);
  if (!s.ok()) {
    return s;
  }
  pointer_value->clear();
  EncodeValuePointer(pointer_value, ptr);
  *pinned_file = ptr.file_number;
  return Status::OK();
}

void DiskComponent::UnpinVlogFile(uint64_t file_number) {
  if (value_log_ != nullptr) {
    value_log_->Unpin(file_number);
  }
}

Status DiskComponent::SyncValueLog() {
  return value_log_ != nullptr ? value_log_->Sync() : Status::OK();
}

Status DiskComponent::ResolveValuePointer(const Slice& pointer_value, std::string* value) const {
  if (value_log_ == nullptr) {
    return Status::Corruption("value pointer entry but no value log");
  }
  ValuePointer ptr;
  if (!DecodeValuePointer(pointer_value, &ptr)) {
    return Status::Corruption("malformed value pointer");
  }
  return value_log_->Read(ptr, value);
}

void DiskComponent::ReportVlogGarbage(const Slice& pointer_value) {
  if (value_log_ == nullptr) {
    return;
  }
  ValuePointer ptr;
  if (!DecodeValuePointer(pointer_value, &ptr)) {
    return;
  }
  MutexLock lock(reported_garbage_mu_);
  reported_garbage_[ptr.file_number] += ptr.length;
}

bool DiskComponent::PickVlogGcVictims(std::vector<uint64_t>* victims,
                                      const std::set<uint64_t>* skip) const {
  victims->clear();
  if (value_log_ == nullptr) {
    return false;
  }
  const uint64_t active = value_log_->ActiveFileNumber();
  std::shared_ptr<const Version> v = versions_->Current();
  for (const auto& [number, garbage] : v->VlogFiles()) {
    if (number == active || (skip != nullptr && skip->count(number) != 0)) {
      continue;  // the active file is still growing; never a victim
    }
    uint64_t staged = 0;
    {
      MutexLock lock(reported_garbage_mu_);
      auto it = reported_garbage_.find(number);
      staged = it != reported_garbage_.end() ? it->second : 0;
    }
    if (garbage + staged == 0) {
      continue;
    }
    uint64_t size = 0;
    if (!options_.env->GetFileSize(VlogFileName(options_.path, number), &size).ok() ||
        size == 0) {
      continue;
    }
    if (static_cast<double>(garbage + staged) >=
        options_.vlog_gc_garbage_ratio * static_cast<double>(size)) {
      victims->push_back(number);
    }
  }
  return !victims->empty();
}

void DiskComponent::WaitVlogUnpinned(uint64_t victim) {
  if (value_log_ != nullptr) {
    value_log_->WaitUnpinned(victim);
  }
}

Status DiskComponent::CompactVlogFiles(const std::vector<uint64_t>& victims,
                                       uint64_t* rewrites) {
  if (value_log_ == nullptr) {
    return Status::NotSupported("value separation disabled");
  }
  if (victims.empty()) {
    return Status::OK();
  }
  const uint64_t before = vlog_gc_rewrites_.load(std::memory_order_relaxed);
  // Rewrite every table still referencing any victim, level by level,
  // until the current version holds no reference. In-place jobs: only the
  // pointers move, the level shape stays. Batching all victims into one
  // pass matters for write amplification: a table's values are scattered
  // across many vlog files, so per-victim passes would rewrite the same
  // table once per victim instead of once total.
  const auto references_victim = [&victims](const FileMetaData& f) {
    for (uint64_t victim : victims) {
      if (std::binary_search(f.vlog_refs.begin(), f.vlog_refs.end(), victim)) {
        return true;
      }
    }
    return false;
  };
  while (true) {
    bool did_work = false;
    Status s = RunManualCompaction(
        [&](const Version& v, CompactionJob* job) {
          for (int level = 0; level < v.NumLevels(); ++level) {
            std::vector<FileMetaData> inputs;
            for (const FileMetaData& f : v.LevelFiles(level)) {
              if (references_victim(f)) {
                inputs.push_back(f);
              }
            }
            if (inputs.empty()) {
              continue;
            }
            if (level == 0) {
              // An in-place merge of an L0 *subset* could surface a stale
              // version: the merged output spans its inputs' seq ranges,
              // breaking the newest-first search order against files left
              // out. Take the whole level instead — L0 is small by
              // construction (stall trigger).
              inputs = v.LevelFiles(0);
            }
            job->level = level;
            job->output_level = level;
            job->inputs_lo = std::move(inputs);
            job->rewrite_vlogs = victims;
            return true;
          }
          return false;
        },
        &did_work);
    if (!s.ok()) {
      return s;
    }
    if (!did_work) {
      break;
    }
  }
  // No current table references the victims; deregister them in one edit.
  // The unlink happens in RemoveObsoleteFiles once every pinned older
  // version (a long scan, say) is released — the GC barrier discipline.
  VersionEdit edit;
  edit.deleted_vlogs = victims;
  Status s = versions_->LogAndApply(edit);
  if (!s.ok()) {
    return s;
  }
  {
    // The files are gone from the version; staged garbage for them is moot
    // (and must not fold into a later edit naming a dead file).
    MutexLock lock(reported_garbage_mu_);
    for (uint64_t victim : victims) {
      reported_garbage_.erase(victim);
    }
  }
  if (rewrites != nullptr) {
    *rewrites = vlog_gc_rewrites_.load(std::memory_order_relaxed) - before;
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
  for (const auto& [number, garbage] : v->VlogFiles()) {
    ++stats.vlog_files;
    stats.vlog_garbage_bytes += garbage;
    {
      MutexLock lock(reported_garbage_mu_);
      auto it = reported_garbage_.find(number);
      if (it != reported_garbage_.end()) {
        stats.vlog_garbage_bytes += it->second;
      }
    }
    uint64_t size = 0;
    if (options_.env->GetFileSize(VlogFileName(options_.path, number), &size).ok()) {
      stats.vlog_bytes += size;
    }
  }
  if (value_log_ != nullptr) {
    stats.vlog_bytes_written = value_log_->BytesAppended();
    stats.vlog_writes = value_log_->RecordsAppended();
    stats.vlog_reads = value_log_->RecordsRead();
  }
  stats.vlog_gc_rewrites = vlog_gc_rewrites_.load(std::memory_order_relaxed);
  if (block_cache_ != nullptr) {
    const ShardedLruCache::Stats cache = block_cache_->GetStats();
    stats.block_cache_hits = cache.hits;
    stats.block_cache_misses = cache.misses;
    stats.block_cache_evictions = cache.evictions;
    stats.block_cache_bytes = cache.charge;
    stats.block_cache_pinned_bytes = cache.pinned_charge;
  }
  {
    const ShardedLruCache::Stats cache = table_cache_->GetStats();
    stats.table_cache_hits = cache.hits;
    stats.table_cache_misses = cache.misses;
    stats.table_cache_evictions = cache.evictions;
    stats.table_cache_entries = cache.entries;
  }
  return stats;
}

}  // namespace flodb
