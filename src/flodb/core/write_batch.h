// WriteBatch: an ordered collection of Put/Delete records that
// KVStore::Write commits as one unit — one WAL record, one contiguous
// sequence range, one pass through the memory component. This is the v2
// ingestion primitive that lets group commit amortize the per-operation
// costs FloDB's Membuffer→Memtable pipeline was built to absorb (§3).
//
// Entry encoding (also the body of a WAL batch record, so a batch is
// logged with zero re-encoding):
//
//   count × ( uint8 type | varint32 klen | key | varint32 vlen | value )
//
// Semantics:
//  * Entries are applied in insertion order; for duplicate keys the LAST
//    entry in the batch wins.
//  * A batch is durability-atomic: it becomes one CRC-framed WAL record,
//    so recovery replays it all-or-nothing.
//  * A batch is NOT isolation-atomic: concurrent readers may observe a
//    prefix of a batch while it is being applied (see DESIGN.md §2).
//
// A WriteBatch is reusable: Clear() keeps the allocated capacity, so hot
// paths (including the one-entry Put/Delete wrappers) pay no allocation
// after warm-up. Not thread-safe; one writer thread per batch.

#ifndef FLODB_CORE_WRITE_BATCH_H_
#define FLODB_CORE_WRITE_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "flodb/common/slice.h"
#include "flodb/common/status.h"
#include "flodb/mem/entry.h"

namespace flodb {

class WriteBatch {
 public:
  WriteBatch() = default;

  // Stages an insert/update of key -> value.
  void Put(const Slice& key, const Slice& value);

  // Stages a deletion of key (a tombstone entry).
  void Delete(const Slice& key);

  // Appends every entry of `other` after this batch's entries.
  void Append(const WriteBatch& other);

  // Drops all entries but keeps the allocated capacity.
  void Clear();

  size_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }
  size_t ApproximateBytes() const { return rep_.size(); }

  // The raw encoded entries — exactly the body of a WAL batch record.
  const std::string& rep() const { return rep_; }

  // Visits every entry in insertion order. The Slices are valid only for
  // the duration of each callback. Returns Corruption if the encoding is
  // malformed (possible only for reps restored from external bytes).
  Status ForEach(
      const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn) const;

  // Decodes an externally produced rep (e.g. a WAL batch record body) and
  // visits each entry; shared by ForEach and WAL recovery.
  static Status IterateRep(
      const Slice& rep, uint32_t expected_count,
      const std::function<void(const Slice& key, const Slice& value, ValueType type)>& fn);

 private:
  void AppendEntry(const Slice& key, const Slice& value, ValueType type);

  std::string rep_;
  uint32_t count_ = 0;
};

}  // namespace flodb

#endif  // FLODB_CORE_WRITE_BATCH_H_
