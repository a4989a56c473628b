// Shared in-memory entry types.
//
// A Delete is a Put of a tombstone (paper §3.2), so every entry carries a
// ValueType. Sequence numbers are assigned by a single global atomic
// counter when an entry reaches the Memtable (directly, or via draining)
// and travel with the entry onto disk; scans validate against them
// (paper §4.4, Algorithm 3).

#ifndef FLODB_MEM_ENTRY_H_
#define FLODB_MEM_ENTRY_H_

#include <cstdint>
#include <string>

#include "flodb/common/slice.h"

namespace flodb {

enum class ValueType : uint8_t {
  kValue = 0,
  kTombstone = 1,
  // SSTables and WAL batch records persist this byte. Readers reject any
  // other value as corruption.
};

// An entry buffered for a drain batch: owned copies of the key/value made
// while holding the source bucket lock, plus the slot coordinates needed
// to complete the remove-after-insert step of the drain protocol.
struct DrainedEntry {
  std::string key;
  std::string value;
  ValueType type = ValueType::kValue;
  uint64_t seq = 0;  // assigned just before Memtable insertion

  // Slot coordinates in the source Membuffer (mark/remove protocol).
  uint64_t bucket = 0;
  int slot = 0;
  uint32_t version = 0;
};

}  // namespace flodb

#endif  // FLODB_MEM_ENTRY_H_
