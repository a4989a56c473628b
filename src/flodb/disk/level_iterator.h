// LevelIterator: a lazy concatenating iterator over one sorted level
// (L1+: files key-ordered with disjoint ranges). At most one table
// iterator is live at a time; Seek binary-searches the file list and
// reads only the file that can contain the target. Every table is
// already open (FileMetaData::table), so moving to the next file cannot
// fail to open it. Replaces the old one-merging-child-per-file scheme,
// which paid a heap comparison per file per step.

#ifndef FLODB_DISK_LEVEL_ITERATOR_H_
#define FLODB_DISK_LEVEL_ITERATOR_H_

#include <memory>
#include <vector>

#include "flodb/disk/iterator.h"
#include "flodb/disk/version.h"

namespace flodb {

// REQUIRES: `files` sorted by smallest key with disjoint ranges, each
// with its table open (a level >= 1 of a Version). The iterator's copy
// of `files` keeps their tables open for its lifetime.
std::unique_ptr<Iterator> NewLevelIterator(std::vector<FileMetaData> files,
                                           bool fill_cache = true);

}  // namespace flodb

#endif  // FLODB_DISK_LEVEL_ITERATOR_H_
