// Env: the storage abstraction under the disk component.
//
// Three implementations ship:
//  * PosixEnv      — real files (production path),
//  * MemEnv        — an in-memory filesystem (tests; removes I/O noise),
//  * ThrottledEnv  — wraps another Env and caps write bandwidth with a
//                    token bucket, standing in for the paper's SSD: the
//                    persistence-throughput ceiling in Figures 9/17 is the
//                    bucket rate.

#ifndef FLODB_DISK_ENV_H_
#define FLODB_DISK_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/slice.h"
#include "flodb/common/status.h"

namespace flodb {

class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  // Reads up to n bytes. *result points into scratch (or internal storage).
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const = 0;
};

class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir, std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* file_size) = 0;
  virtual Status RenameFile(const std::string& src, const std::string& target) = 0;
};

// Process-wide PosixEnv singleton.
Env* GetPosixEnv();

// Convenience helpers built on the interface.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname, bool sync);
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

// The number in directory entry `name` if `file_name` formats it back to
// exactly `dir + "/" + name`, else 0 (store files are numbered from 1).
// Directory scans use it so a stray entry such as "notes.sst" or
// "wal-7.log.old" is never taken for a store file.
uint64_t ParseFileNumber(const std::string& dir, const std::string& name,
                         const std::function<std::string(uint64_t)>& file_name);

}  // namespace flodb

#endif  // FLODB_DISK_ENV_H_
