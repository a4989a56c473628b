#include "flodb/disk/env.h"

#include <charconv>

namespace flodb {

Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname, bool sync) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok() && sync) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    env->RemoveFile(fname);
  }
  return s;
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static constexpr size_t kBufferSize = 64 << 10;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) {
      break;
    }
  }
  return s;
}

uint64_t ParseFileNumber(const std::string& dir, const std::string& name,
                         const std::function<std::string(uint64_t)>& file_name) {
  const size_t digits = name.find_first_of("0123456789");
  uint64_t number = 0;
  if (digits == std::string::npos ||
      std::from_chars(name.data() + digits, name.data() + name.size(), number).ec != std::errc()) {
    return 0;
  }
  return file_name(number) == dir + "/" + name ? number : 0;
}

}  // namespace flodb
