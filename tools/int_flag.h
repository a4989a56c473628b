// Integer command-line flag parsing shared by flodb-server and flodb-cli.

#ifndef FLODB_TOOLS_INT_FLAG_H_
#define FLODB_TOOLS_INT_FLAG_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>

// Returns `text` parsed as a base-10 integer in [lo, hi]. Anything else —
// an empty string, trailing characters, a value out of range — prints a
// message naming `flag` and exits with status 2.
inline long long IntFlagOrExit(const char* flag, const char* text, long long lo, long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo || value > hi) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n", flag, lo, hi,
                 text);
    std::exit(2);
  }
  return value;
}

#endif  // FLODB_TOOLS_INT_FLAG_H_
