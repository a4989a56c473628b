// Figure-style output helpers: every bench binary prints a human-readable
// table plus machine-readable CSV rows tagged with the figure id, so
// results can be diffed against the paper's curves. With a JSON sink
// attached (`--json out.json` on the bench command line, or the
// FLODB_BENCH_JSON environment variable), the same data also lands in a
// {"figure": ..., "rows": [...]} file for CI perf tracking
// (ci/check_gates.py checks it against the gates in ci/gates.json).

#ifndef FLODB_BENCH_UTIL_REPORT_H_
#define FLODB_BENCH_UTIL_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flodb::bench {

// Reads an environment override (benchmark scaling knobs), or `def`.
double EnvDouble(const char* name, double def);
int64_t EnvInt(const char* name, int64_t def);

// The output path of a `--json <path>` / `--json=<path>` command-line
// flag, falling back to the FLODB_BENCH_JSON environment variable; empty
// when neither is present.
std::string JsonPathFromArgs(int argc, char** argv);

// Prints "== <figure>: <title> ==" and remembers the figure id for rows.
class Report {
 public:
  Report(std::string figure_id, std::string title);

  // Human-readable aligned columns.
  void Header(const std::vector<std::string>& columns);
  void Row(const std::vector<std::string>& cells);

  // CSV line: "<figure_id>,<cells...>".
  void Csv(const std::vector<std::string>& cells);

  // Buffers one machine-readable row. Strings are JSON-escaped; numbers
  // are emitted as-is.
  void JsonRow(const std::vector<std::pair<std::string, std::string>>& strings,
               const std::vector<std::pair<std::string, double>>& numbers);

  // Writes {"figure": <id>, "rows": [<JsonRow>...]} to `path`. Returns
  // false (with a message on stderr) if the file cannot be written. A
  // no-op returning true when `path` is empty.
  bool WriteJson(const std::string& path) const;

  static std::string Fmt(double v, int precision = 3);

 private:
  std::string figure_id_;
  std::vector<size_t> widths_;
  std::vector<std::string> json_rows_;
};

}  // namespace flodb::bench

#endif  // FLODB_BENCH_UTIL_REPORT_H_
