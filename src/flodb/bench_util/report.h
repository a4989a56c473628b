// Figure-style output for the bench binaries. Each result is recorded
// once, as a row of named string and numeric fields (Report::Add): it is
// printed as an aligned table line, with the first row's field names as
// the header, and buffered as one JSON row. WriteJson then writes the
// {"figure": ..., "rows": [...]} document that ci/check_gates.py checks
// against the gates in ci/gates.json. The path comes from `--json <path>`
// on the bench command line or the FLODB_BENCH_JSON environment variable.

#ifndef FLODB_BENCH_UTIL_REPORT_H_
#define FLODB_BENCH_UTIL_REPORT_H_

#include <cstdint>
#include <string>
#include <type_traits>
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

// One named cell of a result row: a string, or a number (printed and
// emitted as %.6g).
struct Field {
  Field(std::string name, std::string text) : name(std::move(name)), text(std::move(text)) {}
  template <typename Number>
    requires std::is_arithmetic_v<Number>
  Field(std::string name, Number number)
      : name(std::move(name)), number(static_cast<double>(number)), is_number(true) {}

  std::string name;
  std::string text;
  double number = 0;
  bool is_number = false;
};

// Prints "== <figure>: <title> ==", then one table line per Add.
class Report {
 public:
  Report(std::string figure_id, std::string title);

  // Records one result row: prints it as a table line (preceded by the
  // header on the first call) and buffers it as a JSON row.
  void Add(const std::vector<Field>& row);

  // Writes {"figure": <id>, "rows": [<row>...]} to `path`. Returns false
  // (with a message on stderr) if the file cannot be written. A no-op
  // returning true when `path` is empty.
  bool WriteJson(const std::string& path) const;

 private:
  std::string figure_id_;
  std::vector<size_t> widths_;
  std::vector<std::string> json_rows_;
};

}  // namespace flodb::bench

#endif  // FLODB_BENCH_UTIL_REPORT_H_
