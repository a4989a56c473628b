#include "flodb/bench_util/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flodb::bench {

double EnvDouble(const char* name, double def) {
  const char* v = getenv(name);
  return (v == nullptr || *v == '\0') ? def : atof(v);
}

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = getenv(name);
  return (v == nullptr || *v == '\0') ? def : atoll(v);
}

std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      return argv[i + 1];
    }
    if (arg.rfind("--json=", 0) == 0) {
      return arg.substr(strlen("--json="));
    }
  }
  const char* env = getenv("FLODB_BENCH_JSON");
  return env != nullptr ? env : "";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void PrintCell(const std::string& text, size_t width) {
  printf("%-*s%s", static_cast<int>(width), text.c_str(), text.size() < width ? "" : " ");
}

}  // namespace

Report::Report(std::string figure_id, std::string title) : figure_id_(std::move(figure_id)) {
  printf("\n== %s: %s ==\n", figure_id_.c_str(), title.c_str());
}

void Report::Add(const std::vector<Field>& row) {
  if (widths_.empty()) {
    size_t total = 0;
    for (const Field& field : row) {
      widths_.push_back(field.name.size() < 12 ? 12 : field.name.size() + 2);
      PrintCell(field.name, widths_.back());
      total += widths_.back();
    }
    printf("\n%s\n", std::string(total, '-').c_str());
  }
  std::string json = "{";
  for (size_t i = 0; i < row.size(); ++i) {
    const Field& field = row[i];
    const std::string value = field.is_number ? FormatNumber(field.number) : field.text;
    PrintCell(value, i < widths_.size() ? widths_[i] : 12);
    // append() rather than an operator+ chain: GCC 12 at -O3 raises a
    // false -Wrestrict on the chain (GCC PR 105329).
    json.append(i == 0 ? "\"" : ", \"").append(JsonEscape(field.name)).append("\": ");
    if (field.is_number) {
      json.append(value);
    } else {
      json.append("\"").append(JsonEscape(value)).append("\"");
    }
  }
  printf("\n");
  fflush(stdout);
  json_rows_.push_back(json + "}");
}

bool Report::WriteJson(const std::string& path) const {
  if (path.empty()) {
    return true;
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "report: cannot write %s\n", path.c_str());
    return false;
  }
  fprintf(f, "{\"figure\": \"%s\", \"rows\": [\n", JsonEscape(figure_id_).c_str());
  for (size_t i = 0; i < json_rows_.size(); ++i) {
    fprintf(f, "  %s%s\n", json_rows_[i].c_str(), i + 1 < json_rows_.size() ? "," : "");
  }
  fprintf(f, "]}\n");
  fclose(f);
  printf("# wrote %zu JSON rows to %s\n", json_rows_.size(), path.c_str());
  return true;
}

}  // namespace flodb::bench
