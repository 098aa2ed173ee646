// Span-profile inspector and perf-baseline gate (library: obs/profile.hpp).
//
//   mpass_prof top <file> [-n N]         self-time hotspot table
//   mpass_prof tree <file>               call-path tree with % of parent
//   mpass_prof collect <dir> [--out F] [--expect a,b,c]
//                                        merge BENCH_*.json into a
//                                        schema-versioned BENCH_SUMMARY.json;
//                                        fails on missing or unparsable
//                                        bench output
//   mpass_prof compare <baseline> <current>
//             [--threshold 0.20] [--min-ms 10] [--warn-only]
//             [--only <bench>] [--wall-only]
//                                        compare wall-ms per bench and
//                                        self-ms per span path against a
//                                        baseline; exits nonzero when any
//                                        series regressed past the threshold.
//                                        --only restricts to one bench and
//                                        --wall-only skips the per-span
//                                        series (the enforcing CI micro gate
//                                        uses both; spans stay warn-only)
//
// <file> accepts a spans.json, a BENCH_<name>.json, or a BENCH_SUMMARY.json
// (compare only). Exit codes: 0 pass, 1 regression/collect failure, 2 usage
// or parse error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "util/serialize.hpp"

namespace {

using mpass::obs::Json;

int usage() {
  std::fprintf(
      stderr,
      "usage: mpass_prof top <spans.json|BENCH_*.json> [-n N]\n"
      "       mpass_prof tree <spans.json|BENCH_*.json>\n"
      "       mpass_prof collect <bench-dir> [--out FILE] [--expect a,b,c]\n"
      "       mpass_prof compare <baseline> <current> [--threshold 0.20]\n"
      "                  [--min-ms 10] [--warn-only] [--only <bench>]\n"
      "                  [--wall-only]\n");
  return 2;
}

const char* opt(int argc, char** argv, const char* name,
                const char* fallback = nullptr) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

bool flag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

std::optional<Json> load_json(const std::filesystem::path& path) {
  const auto blob = mpass::util::load_file(path);
  if (!blob) {
    std::fprintf(stderr, "mpass_prof: cannot read %s\n",
                 path.string().c_str());
    return std::nullopt;
  }
  auto doc = Json::parse(std::string_view(
      reinterpret_cast<const char*>(blob->data()), blob->size()));
  if (!doc)
    std::fprintf(stderr, "mpass_prof: %s: invalid JSON\n",
                 path.string().c_str());
  return doc;
}

std::optional<std::vector<mpass::obs::SpanProfileRow>> load_spans(
    const std::filesystem::path& path) {
  const auto doc = load_json(path);
  if (!doc) return std::nullopt;
  auto rows = mpass::obs::parse_spans(*doc);
  if (!rows)
    std::fprintf(stderr, "mpass_prof: %s: no \"spans\" array\n",
                 path.string().c_str());
  return rows;
}

int cmd_top(int argc, char** argv) {
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  std::size_t n = 20;
  if (const char* v = opt(argc, argv, "-n")) n = std::strtoull(v, nullptr, 10);
  std::fputs(mpass::obs::render_span_top(*rows, n).c_str(), stdout);
  return 0;
}

int cmd_tree(int, char** argv) {
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  std::fputs(mpass::obs::render_span_tree(*rows).c_str(), stdout);
  return 0;
}

int cmd_collect(int argc, char** argv) {
  const std::filesystem::path dir = argv[2];
  std::vector<std::string> expected;
  if (const char* e = opt(argc, argv, "--expect")) {
    std::string cur;
    for (const char* p = e;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!cur.empty()) expected.push_back(cur);
        cur.clear();
        if (*p == '\0') break;
      } else {
        cur += *p;
      }
    }
  }
  std::string error;
  const auto summary = mpass::obs::collect_bench_dir(dir, expected, &error);
  if (!summary) {
    std::fprintf(stderr, "mpass_prof: collect failed: %s\n", error.c_str());
    return 1;
  }
  const std::filesystem::path out_path =
      opt(argc, argv, "--out") ? std::filesystem::path(opt(argc, argv, "--out"))
                               : dir / "BENCH_SUMMARY.json";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "mpass_prof: cannot write %s\n",
                 out_path.string().c_str());
    return 1;
  }
  out.write(summary->data(), static_cast<std::streamsize>(summary->size()));
  std::printf("wrote %s\n", out_path.string().c_str());
  return 0;
}

int cmd_compare(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto base = load_json(argv[2]);
  const auto cur = load_json(argv[3]);
  if (!base || !cur) return 2;

  mpass::obs::ProfCompareOptions opts;
  if (const char* v = opt(argc, argv, "--threshold"))
    opts.threshold = std::strtod(v, nullptr);
  if (const char* v = opt(argc, argv, "--min-ms"))
    opts.min_ms = std::strtod(v, nullptr);
  if (const char* v = opt(argc, argv, "--only")) opts.only_bench = v;
  opts.wall_only = flag(argc, argv, "--wall-only");
  if (opts.threshold <= 0.0 || opts.min_ms < 0.0) {
    std::fprintf(stderr, "mpass_prof: bad --threshold/--min-ms\n");
    return 2;
  }

  const auto result = mpass::obs::compare_profiles(*base, *cur, opts);
  std::fputs(mpass::obs::render_compare(result, opts).c_str(), stdout);
  if (result.ok()) return 0;
  if (flag(argc, argv, "--warn-only")) {
    std::printf("(--warn-only: regressions reported, exit 0)\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "top") return cmd_top(argc, argv);
  if (cmd == "tree") return cmd_tree(argc, argv);
  if (cmd == "collect") return cmd_collect(argc, argv);
  if (cmd == "compare") return cmd_compare(argc, argv);
  return usage();
}
