// Span-profile inspector and micro-benchmark perf gate (library:
// obs/profile.hpp).
//
//   mpass_prof top <file> [-n N]         self-time hotspot table
//   mpass_prof tree <file>               call-path tree with % of parent
//   mpass_prof compare <baseline> <current>
//                                        per-benchmark gate over two
//                                        bench_micro runs written with
//                                        --benchmark_out_format=json; fails
//                                        when a baseline benchmark is more
//                                        than 2x slower or missing
//
// top/tree read the span-profile document a binary writes at exit when
// MPASS_PROFILE=<file> is set. Exit codes: 0 pass, 1 regression, 2 usage
// or parse error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      "usage: mpass_prof top <profile.json> [-n N]\n"
      "       mpass_prof tree <profile.json>\n"
      "       mpass_prof compare <baseline.json> <current.json>\n");
  return 2;
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
  for (int i = 3; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "-n") == 0)
      n = std::strtoull(argv[i + 1], nullptr, 10);
  std::fputs(mpass::obs::render_span_top(*rows, n).c_str(), stdout);
  return 0;
}

int cmd_tree(int, char** argv) {
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  std::fputs(mpass::obs::render_span_tree(*rows).c_str(), stdout);
  return 0;
}

int cmd_compare(int argc, char** argv) {
  if (argc != 4) return usage();
  const auto base = load_json(argv[2]);
  const auto cur = load_json(argv[3]);
  if (!base || !cur) return 2;
  const auto result = mpass::obs::compare_profiles(*base, *cur);
  if (!result) {
    std::fprintf(stderr,
                 "mpass_prof: %s / %s: not a google-benchmark JSON record "
                 "with timed benchmarks\n",
                 argv[2], argv[3]);
    return 2;
  }
  std::fputs(mpass::obs::render_compare(*result).c_str(), stdout);
  return result->ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "top") return cmd_top(argc, argv);
  if (cmd == "tree") return cmd_tree(argc, argv);
  if (cmd == "compare") return cmd_compare(argc, argv);
  return usage();
}
