#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace mpass::obs {

namespace {

double num_or(const Json* j, double fallback) {
  return j && j->is_number() ? j->number() : fallback;
}

std::optional<std::vector<SpanProfileRow>> rows_from_array(const Json& arr) {
  if (!arr.is_array()) return std::nullopt;
  std::vector<SpanProfileRow> rows;
  rows.reserve(arr.items().size());
  for (const Json& item : arr.items()) {
    const Json* path = item.get("path");
    if (!path || !path->is_string()) return std::nullopt;
    SpanProfileRow r;
    r.path = path->str();
    r.count = static_cast<std::uint64_t>(num_or(item.get("count"), 0.0));
    r.total_ms = num_or(item.get("total_ms"), 0.0);
    r.self_ms = num_or(item.get("self_ms"), 0.0);
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string_view basename_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

std::string_view parent_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : path.substr(0, slash);
}

std::size_t depth_of(std::string_view path) {
  return static_cast<std::size_t>(
             std::count(path.begin(), path.end(), '/')) +
         1;
}

// ---- compare helpers --------------------------------------------------------

// One comparable series: a bench's wall-ms or a span path's self-ms.
struct Series {
  std::string kind;
  std::string name;
  double ms = 0.0;
};

void collect_bench_series(std::string_view bench, const Json& doc,
                          std::vector<Series>& out) {
  if (const Json* wall = doc.get("wall_ms"); wall && wall->is_number())
    out.push_back({"bench-wall", std::string(bench), wall->number()});
  if (const auto rows = parse_spans(doc)) {
    for (const SpanProfileRow& r : *rows)
      out.push_back(
          {"span-self", std::string(bench) + ":" + r.path, r.self_ms});
  }
}

std::vector<Series> collect_series(const Json& doc) {
  std::vector<Series> out;
  if (const Json* benches = doc.get("benches"); benches &&
                                                benches->is_object()) {
    for (const auto& [name, bench] : benches->fields())
      collect_bench_series(name, bench, out);
    return out;
  }
  std::string bench = "profile";
  if (const Json* name = doc.get("bench"); name && name->is_string())
    bench = name->str();
  collect_bench_series(bench, doc, out);
  return out;
}

}  // namespace

std::optional<std::vector<SpanProfileRow>> parse_spans(const Json& doc) {
  if (doc.is_array()) return rows_from_array(doc);
  if (const Json* spans = doc.get("spans")) return rows_from_array(*spans);
  return std::nullopt;
}

std::string render_span_top(const std::vector<SpanProfileRow>& rows,
                            std::size_t n) {
  std::vector<SpanProfileRow> sorted = rows;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanProfileRow& a, const SpanProfileRow& b) {
              return a.self_ms > b.self_ms;
            });
  std::string out = "top spans by self time:\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  %12s %12s %10s  %s\n", "self-ms",
                "total-ms", "count", "path");
  out += buf;
  for (std::size_t i = 0; i < sorted.size() && i < n; ++i) {
    const SpanProfileRow& r = sorted[i];
    std::snprintf(buf, sizeof(buf), "  %12.3f %12.3f %10llu  %s\n",
                  std::max(r.self_ms, 0.0), r.total_ms,
                  static_cast<unsigned long long>(r.count), r.path.c_str());
    out += buf;
  }
  if (sorted.empty()) out += "  (no spans)\n";
  return out;
}

std::string render_span_tree(const std::vector<SpanProfileRow>& rows) {
  // DFS order: sort by path, then emit parents before children by walking
  // an explicit tree keyed on the parent path (string sorting alone would
  // interleave "a.x" between "a" and "a/b").
  std::map<std::string, std::vector<const SpanProfileRow*>> children;
  std::map<std::string, const SpanProfileRow*> by_path;
  for (const SpanProfileRow& r : rows) {
    children[std::string(parent_of(r.path))].push_back(&r);
    by_path[r.path] = &r;
  }
  for (auto& [parent, kids] : children)
    std::sort(kids.begin(), kids.end(),
              [](const SpanProfileRow* a, const SpanProfileRow* b) {
                return a->total_ms > b->total_ms;
              });

  std::string out = "call-path tree (total-ms, self-ms, % of parent):\n";
  char buf[512];
  // Iterative DFS from the roots ("" parent).
  std::vector<const SpanProfileRow*> stack;
  const auto roots = children.find("");
  if (roots != children.end())
    for (auto it = roots->second.rbegin(); it != roots->second.rend(); ++it)
      stack.push_back(*it);
  while (!stack.empty()) {
    const SpanProfileRow* r = stack.back();
    stack.pop_back();
    const std::size_t depth = depth_of(r->path);
    const auto parent_it = by_path.find(std::string(parent_of(r->path)));
    const double parent_total =
        parent_it == by_path.end() ? 0.0 : parent_it->second->total_ms;
    const double pct =
        parent_total > 0.0 ? 100.0 * r->total_ms / parent_total : 100.0;
    std::snprintf(buf, sizeof(buf), "  %*s%-*s %10.3f %10.3f %6.1f%%\n",
                  static_cast<int>(2 * (depth - 1)), "",
                  static_cast<int>(std::max<std::size_t>(
                      44 - 2 * (depth - 1), 8)),
                  std::string(basename_of(r->path)).c_str(), r->total_ms,
                  std::max(r->self_ms, 0.0), pct);
    out += buf;
    if (const auto kids = children.find(r->path); kids != children.end())
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it)
        stack.push_back(*it);
  }
  if (rows.empty()) out += "  (no spans)\n";
  return out;
}

// ---- baseline comparison ----------------------------------------------------

ProfCompareResult compare_profiles(const Json& base, const Json& cur,
                                   const ProfCompareOptions& opts) {
  ProfCompareResult res;
  // --only <bench> / --wall-only narrow the comparison (the CI micro gate
  // enforces bench_micro wall-ms while the full-grid benches stay warn-only).
  const auto selected = [&opts](const Series& s) {
    if (opts.wall_only && s.kind != "bench-wall") return false;
    if (opts.only_bench.empty()) return true;
    if (s.kind == "bench-wall") return s.name == opts.only_bench;
    return s.name.compare(0, opts.only_bench.size() + 1,
                          opts.only_bench + ":") == 0;
  };
  std::map<std::string, Series> base_by_name, cur_by_name;
  for (Series& s : collect_series(base))
    if (selected(s)) base_by_name.emplace(s.kind + "|" + s.name, std::move(s));
  for (Series& s : collect_series(cur))
    if (selected(s)) cur_by_name.emplace(s.kind + "|" + s.name, std::move(s));

  for (const auto& [key, b] : base_by_name) {
    const auto it = cur_by_name.find(key);
    if (it == cur_by_name.end()) {
      if (b.ms >= opts.min_ms)
        res.notes.push_back("series only in baseline: " + b.name);
      continue;
    }
    const Series& c = it->second;
    if (std::max(b.ms, c.ms) < opts.min_ms) continue;
    ++res.compared;
    const double ratio = b.ms > 0.0 ? c.ms / b.ms
                                    : (c.ms > 0.0 ? 1e9 : 1.0);
    ProfDelta d{b.kind, b.name, b.ms, c.ms, ratio};
    if (c.ms > b.ms * (1.0 + opts.threshold))
      res.regressions.push_back(std::move(d));
    else if (c.ms < b.ms * (1.0 - opts.threshold))
      res.improvements.push_back(std::move(d));
  }
  for (const auto& [key, c] : cur_by_name)
    if (!base_by_name.count(key) && c.ms >= opts.min_ms)
      res.notes.push_back("series only in current: " + c.name);

  const auto by_ratio = [](const ProfDelta& a, const ProfDelta& b) {
    return a.ratio > b.ratio;
  };
  std::sort(res.regressions.begin(), res.regressions.end(), by_ratio);
  std::sort(res.improvements.begin(), res.improvements.end(),
            [](const ProfDelta& a, const ProfDelta& b) {
              return a.ratio < b.ratio;
            });
  return res;
}

std::string render_compare(const ProfCompareResult& r,
                           const ProfCompareOptions& opts) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "compared %zu series (threshold +%.0f%%, min %.1f ms)\n",
                r.compared, opts.threshold * 100.0, opts.min_ms);
  out += buf;
  for (const ProfDelta& d : r.regressions) {
    std::snprintf(buf, sizeof(buf),
                  "REGRESSION  %-10s %-56s %10.2f -> %10.2f ms  (x%.2f)\n",
                  d.kind.c_str(), d.name.c_str(), d.base_ms, d.cur_ms,
                  d.ratio);
    out += buf;
  }
  for (const ProfDelta& d : r.improvements) {
    std::snprintf(buf, sizeof(buf),
                  "improved    %-10s %-56s %10.2f -> %10.2f ms  (x%.2f)\n",
                  d.kind.c_str(), d.name.c_str(), d.base_ms, d.cur_ms,
                  d.ratio);
    out += buf;
  }
  for (const std::string& n : r.notes) out += "note: " + n + "\n";
  out += r.ok() ? "PASS\n" : "FAIL\n";
  return out;
}

// ---- bench-output collection ------------------------------------------------

std::optional<std::string> collect_bench_dir(
    const std::filesystem::path& dir,
    const std::vector<std::string>& expected, std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<std::string> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    return fail("not a directory: " + dir.string());

  // name -> raw (validated) document text. Map gives a deterministic order.
  std::map<std::string, std::string> benches;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json")
      continue;
    if (fname == "BENCH_SUMMARY.json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    if (!in.good() && !in.eof())
      return fail("cannot read " + entry.path().string());
    const auto doc = Json::parse(text);
    if (!doc || !doc->is_object())
      return fail("unparsable bench output: " + entry.path().string());
    const Json* name = doc->get("bench");
    const Json* version = doc->get("schema_version");
    if (!name || !name->is_string() || !version || !version->is_number() ||
        !doc->get("wall_ms") || !parse_spans(*doc))
      return fail("bench output missing required fields "
                  "(schema_version/bench/wall_ms/spans): " +
                  entry.path().string());
    benches[name->str()] = text;
  }
  if (ec) return fail("cannot list " + dir.string());

  for (const std::string& name : expected)
    if (!benches.count(name))
      return fail("missing bench output: BENCH_" + name + ".json (" +
                  dir.string() + ")");
  if (benches.empty()) return fail("no BENCH_*.json in " + dir.string());

  std::string out = "{\"schema_version\":1,\"benches\":{";
  bool first = true;
  for (const auto& [name, text] : benches) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape(out, name);
    out += "\":";
    out += text;
  }
  out += "}}";
  return out;
}

}  // namespace mpass::obs
