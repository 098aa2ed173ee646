#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace mpass::obs {

namespace {

// A benchmark regresses when its current per-iteration time is more than
// this multiple of its baseline time.
constexpr double kMaxSlowdown = 2.0;

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

// Nanoseconds per google-benchmark time_unit; 0 for an unknown unit.
double ns_per_unit(std::string_view unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 0.0;
}

// name -> per-iteration real time (ns) of a google-benchmark JSON record's
// "iteration" rows; the fastest when a name repeats, errored rows skipped.
std::optional<std::map<std::string, double>> benchmark_times(
    const Json& doc) {
  const Json* rows = doc.get("benchmarks");
  if (!rows || !rows->is_array()) return std::nullopt;
  std::map<std::string, double> times;
  for (const Json& row : rows->items()) {
    const Json* run_type = row.get("run_type");
    if (!run_type || !run_type->is_string() ||
        run_type->str() != "iteration")
      continue;
    if (const Json* err = row.get("error_occurred"); err && err->boolean())
      continue;
    const Json* name = row.get("name");
    const Json* time = row.get("real_time");
    const Json* unit = row.get("time_unit");
    if (!name || !name->is_string() || !time || !time->is_number() ||
        !unit || !unit->is_string() || ns_per_unit(unit->str()) == 0.0)
      return std::nullopt;
    const double ns = time->number() * ns_per_unit(unit->str());
    const auto [it, fresh] = times.emplace(name->str(), ns);
    if (!fresh) it->second = std::min(it->second, ns);
  }
  return times;
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

// ---- micro-benchmark gate ---------------------------------------------------

bool ProfCompareResult::ok() const {
  return missing.empty() &&
         std::none_of(deltas.begin(), deltas.end(), [](const ProfDelta& d) {
           return d.ratio > kMaxSlowdown;
         });
}

std::optional<ProfCompareResult> compare_profiles(const Json& base,
                                                  const Json& cur) {
  const auto base_ns = benchmark_times(base);
  const auto cur_ns = benchmark_times(cur);
  if (!base_ns || base_ns->empty() || !cur_ns) return std::nullopt;
  ProfCompareResult r;
  for (const auto& [name, b] : *base_ns) {
    const auto it = cur_ns->find(name);
    if (it == cur_ns->end())
      r.missing.push_back(name);
    else
      r.deltas.push_back({name, b, it->second, it->second / b});
  }
  return r;
}

std::string render_compare(const ProfCompareResult& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  %-36s %14s %14s %8s\n", "benchmark",
                "base-us", "cur-us", "ratio");
  out += buf;
  for (const ProfDelta& d : r.deltas) {
    std::snprintf(buf, sizeof(buf), "  %-36s %14.3f %14.3f %7.2fx%s\n",
                  d.name.c_str(), d.base_ns / 1e3, d.cur_ns / 1e3, d.ratio,
                  d.ratio > kMaxSlowdown ? "  REGRESSION" : "");
    out += buf;
  }
  for (const std::string& name : r.missing)
    out += "  " + name + ": MISSING from the current run\n";
  std::snprintf(buf, sizeof(buf),
                "%s (a benchmark fails above %.1fx its baseline or when "
                "missing)\n",
                r.ok() ? "PASS" : "FAIL", kMaxSlowdown);
  out += buf;
  return out;
}

}  // namespace mpass::obs
