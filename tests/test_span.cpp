// Tests for the hierarchical span profiler (obs/span.hpp) and the
// perf-baseline pipeline behind tools/mpass_prof (obs/profile.hpp):
// call-path nesting and exact self-time accounting, invisibility of open
// spans, cross-thread propagation through util::ThreadPool under
// contention, Chrome trace-event JSON validity of the MPASS_PROFILE sink,
// and the compare/collect plumbing the CI perf gate runs on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "util/threadpool.hpp"

namespace mpass::obs {
namespace {

// Each test uses site names unique to it ("t.span.<test>...") so snapshots
// taken mid-suite are not polluted by other tests' spans.
std::map<std::string, SpanRow> rows_with_prefix(const std::string& prefix) {
  std::map<std::string, SpanRow> out;
  for (const SpanRow& r : span_snapshot())
    if (r.path.rfind(prefix, 0) == 0 ||
        r.path.find("/" + prefix) != std::string::npos)
      out[r.path] = r;
  return out;
}

void spin_for_ns(std::uint64_t ns) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < static_cast<std::int64_t>(ns)) {
  }
}

TEST(Span, NestingBuildsCallPathsNotSites) {
  {
    OBS_SCOPE("t.span.nest.outer");
    spin_for_ns(200000);
    for (int i = 0; i < 3; ++i) {
      OBS_SCOPE("t.span.nest.inner");
      spin_for_ns(100000);
    }
  }
  {
    // Same inner site at the top level: must land on a *different* path.
    OBS_SCOPE("t.span.nest.inner");
    spin_for_ns(50000);
  }

  const auto rows = rows_with_prefix("t.span.nest.");
  ASSERT_TRUE(rows.count("t.span.nest.outer"));
  ASSERT_TRUE(rows.count("t.span.nest.outer/t.span.nest.inner"));
  ASSERT_TRUE(rows.count("t.span.nest.inner"));

  const SpanRow& outer = rows.at("t.span.nest.outer");
  const SpanRow& nested = rows.at("t.span.nest.outer/t.span.nest.inner");
  const SpanRow& top = rows.at("t.span.nest.inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(nested.count, 3u);
  EXPECT_EQ(top.count, 1u);
  EXPECT_EQ(top.depth, 1u);
  EXPECT_EQ(nested.depth, 2u);

  // Exact accounting: the outer path's child time IS the nested path's
  // total (only child), so outer self + nested total == outer total.
  EXPECT_EQ(outer.child_ns, nested.total_ns);
  EXPECT_EQ(outer.self_ns() + static_cast<std::int64_t>(outer.child_ns),
            static_cast<std::int64_t>(outer.total_ns));
  EXPECT_GE(outer.self_ns(), 200000);          // outer spun >= 200us itself
  EXPECT_GE(nested.total_ns, 3u * 100000u);    // 3 inner spins
  EXPECT_GT(outer.total_ns, outer.child_ns);
}

TEST(Span, DirectRecursionCollapsesOntoOnePath) {
  struct Rec {
    static void run(int depth) {
      OBS_SCOPE("t.span.rec");
      spin_for_ns(20000);
      if (depth > 0) run(depth - 1);
    }
  };
  Rec::run(8);

  const auto rows = rows_with_prefix("t.span.rec");
  ASSERT_EQ(rows.size(), 1u) << "recursive site must not grow the path table";
  const SpanRow& r = rows.begin()->second;
  EXPECT_EQ(r.count, 9u);
  // Self time stays exact: every frame's duration lands in total, every
  // nested frame's duration also lands in child, so self == outermost
  // frame's exclusive time... for a collapsed chain, self = total - child
  // where child counts the 8 nested frames against the same path.
  EXPECT_GE(r.self_ns(), 20000);
  EXPECT_LE(r.self_ns(), static_cast<std::int64_t>(r.total_ns));
}

TEST(Span, OpenSpansAreInvisibleUntilPopped) {
  const SpanSiteId site = span_site("t.span.open");
  {
    Span open(site);
    EXPECT_EQ(rows_with_prefix("t.span.open").size(), 0u)
        << "an un-popped span must not appear in snapshots";
  }
  const auto rows = rows_with_prefix("t.span.open");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.begin()->second.count, 1u);
}

TEST(Span, CrossThreadPropagationUnderContention) {
  util::ThreadPool pool(4);
  static constexpr int kSubmitters = 4;
  static constexpr int kTasksPer = 64;

  // Several submitting threads, each inside its own span, all hammering the
  // same pool: every task must record under its *submitter's* call path no
  // matter which worker (or helping waiter) executed it.
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&pool, s] {
      // Not OBS_SCOPE: its per-site static would pin the first submitter's
      // name for all four threads. Intern each root site explicitly.
      const SpanSiteId site =
          span_site("t.span.cross" + std::to_string(s));
      const Span root_span(site);
      std::vector<std::future<int>> futs;
      futs.reserve(kTasksPer);
      for (int i = 0; i < kTasksPer; ++i)
        futs.push_back(pool.submit([] {
          OBS_SCOPE("t.span.leaf");
          spin_for_ns(5000);
          return 1;
        }));
      int acc = 0;
      for (auto& f : futs) acc += pool.wait(std::move(f));
      EXPECT_EQ(acc, kTasksPer);
    });
  for (std::thread& t : submitters) t.join();

  for (int s = 0; s < kSubmitters; ++s) {
    const std::string root = "t.span.cross" + std::to_string(s);
    const auto rows = rows_with_prefix(root);
    ASSERT_TRUE(rows.count(root)) << root;
    ASSERT_TRUE(rows.count(root + "/pool.task")) << root;
    ASSERT_TRUE(rows.count(root + "/pool.task/t.span.leaf")) << root;
    // The submitter thread exited before the snapshot: its root span is
    // counted once, from the totals its shard retired on exit.
    EXPECT_EQ(rows.at(root).count, 1u) << root;

    const SpanRow& task = rows.at(root + "/pool.task");
    const SpanRow& leaf = rows.at(root + "/pool.task/t.span.leaf");
    EXPECT_EQ(task.count, static_cast<std::uint64_t>(kTasksPer));
    EXPECT_EQ(leaf.count, static_cast<std::uint64_t>(kTasksPer));
    // Merged self-times stay exact per call path even though the frames
    // were pushed/popped on many different threads: the task path's child
    // time is exactly the leaf path's total.
    EXPECT_EQ(task.child_ns, leaf.total_ns);
    EXPECT_EQ(task.self_ns() + static_cast<std::int64_t>(task.child_ns),
              static_cast<std::int64_t>(task.total_ns));
    EXPECT_GE(leaf.total_ns, static_cast<std::uint64_t>(kTasksPer) * 5000u);
  }

  // Nothing runs between two snapshots: the merge of live and retired
  // shards gives equal rows both times.
  const std::vector<SpanRow> a = span_snapshot();
  const std::vector<SpanRow> b = span_snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(a[i].depth, b[i].depth);
    EXPECT_EQ(a[i].count, b[i].count) << a[i].path;
    EXPECT_EQ(a[i].total_ns, b[i].total_ns) << a[i].path;
    EXPECT_EQ(a[i].child_ns, b[i].child_ns) << a[i].path;
  }
}

TEST(Span, SnapshotIsDeterministicallySorted) {
  {
    OBS_SCOPE("t.span.sortb");
  }
  {
    OBS_SCOPE("t.span.sorta");
  }
  const std::vector<SpanRow> rows = span_snapshot();
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_LT(rows[i - 1].path, rows[i].path);
  const std::string json = spans_to_json(rows);
  const auto doc = Json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const Json* version = doc->get("schema_version");
  ASSERT_TRUE(version && version->is_number());
  EXPECT_EQ(version->number(), 1.0);
  const auto parsed = parse_spans(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), rows.size());
}

TEST(Span, ChromeProfileIsValidAndNested) {
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "mpass_test_profile.json";
  std::filesystem::remove(out);
  set_profile_path(out);
  ASSERT_TRUE(profiling());

  util::ThreadPool pool(2);
  {
    OBS_SCOPE("t.span.prof.outer");
    {
      OBS_SCOPE("t.span.prof.inner");
      spin_for_ns(100000);
    }
    auto fut = pool.submit([] {
      OBS_SCOPE("t.span.prof.task");
      spin_for_ns(50000);
      return 7;
    });
    EXPECT_EQ(pool.wait(std::move(fut)), 7);
  }
  flush_profile();
  set_profile_path(std::nullopt);  // stop recording for the rest of the suite

  std::ifstream in(out, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value()) << "profile must be valid JSON";
  const Json* unit = doc->get("displayTimeUnit");
  ASSERT_TRUE(unit && unit->is_string());
  EXPECT_EQ(unit->str(), "ms");
  const Json* events = doc->get("traceEvents");
  ASSERT_TRUE(events && events->is_array());

  struct Ev {
    std::string name;
    double ts = 0.0, dur = 0.0, tid = -1.0;
  };
  std::vector<Ev> complete;
  std::size_t flow_starts = 0, flow_finishes = 0, metas = 0;
  for (const Json& e : events->items()) {
    const Json* ph = e.get("ph");
    ASSERT_TRUE(ph && ph->is_string());
    ASSERT_TRUE(e.get("pid") && e.get("pid")->is_number());
    if (ph->str() == "X") {
      Ev ev;
      ev.name = e.get("name")->str();
      ev.ts = e.get("ts")->number();
      ev.dur = e.get("dur")->number();
      ev.tid = e.get("tid")->number();
      complete.push_back(ev);
    } else if (ph->str() == "s") {
      ++flow_starts;
      ASSERT_TRUE(e.get("id") && e.get("id")->is_number());
    } else if (ph->str() == "f") {
      ++flow_finishes;
      const Json* bp = e.get("bp");
      ASSERT_TRUE(bp && bp->is_string());
      EXPECT_EQ(bp->str(), "e");
    } else {
      EXPECT_EQ(ph->str(), "M");
      ++metas;
    }
  }
  EXPECT_GE(metas, 1u);  // process/thread names
  EXPECT_GE(flow_starts, 1u) << "pool submit must emit a flow start";
  EXPECT_GE(flow_finishes, 1u) << "pool execute must emit a flow finish";

  const auto find = [&](const std::string& name) -> const Ev* {
    for (const Ev& e : complete)
      if (e.name == name) return &e;
    return nullptr;
  };
  const Ev* outer = find("t.span.prof.outer");
  const Ev* inner = find("t.span.prof.inner");
  const Ev* task = find("t.span.prof.task");
  ASSERT_TRUE(outer && inner && task);
  // Nesting: inner lies within outer's interval on the same thread.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1.0);
  EXPECT_GE(inner->dur, 100.0);  // spun 100us -> dur is in us
  EXPECT_GE(task->dur, 50.0);
}

// ---- perf-baseline pipeline -------------------------------------------------

Json parse_or_die(const std::string& text) {
  auto doc = Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return *doc;
}

const char* kBenchA =
    R"({"schema_version":1,"bench":"alpha","wall_ms":100.0,"spans":[
        {"path":"a","count":10,"total_ms":90.0,"self_ms":40.0,"child_ms":50.0},
        {"path":"a/b","count":10,"total_ms":50.0,"self_ms":50.0,"child_ms":0}]})";

TEST(Profile, CompareIdenticalPasses) {
  const Json doc = parse_or_die(kBenchA);
  const ProfCompareResult r = compare_profiles(doc, doc, {});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.regressions.size(), 0u);
  EXPECT_GE(r.compared, 3u);  // wall + two span paths
}

TEST(Profile, CompareDetectsRegressionAboveThreshold) {
  const Json base = parse_or_die(kBenchA);
  const Json cur = parse_or_die(
      R"({"schema_version":1,"bench":"alpha","wall_ms":150.0,"spans":[
          {"path":"a","count":10,"total_ms":140.0,"self_ms":40.0,"child_ms":100.0},
          {"path":"a/b","count":10,"total_ms":100.0,"self_ms":100.0,"child_ms":0}]})");
  ProfCompareOptions opts;
  opts.threshold = 0.20;
  const ProfCompareResult r = compare_profiles(base, cur, opts);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.regressions.size(), 2u);  // wall 1.5x and a/b self 2.0x
  EXPECT_EQ(r.regressions[0].ratio, 2.0);  // sorted worst-first
  EXPECT_EQ(r.regressions[0].kind, "span-self");
  EXPECT_EQ(r.regressions[1].kind, "bench-wall");
  // "a" self stayed at 40 -> not a regression.
  const std::string rendered = render_compare(r, opts);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
}

TEST(Profile, CompareIgnoresSeriesBelowMinMs) {
  const Json base = parse_or_die(
      R"({"bench":"b","wall_ms":2.0,"spans":[
          {"path":"x","count":1,"total_ms":2.0,"self_ms":2.0}]})");
  const Json cur = parse_or_die(
      R"({"bench":"b","wall_ms":9.0,"spans":[
          {"path":"x","count":1,"total_ms":9.0,"self_ms":9.0}]})");
  ProfCompareOptions opts;
  opts.min_ms = 10.0;
  const ProfCompareResult r = compare_profiles(base, cur, opts);
  EXPECT_TRUE(r.ok()) << "sub-min_ms jitter must not fail the gate";
  EXPECT_EQ(r.compared, 0u);
}

TEST(Profile, CompareHandlesSummaryDocuments) {
  const std::string summary_base =
      std::string(R"({"schema_version":1,"benches":{"alpha":)") + kBenchA +
      "}}";
  const Json base = parse_or_die(summary_base);
  const Json cur = parse_or_die(kBenchA);  // single-bench doc, same data
  const ProfCompareResult r = compare_profiles(base, cur, {});
  EXPECT_TRUE(r.ok());
  EXPECT_GE(r.compared, 3u);
}

TEST(Profile, ParseSpansAcceptsAllThreeShapes) {
  const char* arr =
      R"([{"path":"p","count":1,"total_ms":1.0,"self_ms":1.0}])";
  EXPECT_TRUE(parse_spans(parse_or_die(arr)).has_value());
  EXPECT_TRUE(parse_spans(parse_or_die(
                              R"({"spans":[]})"))
                  .has_value());
  EXPECT_TRUE(parse_spans(parse_or_die(kBenchA)).has_value());
  EXPECT_FALSE(parse_spans(parse_or_die(R"({"nope":1})")).has_value());
}

TEST(Profile, RenderersProduceOutput) {
  const auto rows = parse_spans(parse_or_die(kBenchA));
  ASSERT_TRUE(rows.has_value());
  EXPECT_NE(render_span_top(*rows).find("a/b"), std::string::npos);
  const std::string tree = render_span_tree(*rows);
  EXPECT_NE(tree.find("b"), std::string::npos);
  const std::string chrome = chrome_from_spans(*rows);
  const auto doc = Json::parse(chrome);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->get("traceEvents"));
  EXPECT_GE(doc->get("traceEvents")->items().size(), 2u);
}

TEST(Profile, CollectBenchDirMergesAndValidates) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mpass_test_benchdir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const char* name, const std::string& text) {
    std::ofstream(dir / name, std::ios::binary) << text;
  };
  write("BENCH_alpha.json", kBenchA);
  write("BENCH_beta.json",
        R"({"schema_version":1,"bench":"beta","wall_ms":5.0,"spans":[]})");
  write("not_a_bench.txt", "ignored");

  std::string error;
  const auto summary =
      collect_bench_dir(dir, {"alpha", "beta"}, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  const Json doc = parse_or_die(*summary);
  ASSERT_TRUE(doc.get("benches"));
  EXPECT_EQ(doc.get("benches")->fields().size(), 2u);
  EXPECT_TRUE(doc.get("benches")->get("alpha"));
  EXPECT_TRUE(doc.get("benches")->get("beta"));

  // A missing expected bench is an error, never silently skipped.
  EXPECT_FALSE(collect_bench_dir(dir, {"alpha", "gamma"}, &error));
  EXPECT_NE(error.find("gamma"), std::string::npos);

  // An unparsable bench file fails the whole collection.
  write("BENCH_broken.json", "{nope");
  EXPECT_FALSE(collect_bench_dir(dir, {}, &error));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mpass::obs
