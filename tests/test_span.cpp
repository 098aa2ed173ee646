// Tests for the hierarchical span profiler (obs/span.hpp) and the
// perf-baseline pipeline behind tools/mpass_prof (obs/profile.hpp):
// call-path nesting and exact self-time accounting, invisibility of open
// spans, cross-thread propagation through util::ThreadPool under
// contention, the MPASS_PROFILE document (the snapshot's rows), and the
// per-benchmark compare the CI perf gate runs on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
  // The 8 collapsed frames add only their count: the outermost frame's
  // duration is the whole total, and none of it is child time.
  EXPECT_GE(r.total_ns, 9u * 20000u);
  EXPECT_EQ(r.child_ns, 0u);
  EXPECT_EQ(r.self_ns(), static_cast<std::int64_t>(r.total_ns));
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

TEST(Span, NestedFanOutSelfTimesAddUp) {
  // The harness's two-level fan-out: 4 "cell" tasks each submit 8
  // "sample" tasks and wait for them, helping. A task's time is child time
  // of the frame open on the thread that ran it, never of its submitter's
  // frame on another thread, so no path's self time is negative and the
  // self times sum to at most wall x (4 workers + the helping caller).
  const auto t0 = std::chrono::steady_clock::now();
  {
    util::ThreadPool pool(4);
    OBS_SCOPE("t.span.fan");
    std::vector<std::future<int>> cells;
    for (int c = 0; c < 4; ++c)
      cells.push_back(pool.submit([&pool] {
        OBS_SCOPE("t.span.fan.cell");
        std::vector<std::future<int>> samples;
        for (int i = 0; i < 8; ++i)
          samples.push_back(pool.submit([] {
            OBS_SCOPE("t.span.fan.sample");
            spin_for_ns(200000);
            return 1;
          }));
        int n = 0;
        for (auto& f : samples) n += pool.wait(std::move(f));
        return n;
      }));
    int n = 0;
    for (auto& f : cells) n += pool.wait(std::move(f));
    EXPECT_EQ(n, 32);
  }
  const std::int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const auto rows = rows_with_prefix("t.span.fan");
  ASSERT_TRUE(rows.count("t.span.fan"));
  std::int64_t self_sum = 0;
  std::uint64_t samples = 0;
  for (const auto& [path, r] : rows) {
    EXPECT_GE(r.self_ns(), 0) << path;
    self_sum += r.self_ns();
    if (path.ends_with("t.span.fan.sample")) samples += r.count;
  }
  EXPECT_EQ(samples, 32u);
  EXPECT_LE(self_sum, wall_ns * 5);
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

TEST(Span, ProfileFileHoldsTheSnapshotRows) {
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
  const std::vector<SpanRow> snap = span_snapshot();
  set_profile_path(std::nullopt);  // no exit flush for the rest of the suite

  std::ifstream in(out, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value()) << "profile must be valid JSON";
  const Json* version = doc->get("schema_version");
  ASSERT_TRUE(version && version->is_number());
  EXPECT_EQ(version->number(), 1.0);
  const auto rows = parse_spans(*doc);
  ASSERT_TRUE(rows.has_value());

  // The file is the snapshot, row for row.
  ASSERT_EQ(rows->size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ((*rows)[i].path, snap[i].path);
    EXPECT_EQ((*rows)[i].count, snap[i].count) << snap[i].path;
  }
  const auto row = [&](const std::string& path) -> const SpanProfileRow* {
    for (const SpanProfileRow& r : *rows)
      if (r.path == path) return &r;
    return nullptr;
  };
  const SpanProfileRow* inner = row("t.span.prof.outer/t.span.prof.inner");
  const SpanProfileRow* task =
      row("t.span.prof.outer/pool.task/t.span.prof.task");
  ASSERT_TRUE(inner && task);
  EXPECT_EQ(inner->count, 1u);
  EXPECT_EQ(task->count, 1u);
  EXPECT_GE(inner->total_ms, 0.1);  // spun 100us
  EXPECT_GE(task->total_ms, 0.05);
}

// ---- perf-baseline pipeline -------------------------------------------------

Json parse_or_die(const std::string& text) {
  auto doc = Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return *doc;
}

const char* kProfileA =
    R"({"schema_version":1,"spans":[
        {"path":"a","count":10,"total_ms":90.0,"self_ms":40.0,"child_ms":50.0},
        {"path":"a/b","count":10,"total_ms":50.0,"self_ms":50.0,"child_ms":0}]})";

// A google-benchmark JSON record (--benchmark_out_format=json), cut down to
// the fields the gate reads.
Json gbench(const std::string& rows) {
  return parse_or_die(R"({"context":{"kernel_isa":"avx2"},"benchmarks":[)" +
                      rows + "]}");
}

std::string row(const char* name, double time, const char* unit,
                const char* run_type = "iteration") {
  return std::string(R"({"name":")") + name + R"(","run_type":")" +
         run_type + R"(","real_time":)" + std::to_string(time) +
         R"(,"cpu_time":1,"time_unit":")" + unit + "\"}";
}

TEST(Profile, CompareIdenticalPasses) {
  const Json doc =
      gbench(row("BM_A", 100.0, "ns") + "," + row("BM_B", 2.0, "ms"));
  const auto r = compare_profiles(doc, doc);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok());
  ASSERT_EQ(r->deltas.size(), 2u);
  EXPECT_EQ(r->deltas[0].ratio, 1.0);
  EXPECT_TRUE(r->missing.empty());
  EXPECT_NE(render_compare(*r).find("PASS"), std::string::npos);
}

TEST(Profile, CompareDetectsRegressionAboveThreshold) {
  const Json base =
      gbench(row("BM_A", 100.0, "ns") + "," + row("BM_B", 2.0, "ms"));
  // 1.9x on A passes; B is the same time in another unit; aggregate rows
  // are not iterations and a repeated name counts at its fastest.
  const Json slower = gbench(
      row("BM_A", 190.0, "ns") + "," + row("BM_A", 300.0, "ns") + "," +
      row("BM_A_mean", 9000.0, "ns", "aggregate") + "," +
      row("BM_B", 2000.0, "us"));
  const auto ok = compare_profiles(base, slower);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok()) << render_compare(*ok);
  EXPECT_DOUBLE_EQ(ok->deltas[0].ratio, 1.9);
  EXPECT_DOUBLE_EQ(ok->deltas[1].ratio, 1.0);

  const Json regressed =
      gbench(row("BM_A", 250.0, "ns") + "," + row("BM_B", 2.0, "ms"));
  const auto bad = compare_profiles(base, regressed);
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->ok());
  const std::string rendered = render_compare(*bad);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
}

TEST(Profile, CompareFailsOnMissingBenchmark) {
  const Json base =
      gbench(row("BM_A", 100.0, "ns") + "," + row("BM_B", 2.0, "ms"));
  const auto r = compare_profiles(base, gbench(row("BM_A", 100.0, "ns")));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->missing, std::vector<std::string>{"BM_B"});
  EXPECT_NE(render_compare(*r).find("BM_B"), std::string::npos);

  // A benchmark that errored in the current run is missing too.
  const Json errored = gbench(
      row("BM_A", 100.0, "ns") + "," +
      R"({"name":"BM_B","run_type":"iteration","error_occurred":true,)"
      R"("error_message":"boom"})");
  const auto e = compare_profiles(base, errored);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->missing, std::vector<std::string>{"BM_B"});
}

TEST(Profile, CompareRejectsNonBenchmarkDocuments) {
  const Json base = gbench(row("BM_A", 100.0, "ns"));
  EXPECT_FALSE(compare_profiles(base, parse_or_die(kProfileA)).has_value());
  EXPECT_FALSE(compare_profiles(parse_or_die(kProfileA), base).has_value());
  // A baseline that times nothing would gate nothing.
  EXPECT_FALSE(compare_profiles(gbench(""), base).has_value());
  EXPECT_FALSE(
      compare_profiles(base, gbench(row("BM_A", 1.0, "fortnights")))
          .has_value());
}

TEST(Profile, ParseSpansReadsProfileDocuments) {
  EXPECT_TRUE(parse_spans(parse_or_die(R"({"spans":[]})")).has_value());
  const auto rows = parse_spans(parse_or_die(kProfileA));
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1].path, "a/b");
  EXPECT_EQ((*rows)[1].count, 10u);
  // A bare row array is not a profile document.
  const char* arr =
      R"([{"path":"p","count":1,"total_ms":1.0,"self_ms":1.0}])";
  EXPECT_FALSE(parse_spans(parse_or_die(arr)).has_value());
  EXPECT_FALSE(parse_spans(parse_or_die(R"({"nope":1})")).has_value());
  EXPECT_FALSE(
      parse_spans(parse_or_die(R"({"spans":[{"count":1}]})")).has_value());
}

TEST(Profile, RenderersProduceOutput) {
  const auto rows = parse_spans(parse_or_die(kProfileA));
  ASSERT_TRUE(rows.has_value());
  EXPECT_NE(render_span_top(*rows).find("a/b"), std::string::npos);
  const std::string tree = render_span_tree(*rows);
  EXPECT_NE(tree.find("b"), std::string::npos);
}

}  // namespace
}  // namespace mpass::obs
