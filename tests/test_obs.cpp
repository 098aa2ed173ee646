// Tests for the observability subsystem: the JSON helpers, and the JSONL
// trace sink round-trip through the trace reader/validator that backs
// tools/mpass_trace. The span accumulator is tested in test_span.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"

namespace mpass::obs {
namespace {

TEST(Json, LineBuilderOutputParsesBack) {
  JsonLine line;
  const std::vector<std::string> names = {"alpha", "be\"ta"};
  line.str("ev", "start")
      .str("esc", "a\"b\\c\nd")
      .num("pi", 3.25)
      .uint("big", 123456789ull)
      .boolean("yes", true)
      .hex("digest", 0xabcull)
      .strs("names", names);
  const auto doc = Json::parse(line.take());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("ev")->str(), "start");
  EXPECT_EQ(doc->get("esc")->str(), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(doc->get("pi")->number(), 3.25);
  EXPECT_DOUBLE_EQ(doc->get("big")->number(), 123456789.0);
  EXPECT_TRUE(doc->get("yes")->boolean());
  EXPECT_EQ(doc->get("digest")->str(), "0000000000000abc");
  ASSERT_EQ(doc->get("names")->items().size(), 2u);
  EXPECT_EQ(doc->get("names")->items()[1].str(), "be\"ta");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("{\"a\":1").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("{'a':1}").has_value());
  EXPECT_TRUE(Json::parse("{\"a\":[1,2,{\"b\":null}]}").has_value());
}

/// RAII trace-dir override pointing at a fresh temp directory.
struct TraceDirGuard {
  std::filesystem::path dir;
  explicit TraceDirGuard(const char* name) {
    dir = std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    set_trace_dir(dir);
  }
  ~TraceDirGuard() {
    set_trace_dir(std::nullopt);
    std::filesystem::remove_all(dir);
  }
};

/// Emits one complete well-formed sample trace (start..end) with `queries`
/// query events. Must mirror what the harness + oracle emit.
void emit_sample(std::string_view attack, std::string_view target,
                 std::uint64_t digest, std::uint64_t queries) {
  TraceScope scope(attack, target, digest, 7, 100);
  ASSERT_TRUE(scope.active());
  ASSERT_TRUE(tracing());
  Event("action").str("kind", "donor").uint("candidates", 4);
  for (std::uint64_t i = 1; i <= 3; ++i)
    Event("opt").uint("iter", i).num("loss", 1.0 / static_cast<double>(i));
  for (std::uint64_t i = 1; i <= queries; ++i)
    Event("query").uint("i", i).boolean("malicious", i != queries).num(
        "score", 0.5);
  Event("end")
      .boolean("success", true)
      .uint("queries", queries)
      .num("apr", 12.5)
      .num("ms", 3.0)
      .boolean("functional", true);
}

/// One cells.jsonl line as run_cell writes it.
std::string cell_line(std::string_view attack, std::string_view target,
                      std::uint64_t n, std::uint64_t traced,
                      std::uint64_t total_queries, std::uint64_t successes,
                      std::uint64_t evasion_queries) {
  return JsonLine()
      .str("ev", "cell")
      .str("attack", attack)
      .str("target", target)
      .uint("n", n)
      .uint("traced", traced)
      .uint("total_queries", total_queries)
      .uint("successes", successes)
      .uint("evasion_queries", evasion_queries)
      .num("wall_ms", 6.0)
      .take();
}

TEST(Trace, WriterReaderRoundTrip) {
  TraceDirGuard guard("mpass_trace_roundtrip");
  emit_sample("MPass", "MalConv", 0x1234, 5);
  EXPECT_FALSE(tracing());  // scope closed

  const auto path = guard.dir / "MPass-MalConv-0000000000001234.jsonl";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();

  std::vector<std::string> errors;
  const auto data = parse_sample_trace(ss.str(), "roundtrip", &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->attack, "MPass");
  EXPECT_EQ(data->target, "MalConv");
  EXPECT_EQ(data->sample, "0000000000001234");
  EXPECT_EQ(data->seed, 7u);
  EXPECT_EQ(data->budget, 100u);
  ASSERT_EQ(data->queries.size(), 5u);
  EXPECT_TRUE(data->queries[0].malicious);
  EXPECT_FALSE(data->queries[4].malicious);
  EXPECT_EQ(data->opts.size(), 3u);
  EXPECT_EQ(data->actions, 1u);
  EXPECT_TRUE(data->has_end);
  EXPECT_TRUE(data->success);
  EXPECT_TRUE(data->functional);
  EXPECT_EQ(data->end_queries, 5u);
  EXPECT_EQ(data->first_evasion, 5u);
  EXPECT_DOUBLE_EQ(data->apr, 12.5);
}

TEST(Trace, CheckDirReconcilesQueryBudgets) {
  TraceDirGuard guard("mpass_trace_checkdir");
  emit_sample("MPass", "MalConv", 0x1, 5);
  emit_sample("MPass", "MalConv", 0x2, 7);
  append_run_line("cells.jsonl",
                  cell_line("MPass", "MalConv", 2, 2, 12, 2, 12));

  const TraceCheckReport ok = check_trace_dir(guard.dir);
  EXPECT_TRUE(ok.ok()) << ok.errors.front();
  EXPECT_EQ(ok.data.samples.size(), 2u);
  ASSERT_EQ(ok.data.cells.size(), 1u);
  EXPECT_EQ(ok.data.cells[0].total_queries, 12u);

  // A fully-traced cell whose query totals disagree must fail the check.
  append_run_line("cells.jsonl",
                  cell_line("MPass", "MalConv", 2, 2, 99, 2, 12));
  const TraceCheckReport bad = check_trace_dir(guard.dir);
  EXPECT_FALSE(bad.ok());

  // So must one whose AVQ input disagrees with the traced first benign
  // queries (5 + 7), even when the query total reconciles.
  append_run_line("cells.jsonl",
                  cell_line("MPass", "MalConv", 2, 2, 12, 2, 2));
  const TraceCheckReport bad_avq = check_trace_dir(guard.dir);
  ASSERT_EQ(bad_avq.errors.size(), 1u);
  EXPECT_NE(bad_avq.errors[0].find("evasion_queries"), std::string::npos);
}

TEST(Trace, CacheHitCellsWarnInsteadOfFailing) {
  TraceDirGuard guard("mpass_trace_cachehit");
  emit_sample("MPass", "AV1", 0x9, 4);
  // traced < n: one sample came from the result cache, totals can't be
  // reconciled against trace files -- warning, not error.
  append_run_line("cells.jsonl",
                  cell_line("MPass", "AV1", 2, 1, 104, 2, 9));
  const TraceCheckReport rep = check_trace_dir(guard.dir);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.warnings.empty());
}

TEST(Trace, MalformedSampleTraceIsRejected) {
  std::vector<std::string> errors;
  // Query indices must be contiguous from 1.
  const std::string text =
      "{\"ev\":\"start\",\"attack\":\"A\",\"target\":\"B\","
      "\"sample\":\"0000000000000001\",\"seed\":1,\"budget\":10}\n"
      "{\"ev\":\"query\",\"i\":2,\"malicious\":true,\"score\":0.5}\n"
      "{\"ev\":\"end\",\"success\":false,\"queries\":1,\"apr\":0,\"ms\":1,"
      "\"functional\":false}\n";
  parse_sample_trace(text, "malformed", &errors);
  EXPECT_FALSE(errors.empty());

  // A success needs a benign verdict among the queries.
  errors.clear();
  const std::string no_evasion =
      "{\"ev\":\"start\",\"attack\":\"A\",\"target\":\"B\","
      "\"sample\":\"0000000000000001\",\"seed\":1,\"budget\":10}\n"
      "{\"ev\":\"query\",\"i\":1,\"malicious\":true,\"score\":0.5}\n"
      "{\"ev\":\"end\",\"success\":true,\"queries\":1,\"apr\":0,\"ms\":1,"
      "\"functional\":false}\n";
  parse_sample_trace(no_evasion, "no_evasion", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("without a benign query"), std::string::npos);
}

TEST(Trace, EventsOutsideScopeAreFreeNoOps) {
  ASSERT_FALSE(tracing());
  Event e("query");
  EXPECT_FALSE(e.active());
  e.uint("i", 1).num("score", 0.0);  // must not crash or allocate a file
}

TEST(Log, LevelParsingAndTagging) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::Info);
  set_log_tag("unit/test");
  EXPECT_EQ(log_tag(), "unit/test");
  set_log_tag("");
}

}  // namespace
}  // namespace mpass::obs
