// Hierarchical span profiler: the repository's one timing path and its one
// counter.
//
// Every OBS_SCOPE site is a *span*: a node in the calling thread's call-path
// tree. Spans answer "how much of harness.run_cell's time is pe.parse, and
// how much is its own?" -- call count, total time and self time are
// accumulated per *call path* (e.g. "harness.run_cell/pool.task/
// attack.mpass.run/pe.parse"), not per site. "How often did X run" is X's
// span count: summed over the paths ending in X, or read per path (e.g.
// the ml.forward_auto calls with no ml.byteconv.forward or ml.forward_delta
// child are the byte-conv cache hits).
//
// Design:
//   * Sites and call paths are interned once under a core mutex; the hot
//     path caches (parent path, site) -> path in a thread-local map, so a
//     warm push/pop is a couple of clock reads plus relaxed atomic adds on
//     slots only the calling thread writes.
//   * Each path owns three shard slots: count, total_ns, and child_ns (the
//     summed durations of the frames opened directly inside its frames on
//     the same thread). Self time is derived at merge time as total -
//     child, which keeps the accounting exact by construction: merged self
//     + merged child == merged total, and self is never negative.
//   * Direct recursion collapses onto the parent path (a site nested under
//     itself reuses the parent's node), so recursive scopes cannot grow the
//     path table without bound; a collapsed frame adds only its count.
//   * span_snapshot() merges all live shards plus the totals retired by
//     exited threads; the merged view depends only on the spans completed,
//     never on which thread ran them. Open (un-popped) spans are invisible
//     to snapshots until they close -- a drained process has no orphans.
//
// Cross-thread propagation: util::ThreadPool captures a SpanHandoff at
// submit() and opens a SpanTaskScope ("pool.task" span, named under the
// *submitting* call path) around the task body, so a task records under
// the span that submitted it, whichever thread runs it. Its time is child
// time of the frame open on the executing thread (a waiter that helps), or
// of none (an idle worker).
//
// Profile sink: MPASS_PROFILE=<file> makes flush_profile(), and process
// exit, write spans_to_json(span_snapshot()) to the file -- the one place
// span rows leave a process. Recording is the same with or without it;
// only the write at exit is added.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mpass::obs {

using SpanSiteId = std::uint32_t;

/// Interns a span site name (the OBS_SCOPE macro caches the id in a
/// function-local static).
SpanSiteId span_site(std::string_view name);

/// RAII span: pushes the site onto the calling thread's span stack; the
/// destructor pops it, accumulating (count, total, child) for the call
/// path.
class Span {
 public:
  explicit Span(SpanSiteId site) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#define MPASS_OBS_CONCAT2(a, b) a##b
#define MPASS_OBS_CONCAT(a, b) MPASS_OBS_CONCAT2(a, b)

/// Times the enclosing scope as a hierarchical span. One-time registration
/// per call site.
#define OBS_SCOPE(name)                                              \
  static const ::mpass::obs::SpanSiteId MPASS_OBS_CONCAT(            \
      obs_scope_site_, __LINE__) = ::mpass::obs::span_site(name);    \
  const ::mpass::obs::Span MPASS_OBS_CONCAT(obs_scope_span_,         \
                                            __LINE__)(               \
      MPASS_OBS_CONCAT(obs_scope_site_, __LINE__))

// ---- snapshots --------------------------------------------------------------

/// Merged per-call-path statistics. self_ns() is exact by construction:
/// total_ns - child_ns, where child_ns sums the durations of the frames
/// opened directly inside this path's frames on the same thread. It is
/// never negative once every span is closed.
struct SpanRow {
  std::string path;  // site names joined with '/', e.g. "a/b/c"
  std::uint32_t depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;
  std::int64_t self_ns() const {
    return static_cast<std::int64_t>(total_ns) -
           static_cast<std::int64_t>(child_ns);
  }
};

/// Deterministic merged view of every completed span, sorted by path.
std::vector<SpanRow> span_snapshot();

/// {"schema_version":1,"spans":[{"path","count","total_ms","self_ms",
/// "child_ms"},...]} -- the profile document MPASS_PROFILE holds and
/// tools/mpass_prof reads.
std::string spans_to_json(const std::vector<SpanRow>& rows);

// ---- cross-thread handoff (used by util::ThreadPool) ------------------------

/// Captured submitting context: the submitter's current call path.
struct SpanHandoff {
  std::uint32_t path = 0;  // 0 = root (submitter was outside any span)
  bool engaged() const { return path != 0; }
};

/// Captures the calling thread's current call path. Cheap no-op ({0}) when
/// the caller is outside any span.
SpanHandoff span_handoff_capture();

/// Opens a "pool.task" span named under the handoff's path on the
/// executing thread (which may differ from the submitter), accounted as a
/// child of the frame open on that thread. Inactive for a disengaged
/// handoff.
class SpanTaskScope {
 public:
  explicit SpanTaskScope(const SpanHandoff& h) noexcept;
  ~SpanTaskScope();
  SpanTaskScope(const SpanTaskScope&) = delete;
  SpanTaskScope& operator=(const SpanTaskScope&) = delete;

 private:
  bool active_ = false;
};

// ---- profile sink -----------------------------------------------------------

/// True iff a profile path is set (MPASS_PROFILE or set_profile_path).
bool profiling();

/// Test/CLI override of the profile output file. nullopt disables
/// profiling; an empty path restores the MPASS_PROFILE environment value.
void set_profile_path(std::optional<std::filesystem::path> path);

/// Writes spans_to_json(span_snapshot()) to the profile path (whole-file
/// rewrite; safe to call more than once). Also invoked at process exit
/// once profiling was ever enabled. No-op when profiling is off.
void flush_profile();

}  // namespace mpass::obs
