// Structured per-sample trace sink (JSONL).
//
// When MPASS_TRACE=<dir> is set, every executed (attack, target, sample)
// run emits one JSONL file "<attack>-<target>-<sample digest>.jsonl" under
// <dir>: a "start" line, then "action"/"opt"/"query" events in order, then
// an "end" line. Run-level streams append under a global mutex:
// "cells.jsonl" (one "cell" line per completed grid cell, for query-budget
// reconciliation against CellStats) and "pem.jsonl" (PEM section rankings).
// The directory holds traces only: span rows go to MPASS_PROFILE
// (obs/span.hpp). Schema: docs/OBSERVABILITY.md.
//
// The sink composes with the per-sample parallel harness: a TraceScope is
// opened by the worker task that executes the sample and the buffer is
// thread-local, so concurrent samples never interleave within a file. The
// sample file is buffered in memory and written once at scope end (a torn
// run never leaves a half-valid trace). Nested scopes save and restore the
// outer scope, which makes the sink safe when a task waiting in
// ThreadPool::wait runs another sample's task inline.
//
// With MPASS_TRACE unset everything is pay-for-what-you-use: tracing()
// is one thread-local pointer test and no Event allocates.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace mpass::obs {

/// Trace output directory (from MPASS_TRACE), or nullptr when disabled.
const std::filesystem::path* trace_dir();

/// Test/CLI override of the trace directory. nullopt disables tracing;
/// an empty path restores the MPASS_TRACE environment value.
void set_trace_dir(std::optional<std::filesystem::path> dir);

/// True iff the calling thread is inside a TraceScope (and tracing is on).
bool tracing() noexcept;

/// Opens a per-sample trace on this thread: emits the "start" event and
/// routes subsequent Event lines into the sample's buffer. The file is
/// written on destruction. No-op when tracing is disabled.
class TraceScope {
 public:
  TraceScope(std::string_view attack, std::string_view target,
             std::uint64_t sample_digest, std::uint64_t seed,
             std::uint64_t query_budget);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  void* prev_ = nullptr;        // outer scope's buffer (nesting)
  std::string prev_tag_;        // outer log tag
};

/// One trace event line. Inactive (and free) outside a TraceScope; field
/// setters are chainable and ignored when inactive. The line is appended to
/// the current sample trace on destruction.
class Event {
 public:
  explicit Event(std::string_view ev);
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool active() const { return active_; }
  Event& num(std::string_view key, double v);
  Event& uint(std::string_view key, std::uint64_t v);
  Event& boolean(std::string_view key, bool v);
  Event& str(std::string_view key, std::string_view v);
  Event& strs(std::string_view key, std::span<const std::string> vs);

 private:
  bool active_ = false;
  JsonLine line_;
};

/// Appends one line to a run-level stream (e.g. "cells.jsonl") under the
/// trace directory; serialized by a global mutex. No-op when disabled.
void append_run_line(std::string_view file, std::string line);

}  // namespace mpass::obs
