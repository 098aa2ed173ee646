// Lock-cheap metrics registry: named counters and gauges, sharded per
// thread and merged on snapshot.
//
// Design:
//   * Registration (name -> MetricId) takes a registry mutex once per call
//     site; handles and OBS_SCOPE cache the id in a function-local static.
//   * The hot path (inc) touches only the calling thread's shard:
//     a bounds check plus relaxed atomic updates on slots only this thread
//     writes. No locks, no contention -- safe from any thread, including
//     the work-stealing util::ThreadPool workers.
//   * snapshot() merges all live shards (briefly locking each to fence
//     against shard growth) plus the totals retired by exited threads, so
//     the merged view is deterministic: it depends only on the updates
//     performed, never on which thread performed them.
//   * Threads retire their shard through a shared_ptr to the registry core,
//     so worker threads that outlive the registry singleton (static
//     destruction order is unspecified) merge into a still-live core
//     instead of a dangling pointer.
//
// Naming scheme (see docs/OBSERVABILITY.md): dot-separated lowercase,
// "<subsystem>.<what>[.<detail>]".
//
// Timing is not a metric: the OBS_SCOPE macro (obs/span.hpp) records
// hierarchical spans, the one timing path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace mpass::obs {

using MetricId = std::uint32_t;

/// Merged view of every metric at one point in time.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;

  /// One JSON object: {"counters":{...},"gauges":{...}}.
  std::string to_json() const;
};

class Registry {
 public:
  /// Process-wide registry.
  static Registry& instance();

  /// Registers (or looks up) a metric; same (kind, name) always yields the
  /// same id. Throws std::invalid_argument if `name` is already registered
  /// with a different kind.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);

  /// Gauge whose value is computed at snapshot time (e.g. queue depth).
  /// Re-registering a name replaces the callback. The callback must remain
  /// valid until replaced (pass owning lambdas for static-lifetime objects).
  void gauge_callback(std::string_view name, std::function<double()> fn);

  void inc(MetricId id, std::uint64_t delta = 1) noexcept;
  void set(MetricId id, double value) noexcept;

  Snapshot snapshot() const;

  struct Core;  // implementation detail, public only for the .cpp's TLS hook

 private:
  Registry();
  std::shared_ptr<Core> core_;
};

// ---- ergonomic handles ------------------------------------------------------

class Counter {
 public:
  explicit Counter(std::string_view name)
      : id_(Registry::instance().counter(name)) {}
  void inc(std::uint64_t delta = 1) const noexcept {
    Registry::instance().inc(id_, delta);
  }

 private:
  MetricId id_;
};

class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(Registry::instance().gauge(name)) {}
  void set(double v) const noexcept { Registry::instance().set(id_, v); }

 private:
  MetricId id_;
};

}  // namespace mpass::obs
