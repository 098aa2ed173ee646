#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace mpass::obs {

namespace {

// Hard caps, reserve()d at startup so the vectors never reallocate and ids
// can be indexed without the core lock.
constexpr std::size_t kMaxSites = 512;
constexpr std::size_t kMaxPaths = 8192;
// Per-shard bound on buffered Chrome events; pops beyond it are counted
// and reported at flush instead of exhausting memory on huge runs.
constexpr std::size_t kMaxEventsPerShard = 1u << 20;

constexpr std::uint32_t kRootPath = 0;
constexpr std::size_t kSlotsPerPath = 3;  // count, total_ns, child_ns

// Whether any profile sink is active; mirrored from the core so the
// disabled-path check is one relaxed load with no TLS or lock.
std::atomic<bool> g_profiling{false};

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

struct ProfileEvent {
  enum Kind : std::uint8_t { kComplete, kFlowStart, kFlowFinish };
  Kind kind = kComplete;
  std::uint32_t tid = 0;
  std::uint32_t path = 0;     // complete events
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;   // complete events
  std::uint64_t flow = 0;     // flow events
};

// Per-thread slot shard: the owning thread updates slots with relaxed
// atomics, growth and snapshot serialize through the mutex. The Chrome
// event buffer shares the mutex (profiling appends are owner-only, so the
// lock is uncontended except during flush).
struct SpanShard {
  mutable std::mutex mu;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  std::size_t capacity = 0;
  std::vector<ProfileEvent> events;
  std::uint64_t events_dropped = 0;

  void ensure(std::size_t need) {
    if (need <= capacity) return;
    std::size_t cap = std::max<std::size_t>(64, capacity * 2);
    while (cap < need) cap *= 2;
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    for (std::size_t i = 0; i < capacity; ++i)
      grown[i].store(slots[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    for (std::size_t i = capacity; i < cap; ++i)
      grown[i].store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    slots = std::move(grown);
    capacity = cap;
  }

  void record_event(const ProfileEvent& ev) {
    std::lock_guard<std::mutex> lk(mu);
    if (events.size() >= kMaxEventsPerShard) {
      ++events_dropped;
      return;
    }
    events.push_back(ev);
  }
};

struct PathNode {
  std::uint32_t parent = kRootPath;
  std::uint32_t site = 0;
};

struct SpanCore {
  mutable std::mutex mu;
  // site id -> name. reserve()d; elements are written once before their id
  // is published, so readers holding an id index without the lock.
  std::vector<std::string> sites;
  std::map<std::string, std::uint32_t, std::less<>> site_by_name;
  std::vector<PathNode> paths;  // paths[0] = root
  std::map<std::uint64_t, std::uint32_t> path_by_key;  // parent<<32|site
  bool paths_full_warned = false;

  std::vector<SpanShard*> shards;
  std::vector<std::uint64_t> retired;  // folded slots of exited threads
  std::vector<ProfileEvent> retired_events;
  std::uint64_t retired_events_dropped = 0;

  std::map<std::uint32_t, std::string> thread_names;
  std::atomic<std::uint64_t> next_flow{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::filesystem::path profile_path;  // guarded by mu

  SpanCore() {
    sites.reserve(kMaxSites);
    paths.reserve(kMaxPaths);
    paths.push_back(PathNode{});  // root
    const char* v = std::getenv("MPASS_PROFILE");
    if (v && *v) {
      profile_path = v;
      g_profiling.store(true, std::memory_order_relaxed);
    }
  }

  std::uint32_t intern_site(std::string_view name) {
    std::lock_guard<std::mutex> lk(mu);
    if (const auto it = site_by_name.find(name); it != site_by_name.end())
      return it->second;
    if (sites.size() >= kMaxSites)
      throw std::length_error("obs: span site table full");
    const auto id = static_cast<std::uint32_t>(sites.size());
    sites.emplace_back(name);
    site_by_name.emplace(std::string(name), id);
    return id;
  }

  std::uint32_t intern_path(std::uint32_t parent, std::uint32_t site) {
    // Direct recursion collapses onto the parent node so recursive scopes
    // (and re-entrant pool.task chains) cannot grow the table unboundedly.
    if (parent != kRootPath && paths[parent].site == site) return parent;
    std::lock_guard<std::mutex> lk(mu);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(parent) << 32) | site;
    if (const auto it = path_by_key.find(key); it != path_by_key.end())
      return it->second;
    if (paths.size() >= kMaxPaths) {
      // Degrade by mis-attributing to the parent rather than aborting a
      // long run; warn once.
      if (!paths_full_warned) {
        paths_full_warned = true;
        logf(LogLevel::Warn,
             "span: path table full (%zu); deep paths collapse onto parents",
             kMaxPaths);
      }
      return parent;
    }
    const auto id = static_cast<std::uint32_t>(paths.size());
    paths.push_back(PathNode{parent, site});
    path_by_key.emplace(key, id);
    return id;
  }

  // Folds an exiting thread's shard (slots + event buffer).
  void retire(SpanShard* s) {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t n =
        std::min(s->capacity, paths.size() * kSlotsPerPath);
    if (retired.size() < n) retired.resize(n, 0);
    for (std::size_t i = 0; i < n; ++i)
      retired[i] += s->slots[i].load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> slk(s->mu);
      retired_events.insert(retired_events.end(), s->events.begin(),
                            s->events.end());
      retired_events_dropped += s->events_dropped;
    }
    shards.erase(std::remove(shards.begin(), shards.end(), s), shards.end());
  }
};

// Registers flush_profile() to run at process exit, once, when profiling
// turns on. Only called once the core is fully constructed: atexit hooks
// registered after a static's construction run before its destructor, so
// the flush still sees the core. It merges live and retired shards, so it
// sees every thread's events whether or not the pool was torn down first.
void ensure_exit_flush() {
  static const bool registered = [] {
    std::atexit([] { flush_profile(); });
    return true;
  }();
  (void)registered;
}

std::shared_ptr<SpanCore>& core_ref() {
  static std::shared_ptr<SpanCore> core = std::make_shared<SpanCore>();
  static const bool env_profile = [] {  // MPASS_PROFILE set at startup
    if (profiling()) ensure_exit_flush();
    return true;
  }();
  (void)env_profile;
  return core;
}

struct Frame {
  std::uint32_t path = kRootPath;
  std::uint32_t parent = kRootPath;  // path of the frame below on this stack
  std::uint64_t t0 = 0;
};

// Per-thread state. Holds the core alive so threads that outlive the
// static core pointer (static destruction order) still retire safely.
struct SpanTls {
  std::shared_ptr<SpanCore> core;
  std::unique_ptr<SpanShard> shard;
  std::vector<Frame> stack;
  std::unordered_map<std::uint64_t, std::uint32_t> path_cache;
  std::uint32_t tid = 0;
  ~SpanTls() {
    if (core && shard) core->retire(shard.get());
  }
};
thread_local SpanTls span_tls;

SpanTls& tls() {
  SpanTls& t = span_tls;
  if (!t.shard) {
    t.core = core_ref();
    t.shard = std::make_unique<SpanShard>();
    t.tid = t.core->next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(t.core->mu);
    t.core->shards.push_back(t.shard.get());
  }
  return t;
}

std::uint32_t cached_path(SpanTls& t, std::uint32_t parent,
                          std::uint32_t site) {
  const std::uint64_t key = (static_cast<std::uint64_t>(parent) << 32) | site;
  if (const auto it = t.path_cache.find(key); it != t.path_cache.end())
    return it->second;
  const std::uint32_t path = t.core->intern_path(parent, site);
  t.path_cache.emplace(key, path);
  return path;
}

void pop_frame(SpanTls& t) {
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t dur = now_ns() - f.t0;

  SpanShard& s = *t.shard;
  const std::size_t need =
      (static_cast<std::size_t>(std::max(f.path, f.parent)) + 1) *
      kSlotsPerPath;
  s.ensure(need);
  s.slots[f.path * kSlotsPerPath + 0].fetch_add(1, std::memory_order_relaxed);
  // A frame collapsed onto its parent by direct recursion lies inside the
  // parent frame's time already: it adds only its count.
  if (f.path != f.parent) {
    s.slots[f.path * kSlotsPerPath + 1].fetch_add(dur,
                                                  std::memory_order_relaxed);
    s.slots[f.parent * kSlotsPerPath + 2].fetch_add(
        dur, std::memory_order_relaxed);
  }
  if (g_profiling.load(std::memory_order_relaxed))
    s.record_event(
        {ProfileEvent::kComplete, t.tid, f.path, f.t0, dur, /*flow=*/0});
}

std::uint32_t pool_task_site() {
  static const std::uint32_t site = core_ref()->intern_site("pool.task");
  return site;
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  json_escape(out, s);
  out += '"';
  return out;
}

}  // namespace

SpanSiteId span_site(std::string_view name) {
  return core_ref()->intern_site(name);
}

Span::Span(SpanSiteId site) noexcept {
  SpanTls& t = tls();
  const std::uint32_t parent =
      t.stack.empty() ? kRootPath : t.stack.back().path;
  t.stack.push_back(Frame{cached_path(t, parent, site), parent, now_ns()});
}

Span::~Span() { pop_frame(tls()); }

// ---- cross-thread handoff ---------------------------------------------------

SpanHandoff span_handoff_capture() {
  // Fast path: outside any span with profiling off, there is nothing to
  // propagate and no TLS/shard needs to exist.
  if (span_tls.stack.empty() &&
      !g_profiling.load(std::memory_order_relaxed))
    return {};
  SpanTls& t = tls();
  SpanHandoff h;
  h.path = t.stack.empty() ? kRootPath : t.stack.back().path;
  if (g_profiling.load(std::memory_order_relaxed)) {
    h.flow = t.core->next_flow.fetch_add(1, std::memory_order_relaxed);
    t.shard->record_event({ProfileEvent::kFlowStart, t.tid, /*path=*/0,
                           now_ns(), /*dur=*/0, h.flow});
  }
  return h;
}

SpanTaskScope::SpanTaskScope(const SpanHandoff& h) noexcept {
  if (!h.engaged()) return;
  SpanTls& t = tls();
  const std::uint32_t site = pool_task_site();
  const std::uint64_t t0 = now_ns();
  if (h.flow && g_profiling.load(std::memory_order_relaxed))
    t.shard->record_event(
        {ProfileEvent::kFlowFinish, t.tid, /*path=*/0, t0, /*dur=*/0, h.flow});
  // Named under the submitter, accounted to the frame open on *this*
  // thread: the task's time lies inside that frame (a helping waiter's
  // span) or inside no frame at all (an idle worker), never inside the
  // submitter's frame on another thread.
  const std::uint32_t parent =
      t.stack.empty() ? kRootPath : t.stack.back().path;
  t.stack.push_back(Frame{cached_path(t, h.path, site), parent, t0});
  active_ = true;
}

SpanTaskScope::~SpanTaskScope() {
  if (active_) pop_frame(tls());
}

// ---- snapshots --------------------------------------------------------------

std::vector<SpanRow> span_snapshot() {
  const std::shared_ptr<SpanCore> core = core_ref();
  SpanCore& c = *core;
  std::lock_guard<std::mutex> lk(c.mu);

  const std::size_t n_slots = c.paths.size() * kSlotsPerPath;
  std::vector<std::uint64_t> acc(n_slots, 0);
  for (std::size_t i = 0; i < std::min(c.retired.size(), n_slots); ++i)
    acc[i] += c.retired[i];
  for (const SpanShard* s : c.shards) {
    std::lock_guard<std::mutex> slk(s->mu);
    const std::size_t n = std::min(s->capacity, n_slots);
    for (std::size_t i = 0; i < n; ++i)
      acc[i] += s->slots[i].load(std::memory_order_relaxed);
  }

  // Resolve full path strings root-down (parents precede children by
  // construction, so one forward pass suffices).
  std::vector<std::string> names(c.paths.size());
  std::vector<std::uint32_t> depths(c.paths.size(), 0);
  for (std::size_t id = 1; id < c.paths.size(); ++id) {
    const PathNode& node = c.paths[id];
    const std::string& site = c.sites[node.site];
    if (node.parent == kRootPath) {
      names[id] = site;
      depths[id] = 1;
    } else {
      names[id] = names[node.parent] + "/" + site;
      depths[id] = depths[node.parent] + 1;
    }
  }

  std::vector<SpanRow> rows;
  for (std::size_t id = 1; id < c.paths.size(); ++id) {
    const std::uint64_t count = acc[id * kSlotsPerPath + 0];
    const std::uint64_t total = acc[id * kSlotsPerPath + 1];
    const std::uint64_t child = acc[id * kSlotsPerPath + 2];
    if (count == 0 && child == 0) continue;
    rows.push_back(SpanRow{names[id], depths[id], count, total, child});
  }
  std::sort(rows.begin(), rows.end(),
            [](const SpanRow& a, const SpanRow& b) { return a.path < b.path; });
  return rows;
}

void append_span_rows(std::string& out, const std::vector<SpanRow>& rows) {
  out += '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpanRow& r = rows[i];
    if (i) out += ',';
    out += "{\"path\":";
    out += json_quote(r.path);
    out += ",\"count\":";
    json_number(out, static_cast<double>(r.count));
    out += ",\"total_ms\":";
    json_number(out, static_cast<double>(r.total_ns) / 1e6);
    out += ",\"self_ms\":";
    json_number(out, static_cast<double>(r.self_ns()) / 1e6);
    out += ",\"child_ms\":";
    json_number(out, static_cast<double>(r.child_ns) / 1e6);
    out += '}';
  }
  out += ']';
}

std::string spans_to_json(const std::vector<SpanRow>& rows) {
  std::string s = "{\"schema_version\":1,\"spans\":";
  append_span_rows(s, rows);
  s += '}';
  return s;
}

// ---- Chrome trace-event sink ------------------------------------------------

bool profiling() noexcept {
  return g_profiling.load(std::memory_order_relaxed);
}

void set_profile_path(std::optional<std::filesystem::path> path) {
  const std::shared_ptr<SpanCore> core = core_ref();
  std::lock_guard<std::mutex> lk(core->mu);
  if (!path) {
    core->profile_path.clear();
    g_profiling.store(false, std::memory_order_relaxed);
  } else if (path->empty()) {
    const char* v = std::getenv("MPASS_PROFILE");
    core->profile_path = std::filesystem::path(v && *v ? v : "");
    g_profiling.store(!core->profile_path.empty(),
                      std::memory_order_relaxed);
  } else {
    core->profile_path = std::move(*path);
    g_profiling.store(true, std::memory_order_relaxed);
  }
  if (profiling()) ensure_exit_flush();
}

namespace {

void append_chrome_event(std::string& out, bool& first,
                         const ProfileEvent& ev, const SpanCore& c,
                         const std::vector<std::string>& names) {
  if (!first) out += ',';
  first = false;
  char buf[64];
  const double ts_us = static_cast<double>(ev.t0_ns) / 1e3;
  switch (ev.kind) {
    case ProfileEvent::kComplete: {
      const PathNode& node = c.paths[ev.path];
      out += "{\"ph\":\"X\",\"name\":";
      out += json_quote(c.sites[node.site]);
      out += ",\"cat\":\"span\",\"pid\":1,\"tid\":";
      std::snprintf(buf, sizeof(buf), "%u,\"ts\":", ev.tid);
      out += buf;
      json_number(out, ts_us);
      out += ",\"dur\":";
      json_number(out, static_cast<double>(ev.dur_ns) / 1e3);
      out += ",\"args\":{\"path\":";
      out += json_quote(names[ev.path]);
      out += "}}";
      break;
    }
    case ProfileEvent::kFlowStart:
    case ProfileEvent::kFlowFinish: {
      const bool start = ev.kind == ProfileEvent::kFlowStart;
      out += start ? "{\"ph\":\"s\"" : "{\"ph\":\"f\",\"bp\":\"e\"";
      out += ",\"name\":\"pool.submit\",\"cat\":\"flow\",\"pid\":1,\"id\":";
      json_number(out, static_cast<double>(ev.flow));
      std::snprintf(buf, sizeof(buf), ",\"tid\":%u,\"ts\":", ev.tid);
      out += buf;
      json_number(out, ts_us);
      out += '}';
      break;
    }
  }
}

}  // namespace

void flush_profile() {
  const std::shared_ptr<SpanCore> core = core_ref();
  if (!g_profiling.load(std::memory_order_relaxed)) return;

  SpanCore& c = *core;
  std::lock_guard<std::mutex> lk(c.mu);
  if (c.profile_path.empty()) return;

  std::vector<ProfileEvent> events = c.retired_events;
  std::uint64_t dropped = c.retired_events_dropped;
  for (const SpanShard* s : c.shards) {
    std::lock_guard<std::mutex> slk(s->mu);
    events.insert(events.end(), s->events.begin(), s->events.end());
    dropped += s->events_dropped;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ProfileEvent& a, const ProfileEvent& b) {
                     return a.t0_ns < b.t0_ns;
                   });

  std::vector<std::string> names(c.paths.size());
  for (std::size_t id = 1; id < c.paths.size(); ++id) {
    const PathNode& node = c.paths[id];
    names[id] = node.parent == kRootPath
                    ? c.sites[node.site]
                    : names[node.parent] + "/" + c.sites[node.site];
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":"
      "\"mpass\"}}";
  first = false;
  // Thread-name metadata: explicit names first, then a default for every
  // tid that recorded events but never named itself.
  std::map<std::uint32_t, std::string> tid_names = c.thread_names;
  for (const ProfileEvent& ev : events)
    if (!tid_names.count(ev.tid))
      tid_names[ev.tid] = "thread-" + std::to_string(ev.tid);
  for (const auto& [tid, name] : tid_names) {
    out += ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    json_number(out, static_cast<double>(tid));
    out += ",\"args\":{\"name\":";
    out += json_quote(name);
    out += "}}";
  }
  for (const ProfileEvent& ev : events)
    append_chrome_event(out, first, ev, c, names);
  out += "]}";

  std::error_code ec;
  if (c.profile_path.has_parent_path())
    std::filesystem::create_directories(c.profile_path.parent_path(), ec);
  std::ofstream f(c.profile_path, std::ios::binary | std::ios::trunc);
  if (f) {
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
  } else {
    std::fprintf(stderr, "span: cannot write profile %s\n",
                 c.profile_path.string().c_str());
  }
  if (dropped > 0)
    std::fprintf(stderr,
                 "span: profile dropped %llu events (per-thread cap %zu)\n",
                 static_cast<unsigned long long>(dropped),
                 kMaxEventsPerShard);
}

void set_thread_name(std::string_view name) {
  SpanTls& t = tls();
  std::lock_guard<std::mutex> lk(t.core->mu);
  t.core->thread_names[t.tid] = std::string(name);
}

}  // namespace mpass::obs
