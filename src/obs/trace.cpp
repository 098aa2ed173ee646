#include "obs/trace.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/log.hpp"

namespace mpass::obs {

namespace {

// A sample trace under construction: buffered lines + the destination file.
struct SampleBuffer {
  std::filesystem::path path;
  std::string lines;
};

thread_local SampleBuffer* tl_buffer = nullptr;

std::mutex& dir_mu() {
  static std::mutex mu;
  return mu;
}

// Guarded by dir_mu(): the resolved trace directory (empty => disabled).
std::filesystem::path& dir_slot() {
  static std::filesystem::path dir = [] {
    const char* v = std::getenv("MPASS_TRACE");
    return std::filesystem::path(v && *v ? v : "");
  }();
  return dir;
}

std::mutex& stream_mu() {
  static std::mutex mu;
  return mu;
}

std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_' || c == '.')
               ? c
               : '_';
  return out;
}

}  // namespace

const std::filesystem::path* trace_dir() {
  std::lock_guard<std::mutex> lk(dir_mu());
  std::filesystem::path& dir = dir_slot();
  return dir.empty() ? nullptr : &dir;
}

void set_trace_dir(std::optional<std::filesystem::path> dir) {
  std::lock_guard<std::mutex> lk(dir_mu());
  if (!dir) {
    dir_slot().clear();
  } else if (dir->empty()) {
    const char* v = std::getenv("MPASS_TRACE");
    dir_slot() = std::filesystem::path(v && *v ? v : "");
  } else {
    dir_slot() = std::move(*dir);
  }
}

bool tracing() noexcept { return tl_buffer != nullptr; }

TraceScope::TraceScope(std::string_view attack, std::string_view target,
                       std::uint64_t sample_digest, std::uint64_t seed,
                       std::uint64_t query_budget) {
  const std::filesystem::path* dir = trace_dir();
  if (!dir) return;

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(sample_digest));
  auto* buf = new SampleBuffer;
  buf->path = *dir / (sanitize(attack) + "-" + sanitize(target) + "-" +
                      digest + ".jsonl");
  buf->lines = JsonLine()
                   .str("ev", "start")
                   .str("attack", attack)
                   .str("target", target)
                   .hex("sample", sample_digest)
                   .uint("seed", seed)
                   .uint("budget", query_budget)
                   .take();
  buf->lines += '\n';

  prev_ = tl_buffer;
  tl_buffer = buf;
  active_ = true;

  prev_tag_ = std::string(log_tag());
  std::string tag;
  tag.reserve(attack.size() + target.size() + 18);
  tag.append(attack).append("/").append(target).append("/").append(digest);
  set_log_tag(tag);
}

TraceScope::~TraceScope() {
  if (!active_) return;
  SampleBuffer* buf = tl_buffer;
  tl_buffer = static_cast<SampleBuffer*>(prev_);
  set_log_tag(prev_tag_);

  std::error_code ec;
  std::filesystem::create_directories(buf->path.parent_path(), ec);
  std::ofstream out(buf->path, std::ios::binary | std::ios::trunc);
  if (out) {
    out.write(buf->lines.data(),
              static_cast<std::streamsize>(buf->lines.size()));
  } else {
    logf(LogLevel::Warn, "trace: cannot write %s", buf->path.c_str());
  }
  delete buf;
}

Event::Event(std::string_view ev) {
  if (!tl_buffer) return;
  active_ = true;
  line_.str("ev", ev);
}

Event::~Event() {
  if (!active_) return;
  tl_buffer->lines += line_.take();
  tl_buffer->lines += '\n';
}

Event& Event::num(std::string_view key, double v) {
  if (active_) line_.num(key, v);
  return *this;
}

Event& Event::uint(std::string_view key, std::uint64_t v) {
  if (active_) line_.uint(key, v);
  return *this;
}

Event& Event::boolean(std::string_view key, bool v) {
  if (active_) line_.boolean(key, v);
  return *this;
}

Event& Event::str(std::string_view key, std::string_view v) {
  if (active_) line_.str(key, v);
  return *this;
}

Event& Event::strs(std::string_view key, std::span<const std::string> vs) {
  if (active_) line_.strs(key, vs);
  return *this;
}

void append_run_line(std::string_view file, std::string line) {
  const std::filesystem::path* dir = trace_dir();
  if (!dir) return;
  line += '\n';
  std::lock_guard<std::mutex> lk(stream_mu());
  std::error_code ec;
  std::filesystem::create_directories(*dir, ec);
  std::ofstream out(*dir / file, std::ios::binary | std::ios::app);
  if (out)
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace mpass::obs
