// The one reader of numeric MPASS_* environment settings.
#pragma once

#include <cstddef>
#include <cstdlib>

namespace mpass::util {

/// The decimal value of environment variable `name`, or `fallback` when it
/// is unset or empty. Parsed with strtoull: leading digits count, and a
/// value without any reads as 0.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name); v && *v)
    return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  return fallback;
}

}  // namespace mpass::util
