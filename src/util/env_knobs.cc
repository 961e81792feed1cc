#include "util/env_knobs.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lg::util {

namespace {

[[noreturn]] void reject(const char* name, const std::string& want,
                         const char* v) {
  throw std::invalid_argument(std::string(name) + ": " + want + ", got '" +
                              v + "'");
}

// strtod also reads "inf", "nan" and overflowing literals such as "1e999";
// no knob means any of them (an infinite horizon never ends a run).
double parse_double(const char* name, const char* v) {
  char* end = nullptr;
  const double n = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(n)) {
    reject(name, "expected a finite number", v);
  }
  return n;
}

// Digits only: strtoull would quietly skip blanks, wrap a '-' and saturate.
bool parse_u64(const char* v, std::uint64_t& out) {
  if (*v < '0' || *v > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(v, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

}  // namespace

double env_double_knob(const char* name, double base, double min) {
  const char* v = std::getenv(name);
  if (v == nullptr) return base;
  const double n = parse_double(name, v);
  if (!(n >= min)) {
    // The shortest form that reads back as `min`: 0, not 0.000000.
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, min).ptr;
    reject(name, "must be >= " + std::string(buf, end), v);
  }
  return n;
}

double env_fraction_knob(const char* name, double base) {
  const char* v = std::getenv(name);
  if (v == nullptr) return base;
  const double n = parse_double(name, v);
  if (!(n >= 0.0) || n > 1.0) reject(name, "must be in [0, 1]", v);
  return n;
}

std::size_t env_size_knob(const char* name, std::size_t base) {
  const char* v = std::getenv(name);
  if (v == nullptr) return base;
  std::uint64_t n = 0;
  if (!parse_u64(v, n) || n == 0) {
    reject(name, "expected a positive integer", v);
  }
  return static_cast<std::size_t>(n);
}

std::uint64_t env_u64_knob(const char* name, std::uint64_t base) {
  const char* v = std::getenv(name);
  if (v == nullptr) return base;
  std::uint64_t n = 0;
  if (!parse_u64(v, n)) reject(name, "expected a decimal integer", v);
  return n;
}

bool env_switch(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  if (s == "on" || s == "1") return true;
  if (s == "off" || s == "0") return false;
  return fallback;
}

}  // namespace lg::util
