// Minimal leveled logger. Experiments run millions of simulated events, so
// the default level is Warn; harnesses and examples raise it for narrative
// output. Not thread-safe by design: the simulator is single-threaded.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace lg::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* log_level_name(LogLevel level) noexcept;

class Logger {
 public:
  // Receives the level and the fully formatted line (level name, optional
  // "[t=...]" prefix, message — no trailing newline).
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_level(LogLevel level) noexcept { level_ = level; }
  LogLevel level() const noexcept { return level_; }
  bool enabled(LogLevel level) const noexcept {
    return level != LogLevel::kOff && level >= level_;
  }

  // Optionally prefix messages with a simulated timestamp provider.
  void set_time_provider(double (*now)()) noexcept { now_ = now; }

  // Route formatted lines through `sink` instead of stderr (tests capture
  // output this way). An empty sink restores stderr.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  void write(LogLevel level, const std::string& msg);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  double (*now_)() = nullptr;
  Sink sink_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().write(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace lg::util

#define LG_LOG(level)                                        \
  if (!::lg::util::Logger::instance().enabled(level)) {      \
  } else                                                     \
    ::lg::util::detail::LogLine(level)

#define LG_DEBUG LG_LOG(::lg::util::LogLevel::kDebug)
#define LG_INFO LG_LOG(::lg::util::LogLevel::kInfo)
#define LG_WARN LG_LOG(::lg::util::LogLevel::kWarn)
#define LG_ERROR LG_LOG(::lg::util::LogLevel::kError)
