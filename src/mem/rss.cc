#include "mem/rss.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace lg::mem {

namespace {

// Parse a "VmXXX:   12345 kB" line value from /proc/self/status.
std::size_t proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      unsigned long long value = 0;
      if (std::sscanf(line + key_len, " %llu", &value) == 1) {
        kb = static_cast<std::size_t>(value);
      }
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::size_t current_rss_bytes() {
  const std::size_t kb = proc_status_kb("VmRSS:");
  return kb * 1024;
}

std::size_t peak_rss_bytes() {
  if (const std::size_t kb = proc_status_kb("VmHWM:"); kb != 0) {
    return kb * 1024;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Portable fallback: ru_maxrss is kilobytes on Linux, bytes on macOS.
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::size_t>(ru.ru_maxrss);
#else
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace lg::mem
