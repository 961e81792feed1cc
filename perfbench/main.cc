// lgbench — one benchmark for the LIFEGUARD reproduction.
//
//   lgbench --workload <internet_repair|fleet_outages|service_checkpoint>
//           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Runs one workload in this process (one simulation thread), prints every
// metric it measured as "name value unit [source]" lines, then, as the last
// line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py selects the end-to-end (trace 0) or per-layer (trace 1)
// metric set named in BENCHMARK.json from it.
//
// A traced run also measures the layers its workload does not exercise, on
// the smoke-size pass of the workload that does; metrics the workload itself
// produced take precedence. The [source] column says which pass measured
// each metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using lgbench::Options;
using lgbench::Report;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"internet_repair", lgbench::run_internet_repair},
    {"fleet_outages", lgbench::run_fleet_outages},
    {"service_checkpoint", lgbench::run_service_checkpoint},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lgbench: %s\nusage: lgbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.seconds < 0.0) {
        usage("--seconds takes a non-negative number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  Report report;
  try {
    report.source = chosen->name;
    chosen->run(opt, report);
    if (opt.trace) {
      for (const Workload& w : kWorkloads) {
        if (&w == chosen) continue;
        Options smoke = opt;
        smoke.workload = w.name;
        smoke.smoke = true;
        smoke.seconds = 0.0;
        Report other;
        other.source = std::string(w.name) + " (smoke)";
        w.run(smoke, other);
        report.attempted += other.attempted;
        report.failed += other.failed;
        for (const auto& [name, m] : other.metrics) {
          report.metrics.emplace(name, m);  // the workload's own value wins
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lgbench: %s failed: %s\n", chosen->name, e.what());
    return 1;
  }

  std::printf("  %-34s %16s %-6s %s\n", "metric", "value", "unit", "source");
  for (const auto& [name, m] : report.metrics) {
    std::printf("  %-34s %16.6g %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.source.c_str());
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "lgbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + json_escape(name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
