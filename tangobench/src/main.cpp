// tangobench: runs one benchmark workload in this process and prints its
// metrics, by name with their units, then the result as the last line.
//
//   tangobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run of
// the same workload and seed and reports the per-layer metrics.  Exits 0
// whenever it prints a result (a failed output check reads "correct": false
// there) and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: tangobench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const std::string& name : tangobench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string json_metrics(const std::vector<tangobench::Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  tangobench::Options options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || workload.empty() || (trace != 0 && trace != 1) ||
      !(options.seconds > 0)) {
    usage();
    return 2;
  }
  options.trace = trace == 1;

  tangobench::Result r;
  try {
    r = tangobench::run_workload(workload, options, tangobench::full_scale());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tangobench: %s\n", e.what());
    return 2;
  }

  const auto& metrics = options.trace ? r.per_layer : r.end_to_end;
  std::printf("workload %s seed %llu trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), trace);
  for (const tangobench::Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& v : r.violations) std::printf("  CHECK FAILED: %s\n", v.c_str());
  std::printf("{\"counts\": %s}\n", json_metrics(r.counts).c_str());
  const bool correct = r.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed), json_metrics(metrics).c_str());
  return 0;
}
