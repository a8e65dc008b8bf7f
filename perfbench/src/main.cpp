// perfbench: one benchmark for the MAMPS flow. Runs one workload for a
// given number of seconds and prints, as its last stdout line, one JSON
// object with the operation counts and either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--source <id>]
//
// Before the result it prints the run conditions and the workload's own
// named numbers as "# conditions {...}" and "# detail {...}" lines.
// Check failures go to stderr; any failure makes the exit code 1.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "support/log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&);
  unsigned workers;
};

constexpr Workload kWorkloads[] = {
    {"dse_mjpeg", runDseMjpeg, 2},
    {"churn_mesh12", runChurnMesh12, 1},
    {"fault_churn_hetero4", runFaultChurnHetero4, 1},
    {"flow_mjpeg", runFlowMjpeg, 1},
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; a layer the workload never calls reports 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"analysis.expand_ms", "ms"},
    {"analysis.patch_ms", "ms"},
    {"analysis.solve_ms", "ms"},
    {"analysis.solves", "count"},
    {"analysis.growth_rounds_mean", "count"},
    {"analysis.hsdf_actors_mean", "count"},
    {"analysis.fast_path_ratio", "ratio"},
    {"mapping.bind_ms", "ms"},
    {"mapping.bind_failed", "count"},
    {"mapping.schedule_ms", "ms"},
    {"mapping.route_ms", "ms"},
    {"mapping.route_first_try_ratio", "ratio"},
    {"mapping.model_build_ms", "ms"},
    {"platform.template_ms", "ms"},
    {"mapping.dse.point_ms_p50", "ms"},
    {"mapping.dse.point_ms_p90", "ms"},
    {"mapping.dse.parallel_efficiency", "ratio"},
    {"mapping.admission.hit_ratio", "ratio"},
    {"mapping.admission.hit_ms_p50", "ms"},
    {"mapping.admission.miss_ms_p50", "ms"},
    {"mapping.admission.miss_ms_p99", "ms"},
    {"mapping.admission.reject_ms_p50", "ms"},
    {"mapping.admission.depart_ms_p50", "ms"},
    {"mapping.admission.depart_ms_p99", "ms"},
    {"mapping.admission.plan_cache_entries", "count"},
    {"mapping.admission.evacuated", "count"},
    {"mapping.admission.recovered", "count"},
    {"mapping.admission.repair_ms_p50", "ms"},
    {"mapping.prepare_ms", "ms"},
    {"mapping.map_ms", "ms"},
    {"sdf.parse_ms", "ms"},
    {"platform.parse_ms", "ms"},
    {"mamps.generate_ms", "ms"},
    {"mamps.generated_bytes", "bytes"},
    {"sim.run_ms", "ms"},
    {"sim.timing_only_ms", "ms"},
    {"sim.firings_per_s", "1/s"},
    {"sim.cycles_per_s", "1/s"},
    {"mjpeg.measure_costs_ms", "ms"},
    {"mapping.analyze_expected_ms", "ms"},
    {"self_share.sdf", "ratio"},
    {"self_share.platform", "ratio"},
    {"self_share.mapping", "ratio"},
    {"self_share.analysis", "ratio"},
    {"self_share.mamps", "ratio"},
    {"self_share.sim", "ratio"},
    {"self_share.mjpeg", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

std::string quoted(const std::string& text) { return "\"" + text + "\""; }

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (const Metric& m : metrics) {
    json += (json.size() > 1 ? ", " : "") + quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  return json + "}";
}

std::string hostName() {
  char name[256] = {};
  return gethostname(name, sizeof name - 1) == 0 ? std::string(name) : std::string("unknown");
}

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why +
                              "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                              "--trace <0|1> [--trace-out <file>] [--source <id>]");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    RunConfig config;
    std::string source = "unknown";
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        usage("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.traceOut = value;
      } else if (flag == "--source") {
        source = value;
      } else {
        usage("unknown flag " + flag);
      }
    }
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
      workload = config.workload == w.name ? &w : workload;
    }
    if (workload == nullptr || !haveSeed || !(config.seconds > 0.0)) {
      usage("need a known --workload, a --seed and positive --seconds");
    }

    // mapOntoBudget warns on stderr for every rejected miss; filter it so
    // the cost does not depend on where stderr goes.
    mamps::setLogLevel(mamps::LogLevel::Error);

    std::printf(
        "# conditions {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"host\": %s, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, \"source\": %s, "
        "\"workers\": %u, \"log_level\": \"error\"}\n",
        quoted(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
        number(config.seconds).c_str(), config.trace ? 1 : 0, quoted(hostName()).c_str(),
        std::thread::hardware_concurrency(), quoted("gcc " __VERSION__).c_str(),
        quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(source).c_str(), workload->workers);
    std::fflush(stdout);

    Outcome outcome = workload->run(config);
    outcome.endToEnd.insert(outcome.endToEnd.begin() + 1, {"peak_rss_mb", peakRssMb(), "MiB"});

    std::vector<Metric> reported;
    if (config.trace) {
      std::map<std::string, double> values;
      for (const Metric& m : outcome.layers) {
        values[m.name] = m.value;
      }
      for (const auto& [name, unit] : kLayerMetrics) {
        const auto it = values.find(name);
        reported.push_back({name, it == values.end() ? 0.0 : it->second, unit});
        if (it != values.end()) {
          values.erase(it);
        }
      }
      if (!values.empty()) {
        throw std::logic_error("per-layer metric " + values.begin()->first + " is not declared");
      }
    } else {
      reported = outcome.endToEnd;
    }
    for (Metric& m : reported) {
      if (!std::isfinite(m.value)) {
        outcome.fail("metric " + m.name + " is not a finite number");
        m.value = 0.0;
      }
    }
    for (const std::string& failure : outcome.failures) {
      std::fprintf(stderr, "check failed: %s\n", failure.c_str());
    }
    if (outcome.attempted == 0) {
      outcome.fail("no operation was attempted");
    }
    std::printf("# detail %s\n", metricsJson(outcome.detail).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                outcome.failed == 0 ? "true" : "false", outcome.attempted, outcome.failed,
                metricsJson(reported).c_str());
    return outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
