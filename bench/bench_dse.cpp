// DSE engine benchmark: sweep >= 100 MJPEG design points twice in the
// same run — once with the serial from-scratch baseline (a plain
// mapApplication loop: no shared application preparation, every
// buffer-growth round rebuilds the binding-aware model and runs a cold
// analysis) and once with the
// engine (shared AppAnalysisCache, incremental re-analysis with
// warm-started Howard, worker pool) — and verify the two sweeps'
// throughput rationals are bit-identical. Prints one JSON object to
// stdout; the trajectory at ../BENCH_dse.json records these numbers
// across PRs. Exits non-zero when the sweeps disagree, or when the
// engine's mean per-point latency on one worker exceeds 1.5x the
// committed trajectory's latest entry (the perf regression gate — wins
// recorded in BENCH_dse.json cannot silently rot). The gate times a
// separate 1-worker engine sweep because the committed figure is a
// 1-core one: per-point times of a multi-worker sweep include the
// workers' contention for shared caches and memory bandwidth.
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "mapping/dse.hpp"
#include "platform/arch_template.hpp"

using namespace mamps;

int main() {
  const auto calibration = mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 64, 48), {});
  mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(calibration));
  // Demand a throughput most configurations only reach after several
  // buffer-growth rounds (and single-tile ones never do), so every
  // design point exercises the re-analysis loop the engine accelerates.
  app.model.setThroughputConstraint(Rational(1, 1'250'000));

  std::vector<mapping::DesignPoint> points;
  for (const auto serialization :
       {comm::SerializationMode::OnProcessor, comm::SerializationMode::CommAssist}) {
    for (const auto kind :
         {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
      for (std::uint32_t tiles = 1; tiles <= 5; ++tiles) {
        for (const std::uint32_t scale : {1u, 2u}) {
          for (const std::uint32_t wires : {8u, 4u, 2u}) {
            mapping::DesignPoint point;
            point.platform.tileCount = tiles;
            point.platform.interconnect = kind;
            point.options.serialization = serialization;
            point.options.initialBufferScale = scale;
            point.options.nocWiresPerConnection = wires;
            point.options.bufferGrowthRounds = 6;
            points.push_back(point);
          }
        }
      }
    }
  }

  // Baseline: serial, from-scratch, no reuse anywhere — every point
  // builds its platform and maps the raw application model (which
  // prepares it again) with incremental re-analysis off.
  std::vector<std::optional<mapping::MappingResult>> baseline;
  baseline.reserve(points.size());
  const auto baselineStart = std::chrono::steady_clock::now();
  for (const mapping::DesignPoint& point : points) {
    const platform::Architecture arch = platform::generateFromTemplate(point.platform);
    mapping::MappingOptions options = point.options;
    options.incrementalAnalysis = false;
    baseline.push_back(mapping::mapApplication(app.model, arch, options));
  }
  const double baselineSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - baselineStart).count();

  // The engine: incremental re-analysis, shared preparation, worker
  // pool; once on every hardware thread (sweep throughput) and once on
  // one worker (the gated per-point latency).
  const mapping::DseResult engine = mapping::exploreDesignSpace(app.model, points, {});
  mapping::DseOptions oneWorker;
  oneWorker.threads = 1;
  const mapping::DseResult serialEngine = mapping::exploreDesignSpace(app.model, points, oneWorker);

  const auto sameOutcome = [&baseline](const mapping::DseResult& sweep) {
    if (sweep.points.size() != baseline.size()) {
      return false;
    }
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const auto& x = baseline[i];
      const auto& y = sweep.points[i].mapping;
      if (x.has_value() != y.has_value()) {
        return false;
      }
      if (x && !(x->throughput.status == y->throughput.status &&
                 x->throughput.iterationsPerCycle == y->throughput.iterationsPerCycle &&
                 x->meetsConstraint == y->meetsConstraint &&
                 x->mapping.localCapacityTokens == y->mapping.localCapacityTokens &&
                 x->mapping.srcBufferTokens == y->mapping.srcBufferTokens &&
                 x->mapping.dstBufferTokens == y->mapping.dstBufferTokens)) {
        return false;
      }
    }
    return true;
  };
  const bool identical = sameOutcome(engine) && sameOutcome(serialEngine);
  std::size_t met = 0;
  for (const mapping::DesignPointResult& point : engine.points) {
    met += point.feasible() && point.mapping->meetsConstraint ? 1 : 0;
  }

  // Perf regression gate: the committed trajectory's latest
  // engine_mean_point_ms (BENCH_dse.json, one worker) with 1.5x
  // headroom for host variance. Update the constant when appending an
  // entry.
  constexpr double kCommittedMeanPointMs = 1.40;
  constexpr double kGateFactor = 1.5;
  const double meanPointMs = serialEngine.meanPointSeconds() * 1e3;
  const bool withinBudget = meanPointMs <= kGateFactor * kCommittedMeanPointMs;

  const double speedup = engine.totalSeconds > 0.0 ? baselineSeconds / engine.totalSeconds : 0.0;
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_dse\",\n");
  std::printf("  \"workload\": \"MJPEG decoder, constraint 1/1250000, growth budget 6\",\n");
  std::printf("  \"points\": %zu,\n", points.size());
  std::printf("  \"threads\": %u,\n", std::max(1u, std::thread::hardware_concurrency()));
  std::printf("  \"feasible\": %zu,\n", engine.feasibleCount());
  std::printf("  \"meets_constraint\": %zu,\n", met);
  std::printf("  \"baseline_seconds\": %.3f,\n", baselineSeconds);
  std::printf("  \"engine_seconds\": %.3f,\n", engine.totalSeconds);
  std::printf("  \"engine_mean_point_ms\": %.2f,\n", meanPointMs);
  std::printf("  \"engine_mean_point_ms_all_threads\": %.2f,\n",
              engine.meanPointSeconds() * 1e3);
  std::printf("  \"engine_one_worker_seconds\": %.3f,\n", serialEngine.totalSeconds);
  std::printf("  \"speedup\": %.2f,\n", speedup);
  std::printf("  \"identical_rationals\": %s,\n", identical ? "true" : "false");
  std::printf("  \"perf_gate_limit_ms\": %.2f,\n", kGateFactor * kCommittedMeanPointMs);
  std::printf("  \"perf_within_budget\": %s\n", withinBudget ? "true" : "false");
  std::printf("}\n");
  return identical && withinBudget ? 0 : 1;
}
