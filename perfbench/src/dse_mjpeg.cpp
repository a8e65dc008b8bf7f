// dse_mjpeg: the Section 7 design-space sweep of the MJPEG decoder.
//
// One closed batch per constraint level: exploreDesignSpace over the
// 120-point grid of bench/bench_dse.cpp (serialization x interconnect x
// 1-5 tiles x buffer scale x SDM wires, growth budget 6) on a fixed two
// workers. The four constraint levels range from points most
// configurations meet at their initial buffers to points that need
// several buffer-growth rounds, so the exact analysis (HSDF expansion,
// patching, Howard) carries most of the time while admission, the
// simulator and the generator do nothing.
//
// The traced run maps every point a second time through the public step
// functions in mapOntoBudget's order (bind, schedule, route with wire
// halving, WCET lookup, binding-aware model, incremental growth loop),
// with a span around each call, and fails any point whose rational,
// buffers or verdict differ from the sweep's.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "harness.hpp"
#include "mapping/binding.hpp"
#include "mapping/binding_aware.hpp"
#include "mapping/dse.hpp"
#include "mapping/schedule.hpp"
#include "mapping/workload.hpp"
#include "platform/arch_template.hpp"
#include "platform/resource_budget.hpp"

namespace perfbench {

namespace {

using namespace mamps;

constexpr unsigned kWorkers = 2;
/// Throughput constraints of the sweep, as clock cycles per MCU.
constexpr std::int64_t kConstraintCycles[] = {900'000, 1'100'000, 1'300'000, 1'600'000};
constexpr int kSetupRepeats = 15;

std::vector<mapping::DesignPoint> designGrid() {
  std::vector<mapping::DesignPoint> points;
  for (const auto serialization :
       {comm::SerializationMode::OnProcessor, comm::SerializationMode::CommAssist}) {
    for (const auto kind : {platform::InterconnectKind::Fsl, platform::InterconnectKind::NocMesh}) {
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
  return points;
}

/// The comparable outcome of one design point.
struct PointRecord {
  bool feasible = false;
  bool meets = false;
  analysis::ThroughputResult::Status status = analysis::ThroughputResult::Status::Ok;
  Rational rate;
  std::vector<std::uint64_t> local, src, dst;
  std::uint64_t bufferBytes = 0;

  bool operator==(const PointRecord&) const = default;
};

std::uint64_t bufferBytes(const sdf::Graph& g, const mapping::Mapping& m) {
  std::uint64_t bytes = 0;
  for (sdf::ChannelId c = 0; c < g.channelCount(); ++c) {
    bytes += (m.localCapacityTokens[c] + m.srcBufferTokens[c] + m.dstBufferTokens[c]) *
             g.channel(c).tokenSizeBytes;
  }
  return bytes;
}

PointRecord recordOf(const sdf::Graph& g, const std::optional<mapping::MappingResult>& result) {
  PointRecord r;
  if (!result) {
    return r;
  }
  r.feasible = true;
  r.meets = result->meetsConstraint;
  r.status = result->throughput.status;
  r.rate = result->throughput.iterationsPerCycle;
  r.local = result->mapping.localCapacityTokens;
  r.src = result->mapping.srcBufferTokens;
  r.dst = result->mapping.dstBufferTokens;
  r.bufferBytes = bufferBytes(g, result->mapping);
  return r;
}

/// What the traced decomposition counts besides its spans.
struct StepCounters {
  std::size_t bindFailed = 0;
  std::size_t routed = 0;
  std::size_t routedFirstTry = 0;
  std::size_t contexts = 0;
  std::size_t fastPath = 0;
  std::size_t growthRounds = 0;
  std::vector<double> hsdfActors;
};

/// One design point mapped through the public step functions, in
/// mapOntoBudget's order, on a fresh budget (client 0) as mapApplication
/// does.
PointRecord mapDecomposed(const mapping::AppAnalysisCache& cache, const mapping::DesignPoint& point,
                          analysis::SolverWarmStart& warm, Tracer& tracer, StepCounters& counts) {
  ScopedSpan pointSpan(tracer, "mapping.dse.point");
  std::optional<platform::Architecture> built;
  {
    ScopedSpan span(tracer, "platform.template");
    built.emplace(platform::generateFromTemplate(point.platform));
  }
  const platform::Architecture& arch = *built;
  const sdf::ApplicationModel& app = *cache.app;
  const sdf::Graph& g = app.graph();
  const mapping::MappingOptions& options = point.options;
  PointRecord record;
  if (!cache.consistent || !cache.deadlockFree) {
    return record;
  }
  platform::ResourceBudget work(arch);
  work.commitBaseline(mapping::runtimeLayerInstrBytes(), mapping::runtimeLayerDataBytes());
  constexpr std::uint32_t kClient = 0;

  std::optional<mapping::BindingResult> binding;
  {
    ScopedSpan span(tracer, "mapping.bind");
    binding = mapping::bindActors(app, options, work, kClient);
  }
  if (!binding) {
    ++counts.bindFailed;
    return record;
  }
  std::optional<std::vector<std::vector<sdf::ActorId>>> schedules;
  {
    ScopedSpan span(tracer, "mapping.schedule");
    schedules = mapping::buildStaticOrderSchedules(app, arch, binding->actorToTile);
  }
  if (!schedules) {
    return record;
  }
  mapping::Mapping m;
  m.actorToTile = binding->actorToTile;
  m.schedules = *schedules;
  m.serialization = options.serialization;
  {
    ScopedSpan span(tracer, "mapping.route");
    std::uint32_t wires = std::max<std::uint32_t>(1, options.nocWiresPerConnection);
    mapping::MappingOptions attempt = options;
    bool firstTry = true;
    for (;;) {
      attempt.nocWiresPerConnection = wires;
      if (mapping::routeChannels(g, arch, m.actorToTile, attempt, work, kClient,
                                 m.channelRoutes)) {
        break;
      }
      firstTry = false;
      if (wires == 1) {
        return record;
      }
      wires /= 2;
    }
    ++counts.routed;
    counts.routedFirstTry += firstTry ? 1 : 0;
  }

  // WCET per actor on its tile, with mapOntoBudget's TDM inflation.
  std::vector<std::uint64_t> wcet(g.actorCount());
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    const platform::TileId t = m.actorToTile[a];
    wcet[a] = cache.wcetByType.at(arch.tile(t).processorType)[a];
    const std::uint32_t held = work.tileSlots(t, kClient);
    const std::uint32_t wheel = work.tileSlotCapacity(t);
    if (held != 0 && held < wheel) {
      wcet[a] = (wcet[a] * wheel + held - 1) / held + work.tileWheelOverheadCycles(t);
    }
  }

  // Initial buffers: capacity lower bounds times the scale.
  const std::uint64_t scale = std::max<std::uint32_t>(1, options.initialBufferScale);
  m.localCapacityTokens.assign(g.channelCount(), 0);
  m.srcBufferTokens.assign(g.channelCount(), 0);
  m.dstBufferTokens.assign(g.channelCount(), 0);
  for (sdf::ChannelId c = 0; c < g.channelCount(); ++c) {
    const sdf::Channel& ch = g.channel(c);
    if (ch.isSelfEdge()) {
      continue;
    }
    if (m.channelRoutes[c].interTile) {
      m.srcBufferTokens[c] = (std::uint64_t{ch.prodRate} + ch.initialTokens) * scale;
      m.dstBufferTokens[c] = std::uint64_t{ch.consRate} * scale;
    } else {
      m.localCapacityTokens[c] = analysis::capacityLowerBound(ch) * scale;
    }
  }

  std::optional<mapping::BindingAwareModel> model;
  {
    ScopedSpan span(tracer, "mapping.model_build");
    model.emplace(mapping::buildBindingAware(app, arch, m, wcet));
  }
  std::optional<analysis::IncrementalThroughput> context;
  {
    ScopedSpan span(tracer, "analysis.expand");
    context.emplace(model->graph, &model->resources);
  }
  ++counts.contexts;
  counts.fastPath += context->onFastPath() ? 1 : 0;
  context->adoptWarmStart(warm);
  const auto solve = [&] {
    ScopedSpan span(tracer, "analysis.solve");
    analysis::ThroughputResult t = context->compute();
    counts.hsdfActors.push_back(static_cast<double>(t.hsdfActors));
    return t;
  };
  const Rational constraint = app.throughputConstraint();
  const auto met = [&](const analysis::ThroughputResult& t) {
    return t.ok() && (constraint.isZero() || t.iterationsPerCycle >= constraint);
  };
  analysis::ThroughputResult throughput = solve();
  for (std::uint32_t round = 0; !met(throughput) && round < options.bufferGrowthRounds; ++round) {
    ++counts.growthRounds;
    {
      ScopedSpan span(tracer, "analysis.patch");
      for (sdf::ChannelId c = 0; c < g.channelCount(); ++c) {
        const sdf::Channel& ch = g.channel(c);
        if (ch.isSelfEdge()) {
          continue;
        }
        const mapping::CapacityEdgeIds& ids = model->capacityEdges[c];
        const auto patch = [&](sdf::ChannelId id, std::uint64_t tokens) {
          if (id != sdf::kInvalidChannel) {
            model->graph.graph.setInitialTokens(id, tokens);
            context->setInitialTokens(id, tokens);
          }
        };
        if (m.channelRoutes[c].interTile) {
          m.srcBufferTokens[c] *= 2;
          m.dstBufferTokens[c] *= 2;
          patch(ids.alphaSrc, m.srcBufferTokens[c] - ch.initialTokens);
          patch(ids.alphaDst, m.dstBufferTokens[c]);
        } else {
          m.localCapacityTokens[c] *= 2;
          patch(ids.localSpace, m.localCapacityTokens[c] - ch.initialTokens);
        }
      }
    }
    throughput = solve();
  }
  if (context->onFastPath()) {
    context->exportWarmStart(warm);
  }
  record.feasible = true;
  record.meets = met(throughput);
  record.status = throughput.status;
  record.rate = throughput.iterationsPerCycle;
  record.local = m.localCapacityTokens;
  record.src = m.srcBufferTokens;
  record.dst = m.dstBufferTokens;
  record.bufferBytes = bufferBytes(g, m);
  return record;
}

}  // namespace

Outcome runDseMjpeg(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);

  // Set-up: seeded calibration frames -> WCETs -> one model per
  // constraint level, the grid, and the shared preparation.
  std::vector<mjpeg::MjpegApp> apps;
  std::vector<mapping::DesignPoint> points;
  std::vector<mapping::AppAnalysisCache> caches;
  const double setupS = medianSetupSeconds(kSetupRepeats, [&] {
    Rng rng(config.seed, 1);
    const auto frames = mjpeg::makeSyntheticSequence(2, 64, 48, rng.next());
    const mjpeg::MjpegWcets wcets = mjpeg::calibrateWcets(mjpeg::encodeSequence(frames, {}));
    apps.clear();
    for (const std::int64_t cycles : kConstraintCycles) {
      apps.push_back(mjpeg::buildMjpegApp(wcets));
      apps.back().model.setThroughputConstraint(Rational(1, cycles));
    }
    points = designGrid();
    caches.clear();
    for (const mjpeg::MjpegApp& app : apps) {
      ScopedSpan span(tracer, "mapping.prepare");
      caches.push_back(mapping::prepareApplication(app.model));
    }
  });

  mapping::DseOptions dseOptions;
  dseOptions.threads = kWorkers;

  // Reference per level: the first sweep, whose feasible points are
  // re-solved cold; later sweeps must reproduce it exactly.
  std::vector<std::vector<PointRecord>> reference(apps.size());
  const auto checkSweep = [&](std::size_t level, const mapping::DseResult& sweep) {
    const sdf::Graph& g = apps[level].model.graph();
    if (sweep.points.size() != points.size()) {
      out.fail("dse: sweep returned the wrong number of points");
      return;
    }
    const bool first = reference[level].empty();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& mapped = sweep.points[i].mapping;
      PointRecord record = recordOf(g, mapped);
      if (first) {
        if (mapped) {
          const analysis::ThroughputResult cold =
              analysis::computeThroughput(mapped->model.graph, mapped->model.resources);
          if (cold.status != mapped->throughput.status ||
              cold.iterationsPerCycle != mapped->throughput.iterationsPerCycle) {
            out.fail("dse: point " + sweep.points[i].label + " differs from a cold re-solve");
          }
        }
        reference[level].push_back(std::move(record));
      } else if (!(record == reference[level][i])) {
        out.fail("dse: point " + sweep.points[i].label + " changed between sweeps");
      }
    }
  };

  std::vector<double> roundMs;  // one round sweeps every constraint level
  std::vector<double> pointMs;
  std::vector<double> efficiency;
  double sweptMs = 0.0;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  std::size_t rounds = 0;
  std::uint64_t request = 0;
  StepCounters counts;
  analysis::SolverWarmStart warm;
  const double budgetMs = config.seconds * 1e3;
  const auto runStart = Clock::now();
  while (rounds == 0 || (config.trace ? msBetween(runStart, Clock::now()) : sweptMs) < budgetMs) {
    double levelMs = 0.0;
    for (std::size_t level = 0; level < apps.size(); ++level) {
      const auto start = Clock::now();
      const mapping::DseResult sweep =
          mapping::exploreDesignSpace(apps[level].model, points, dseOptions);
      const double ms = msBetween(start, Clock::now());
      levelMs += ms;
      sweptMs += ms;
      out.attempted += points.size();
      checkSweep(level, sweep);
      if (!config.trace) {
        continue;
      }
      double pointSum = 0.0;
      for (const mapping::DesignPointResult& p : sweep.points) {
        pointMs.push_back(p.seconds * 1e3);
        pointSum += p.seconds * 1e3;
      }
      efficiency.push_back(pointSum / (kWorkers * ms));

      // The same points, decomposed: untraced, then traced.
      StepCounters scratch;
      tracer.setEnabled(false);
      const auto plain = Clock::now();
      for (const mapping::DesignPoint& point : points) {
        (void)mapDecomposed(caches[level], point, warm, tracer, scratch);
      }
      untracedMs += msBetween(plain, Clock::now());
      tracer.setEnabled(true);
      const auto traced = Clock::now();
      for (std::size_t i = 0; i < points.size(); ++i) {
        tracer.setRequest(++request);
        const PointRecord record = mapDecomposed(caches[level], points[i], warm, tracer, counts);
        out.attempted += 1;
        if (!(record == reference[level][i])) {
          out.fail("dse: decomposed mapping of " + sweep.points[i].label +
                   " differs from mapApplication");
        }
      }
      tracedMs += msBetween(traced, Clock::now());
    }
    roundMs.push_back(levelMs);
    ++rounds;
  }

  // End-to-end numbers of one round (all levels) from the reference.
  std::size_t met = 0;
  std::uint64_t bytes = 0;
  for (const auto& level : reference) {
    for (const PointRecord& r : level) {
      met += r.meets ? 1 : 0;
      bytes += r.meets ? r.bufferBytes : 0;
    }
  }
  const double roundPoints = static_cast<double>(points.size() * apps.size());
  const double roundMsP50 = percentile(roundMs, 0.5);
  const double pointsPerS = roundPoints / (roundMsP50 / 1e3);
  out.endToEnd = {{"setup_s", setupS, "s"},
                  {"ops_per_s", pointsPerS, "1/s"},
                  {"latency_ms", roundMsP50, "ms"},
                  {"outcome_ratio", static_cast<double>(met) / roundPoints, "ratio"}};
  out.detail = {{"dse_points_per_s", pointsPerS, "1/s"},
                {"dse_met_points", static_cast<double>(met), "count"},
                {"dse_buffer_bytes", static_cast<double>(bytes), "bytes"},
                {"dse_round_ms_p90", percentile(roundMs, 0.9), "ms"},
                {"dse_rounds", static_cast<double>(rounds), "count"},
                {"dse_workers", kWorkers, "count"}};

  if (config.trace) {
    const SpanTable spans = tracer.byName();
    const double perRound = 1.0 / static_cast<double>(rounds);
    out.layers = {
        {"analysis.expand_ms", spanMeanMs(spans, "analysis.expand"), "ms"},
        {"analysis.patch_ms", spanMeanMs(spans, "analysis.patch"), "ms"},
        {"analysis.solve_ms", spanMeanMs(spans, "analysis.solve"), "ms"},
        {"analysis.solves", static_cast<double>(spanCount(spans, "analysis.solve")) * perRound,
         "count"},
        {"analysis.growth_rounds_mean", ratio(counts.growthRounds, counts.contexts), "count"},
        {"analysis.hsdf_actors_mean", mean(counts.hsdfActors), "count"},
        {"analysis.fast_path_ratio", ratio(counts.fastPath, counts.contexts), "ratio"},
        {"mapping.bind_ms", spanMeanMs(spans, "mapping.bind"), "ms"},
        {"mapping.bind_failed", static_cast<double>(counts.bindFailed) * perRound, "count"},
        {"mapping.schedule_ms", spanMeanMs(spans, "mapping.schedule"), "ms"},
        {"mapping.route_ms", spanMeanMs(spans, "mapping.route"), "ms"},
        {"mapping.route_first_try_ratio", ratio(counts.routedFirstTry, counts.routed), "ratio"},
        {"mapping.model_build_ms", spanMeanMs(spans, "mapping.model_build"), "ms"},
        {"platform.template_ms", spanMeanMs(spans, "platform.template"), "ms"},
        {"mapping.dse.point_ms_p50", percentile(pointMs, 0.5), "ms"},
        {"mapping.dse.point_ms_p90", percentile(pointMs, 0.9), "ms"},
        {"mapping.dse.parallel_efficiency", mean(efficiency), "ratio"},
        {"mapping.prepare_ms", spanMeanMs(spans, "mapping.prepare"), "ms"},
    };
    addTraceSummary(out, tracer, untracedMs, tracedMs);
    tracer.write(config.traceOut, config);
  }
  return out;
}

}  // namespace perfbench
