// flow_mjpeg: the paper's own pipeline (Table 1 and Figure 6) on the
// 3-tile FSL platform, as repeated closed passes. One pass parses the
// application and architecture XML, prepares and maps the decoder,
// generates the MAMPS project, and then for each of the six sequences
// measures the average actor costs, analyses the expected throughput
// with them, and runs the functional decoder on the platform simulator.
// This is the only workload where the generator and the simulator run;
// the simulator dominates and the analysis is a few percent, the
// inverse of dse_mjpeg.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "harness.hpp"
#include "mamps/generator.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "platform/io.hpp"
#include "sdf/io.hpp"
#include "sim/platform_sim.hpp"

namespace perfbench {

namespace {

using namespace mamps;

constexpr int kSetupRepeats = 15;
constexpr std::uint32_t kFrames = 2;
constexpr std::uint32_t kWidth = 64;
constexpr std::uint32_t kHeight = 48;

/// The pipeline's inputs: the two XML documents and the encoded corpus.
struct Inputs {
  std::string appXml;
  std::string archXml;
  mjpeg::MjpegApp ids;  ///< actor/channel ids of the decoder (model left empty)
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> streams;
};

Inputs makeInputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed, 3);
  const std::uint64_t syntheticSeed = rng.next();
  mjpeg::EncoderOptions encoder;
  encoder.sampling = mjpeg::Sampling::Yuv410;  // the VLD's full 10-block rate, as in Figure 6
  in.names.push_back("synthetic");
  in.streams.push_back(mjpeg::encodeSequence(
      mjpeg::makeSyntheticSequence(kFrames, kWidth, kHeight, syntheticSeed), encoder));
  for (const std::string& name : mjpeg::testSequenceNames()) {
    in.names.push_back(name);
    in.streams.push_back(
        mjpeg::encodeSequence(mjpeg::makeTestSequence(name, kFrames, kWidth, kHeight), encoder));
  }
  // WCETs calibrated on the synthetic (worst-case) stream with a 1% margin.
  mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(in.streams.front(), 1));
  in.appXml = sdf::applicationModelToXml(app.model);
  platform::TemplateRequest request;
  request.tileCount = 3;
  request.interconnect = platform::InterconnectKind::Fsl;
  in.archXml = platform::architectureToXml(platform::generateFromTemplate(request));
  in.ids = std::move(app);
  in.ids.model = sdf::ApplicationModel();
  return in;
}

sim::SimOptions simOptions() {
  sim::SimOptions options;
  options.warmupIterations = 8;
  options.measureIterations = 64;
  return options;
}

/// Everything one pass produced, kept for the checks after the timed part.
struct Pass {
  mjpeg::MjpegApp app;
  std::optional<platform::Architecture> arch;
  std::optional<mapping::MappingResult> mapped;
  std::size_t generatedBytes = 0;
  std::vector<analysis::ThroughputResult> expected;
  std::vector<std::unique_ptr<sim::PlatformSim>> sims;  ///< own the behaviours below
  std::vector<mjpeg::MjpegBehaviors> behaviors;
  std::vector<sim::SimResult> simulated;
};

Pass runPass(const Inputs& in, Tracer& tracer) {
  Pass p;
  p.app = in.ids;
  {
    ScopedSpan span(tracer, "sdf.parse");
    p.app.model = sdf::applicationModelFromString(in.appXml);
  }
  {
    ScopedSpan span(tracer, "platform.parse");
    p.arch.emplace(platform::architectureFromString(in.archXml));
  }
  std::optional<mapping::AppAnalysisCache> cache;
  {
    ScopedSpan span(tracer, "mapping.prepare");
    cache.emplace(mapping::prepareApplication(p.app.model));
  }
  {
    ScopedSpan span(tracer, "mapping.map");
    p.mapped = mapping::mapApplication(*cache, *p.arch, {});
  }
  if (!p.mapped) {
    return p;
  }
  {
    ScopedSpan span(tracer, "mamps.generate");
    const gen::PlatformProject project =
        gen::generatePlatform(p.app.model, *p.arch, p.mapped->mapping);
    for (const auto& [path, text] : project.files) {
      p.generatedBytes += text.size();
    }
  }
  for (const std::vector<std::uint8_t>& stream : in.streams) {
    mjpeg::MjpegWcets costs;
    {
      ScopedSpan span(tracer, "mjpeg.measure_costs");
      costs = mjpeg::measureAverageCosts(stream);
    }
    {
      ScopedSpan span(tracer, "mapping.analyze_expected");
      p.expected.push_back(mapping::analyzeMapping(
          p.app.model, *p.arch, p.mapped->mapping,
          {costs.vld, costs.iqzz, costs.idct, costs.cc, costs.raster}));
    }
    {
      ScopedSpan span(tracer, "sim.run");
      auto simulator =
          std::make_unique<sim::PlatformSim>(p.app.model, *p.arch, p.mapped->mapping);
      p.behaviors.push_back(mjpeg::attachMjpegBehaviors(*simulator, p.app, stream));
      p.simulated.push_back(simulator->run(simOptions()));
      p.sims.push_back(std::move(simulator));
    }
  }
  return p;
}

std::uint64_t firingsOf(const sim::SimResult& r) {
  std::uint64_t n = 0;
  for (const std::uint64_t f : r.firings) {
    n += f;
  }
  return n;
}

}  // namespace

Outcome runFlowMjpeg(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  Inputs in;
  const double setupS = medianSetupSeconds(kSetupRepeats, [&] { in = makeInputs(config.seed); });
  std::vector<std::vector<mjpeg::Frame>> reference;
  for (const auto& stream : in.streams) {
    reference.push_back(mjpeg::referenceDecode(stream));
  }

  std::optional<Rational> guarantee;
  double marginMin = 0.0;
  const auto check = [&](const Pass& p) {
    out.attempted += 1 + in.streams.size();
    if (!p.mapped || !p.mapped->throughput.ok() || !p.mapped->meetsConstraint) {
      out.fail("flow: mapping failed");
      return;
    }
    if (sdf::applicationModelToXml(p.app.model) != in.appXml ||
        platform::architectureToXml(*p.arch) != in.archXml) {
      out.fail("flow: the XML does not round-trip to the same model");
    }
    const Rational g = p.mapped->throughput.iterationsPerCycle;
    if (!guarantee) {
      guarantee = g;
    } else if (*guarantee != g) {
      out.fail("flow: the guarantee changed between passes");
    }
    const double floor = g.toDouble() * (1 - 1e-9);
    for (std::size_t s = 0; s < in.streams.size(); ++s) {
      const std::string& name = in.names[s];
      if (!p.expected[s].ok() || p.expected[s].iterationsPerCycle < g) {
        out.fail("flow: expected throughput of " + name + " is below the guarantee");
      }
      const sim::SimResult& r = p.simulated[s];
      if (!r.ok() || r.iterationsPerCycle() < floor) {
        out.fail("flow: simulated throughput of " + name + " is below the guarantee");
        continue;
      }
      const double margin = r.iterationsPerCycle() / g.toDouble();
      marginMin = marginMin == 0.0 ? margin : std::min(marginMin, margin);
      // The raster keeps at most 16 frames and drops the oldest; below
      // that, decoded frame f is frame f of the looped stream.
      const std::vector<mjpeg::Frame>& decoded = p.behaviors[s].raster->frames();
      bool same = !decoded.empty() && decoded.size() < 16;
      for (std::size_t f = 0; same && f < decoded.size(); ++f) {
        const mjpeg::Frame& want = reference[s][f % reference[s].size()];
        same = decoded[f].width == want.width && decoded[f].height == want.height &&
               decoded[f].rgb == want.rgb;
      }
      if (!same) {
        out.fail("flow: decoded frames of " + name + " differ from the reference decode");
      }
    }
  };

  std::vector<double> passMs;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  std::vector<double> timingOnlyMs;
  std::uint64_t simFirings = 0;
  std::uint64_t simCycles = 0;
  std::size_t generatedBytes = 0;
  std::uint64_t request = 0;
  double measuredMs = 0.0;
  const auto runStart = Clock::now();
  while (passMs.empty() ||
         (config.trace ? msBetween(runStart, Clock::now()) : measuredMs) < config.seconds * 1e3) {
    if (config.trace) {
      tracer.setEnabled(false);
      const auto plain = Clock::now();
      check(runPass(in, tracer));
      untracedMs += msBetween(plain, Clock::now());
      tracer.setEnabled(true);
      tracer.setRequest(++request);
    }
    const auto start = Clock::now();
    Pass p = runPass(in, tracer);
    const double ms = msBetween(start, Clock::now());
    passMs.push_back(ms);
    measuredMs += ms;
    check(p);
    if (!config.trace) {
      continue;
    }
    tracedMs += ms;
    generatedBytes = p.generatedBytes;
    for (const sim::SimResult& r : p.simulated) {
      simFirings += firingsOf(r);
      simCycles += r.totalCycles;
    }
    // The simulator engine alone: constant WCET costs, no behaviours.
    // Timed by the clock only, so the span shares stay those of a pass.
    if (p.mapped) {
      for (std::size_t s = 0; s < in.streams.size(); ++s) {
        const auto engineStart = Clock::now();
        sim::PlatformSim engine(p.app.model, *p.arch, p.mapped->mapping);
        const sim::SimResult r = engine.run(simOptions());
        timingOnlyMs.push_back(msBetween(engineStart, Clock::now()));
        out.attempted += 1;
        if (!r.ok() || r.iterationsPerCycle() < guarantee->toDouble() * (1 - 1e-9)) {
          out.fail("flow: timing-only simulation falls below the guarantee");
        }
      }
    }
  }

  const double passMsP50 = percentile(passMs, 0.5);
  out.endToEnd = {{"setup_s", setupS, "s"},
                  {"ops_per_s", 1e3 / passMsP50, "1/s"},
                  {"latency_ms", passMsP50, "ms"},
                  {"outcome_ratio", marginMin, "ratio"}};
  out.detail = {{"flow_s_p50", passMsP50 / 1e3, "s"},
                {"flow_s_p90", percentile(passMs, 0.9) / 1e3, "s"},
                {"guaranteed_mcus_per_mcycle", guarantee ? guarantee->toDouble() * 1e6 : 0.0,
                 "MCU/Mcycle"},
                {"sim_margin_min", marginMin, "ratio"},
                {"passes", static_cast<double>(passMs.size()), "count"}};

  if (config.trace) {
    const SpanTable spans = tracer.byName();
    const double simS =
        spanMeanMs(spans, "sim.run") * static_cast<double>(spanCount(spans, "sim.run")) / 1e3;
    out.layers = {
        {"sdf.parse_ms", spanMeanMs(spans, "sdf.parse"), "ms"},
        {"platform.parse_ms", spanMeanMs(spans, "platform.parse"), "ms"},
        {"mapping.prepare_ms", spanMeanMs(spans, "mapping.prepare"), "ms"},
        {"mapping.map_ms", spanMeanMs(spans, "mapping.map"), "ms"},
        {"mamps.generate_ms", spanMeanMs(spans, "mamps.generate"), "ms"},
        {"mamps.generated_bytes", static_cast<double>(generatedBytes), "bytes"},
        {"mjpeg.measure_costs_ms", spanMeanMs(spans, "mjpeg.measure_costs"), "ms"},
        {"mapping.analyze_expected_ms", spanMeanMs(spans, "mapping.analyze_expected"), "ms"},
        {"sim.run_ms", spanMeanMs(spans, "sim.run"), "ms"},
        {"sim.timing_only_ms", mean(timingOnlyMs), "ms"},
        {"sim.firings_per_s", simS > 0.0 ? static_cast<double>(simFirings) / simS : 0.0, "1/s"},
        {"sim.cycles_per_s", simS > 0.0 ? static_cast<double>(simCycles) / simS : 0.0, "1/s"},
    };
    addTraceSummary(out, tracer, untracedMs, tracedMs);
    tracer.write(config.traceOut, config);
  }
  return out;
}

}  // namespace perfbench
