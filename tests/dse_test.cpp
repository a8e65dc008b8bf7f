// Tests for the design-space exploration engine: determinism of the
// parallel sweep (point-for-point equality with the serial run),
// equivalence of the incremental and from-scratch analysis paths at
// flow level, and the shared application-preparation cache (sweep
// level and mapApplication level). Equality of whole sweeps with
// independent from-scratch mappings is pinned by
// PerfWall.DseWarmStartAndThreadsAreResultIdentical (tests/perf_test.cpp).
#include <gtest/gtest.h>

#include "apps/mjpeg/actors.hpp"
#include "apps/mjpeg/testdata.hpp"
#include "mapping/dse.hpp"
#include "platform/arch_template.hpp"
#include "sdf/repetition_vector.hpp"
#include "test_util.hpp"

namespace mamps::mapping {
namespace {

using platform::InterconnectKind;
using sdf::ApplicationModel;

/// Figure 2 with heavy WCETs and a constraint most points only meet
/// after buffer growth, so sweeps exercise the re-analysis loop.
ApplicationModel constrainedApp() {
  ApplicationModel app = test::makeAppModel(test::figure2Graph(), {500, 800, 400});
  app.setThroughputConstraint(Rational(1, 2600));
  return app;
}

std::vector<DesignPoint> sweepPoints() {
  std::vector<DesignPoint> points;
  for (const auto kind : {InterconnectKind::Fsl, InterconnectKind::NocMesh}) {
    for (std::uint32_t tiles = 1; tiles <= 4; ++tiles) {
      DesignPoint point;
      point.platform.tileCount = tiles;
      point.platform.interconnect = kind;
      point.options.initialBufferScale = 1;
      points.push_back(point);
    }
  }
  return points;
}

void expectPointwiseEqual(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const DesignPointResult& pa = a.points[i];
    const DesignPointResult& pb = b.points[i];
    EXPECT_EQ(pa.label, pb.label);
    ASSERT_EQ(pa.feasible(), pb.feasible());
    if (!pa.feasible()) {
      continue;
    }
    EXPECT_EQ(pa.mapping->throughput.status, pb.mapping->throughput.status);
    EXPECT_EQ(pa.mapping->throughput.iterationsPerCycle,
              pb.mapping->throughput.iterationsPerCycle);
    EXPECT_EQ(pa.mapping->throughput.engine, pb.mapping->throughput.engine);
    EXPECT_EQ(pa.mapping->meetsConstraint, pb.mapping->meetsConstraint);
    EXPECT_EQ(pa.mapping->mapping.actorToTile, pb.mapping->mapping.actorToTile);
    EXPECT_EQ(pa.mapping->mapping.schedules, pb.mapping->mapping.schedules);
    EXPECT_EQ(pa.mapping->mapping.localCapacityTokens, pb.mapping->mapping.localCapacityTokens);
    EXPECT_EQ(pa.mapping->mapping.srcBufferTokens, pb.mapping->mapping.srcBufferTokens);
    EXPECT_EQ(pa.mapping->mapping.dstBufferTokens, pb.mapping->mapping.dstBufferTokens);
  }
}

/// Bit-identity of the growth loop against the from-scratch reference:
/// verdict, buffers and the final binding-aware model's tokens.
void expectSameAsFromScratch(const MappingResult& a, const MappingResult& b) {
  EXPECT_EQ(a.throughput.status, b.throughput.status);
  EXPECT_EQ(a.throughput.iterationsPerCycle, b.throughput.iterationsPerCycle);
  EXPECT_EQ(a.throughput.engine, b.throughput.engine);
  EXPECT_EQ(a.throughput.hsdfActors, b.throughput.hsdfActors);
  EXPECT_EQ(a.meetsConstraint, b.meetsConstraint);
  EXPECT_EQ(a.mapping.localCapacityTokens, b.mapping.localCapacityTokens);
  EXPECT_EQ(a.mapping.srcBufferTokens, b.mapping.srcBufferTokens);
  EXPECT_EQ(a.mapping.dstBufferTokens, b.mapping.dstBufferTokens);
  // The final binding-aware models must agree channel for channel
  // (the incremental path patches instead of rebuilding).
  ASSERT_EQ(a.model.graph.graph.channelCount(), b.model.graph.graph.channelCount());
  for (sdf::ChannelId c = 0; c < a.model.graph.graph.channelCount(); ++c) {
    EXPECT_EQ(a.model.graph.graph.channel(c).initialTokens,
              b.model.graph.graph.channel(c).initialTokens)
        << "channel " << a.model.graph.graph.channel(c).name;
  }
}

TEST(DseTest, ParallelSweepMatchesSerialPointForPoint) {
  // The determinism contract: any thread count returns the same result
  // vector as the serial run, in input order.
  const ApplicationModel app = constrainedApp();
  const auto points = sweepPoints();
  DseOptions serial;
  serial.threads = 1;
  const DseResult serialRun = exploreDesignSpace(app, points, serial);
  for (const unsigned threads : {2u, 4u}) {
    DseOptions parallel;
    parallel.threads = threads;
    const DseResult parallelRun = exploreDesignSpace(app, points, parallel);
    expectPointwiseEqual(serialRun, parallelRun);
  }
}

TEST(DseTest, IncrementalFlowMatchesFromScratchFlow) {
  // mapApplication's two analysis paths (incremental context vs rebuild
  // every growth round) must produce bit-identical mappings.
  const ApplicationModel app = constrainedApp();
  for (const DesignPoint& point : sweepPoints()) {
    const platform::Architecture arch = platform::generateFromTemplate(point.platform);
    MappingOptions incremental = point.options;
    incremental.incrementalAnalysis = true;
    MappingOptions scratch = point.options;
    scratch.incrementalAnalysis = false;
    const auto a = mapApplication(app, arch, incremental);
    const auto b = mapApplication(app, arch, scratch);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) {
      continue;
    }
    expectSameAsFromScratch(*a, *b);
  }
}

/// The MJPEG decoder with bench_dse's calibration, under a constraint
/// of one MCU per `cyclesPerMcu` cycles.
ApplicationModel mjpegAt(std::int64_t cyclesPerMcu) {
  const auto calibration = mjpeg::encodeSequence(mjpeg::makeSyntheticSequence(2, 64, 48), {});
  mjpeg::MjpegApp app = mjpeg::buildMjpegApp(mjpeg::calibrateWcets(calibration));
  app.model.setThroughputConstraint(Rational(1, cyclesPerMcu));
  return std::move(app.model);
}

/// The Section 7 sweep's single-tile FSL point (buffer scale 1, growth
/// budget 6), mapped by the growth loop and by the from-scratch loop.
struct SingleTilePoint {
  std::optional<MappingResult> grown;
  std::optional<MappingResult> reference;
};

SingleTilePoint mapSingleTileFsl(const ApplicationModel& app, std::uint32_t growthRounds = 6) {
  platform::TemplateRequest request;
  request.tileCount = 1;
  request.interconnect = InterconnectKind::Fsl;
  const platform::Architecture arch = platform::generateFromTemplate(request);
  MappingOptions options;
  options.initialBufferScale = 1;
  options.bufferGrowthRounds = growthRounds;
  MappingOptions scratch = options;
  scratch.incrementalAnalysis = false;
  return {mapApplication(app, arch, options), mapApplication(app, arch, scratch)};
}

TEST(DseTest, SaturatedMjpegPointStopsAtTheInfiniteBufferBound) {
  // One tile cannot decode an MCU in 900000 cycles with any buffers.
  // Its static order deadlocks on the initial buffers until growth
  // round 4, where the rate reaches the infinite-buffer bound 1/1304732
  // and stays, so rounds 5 and 6 grow the buffers without solving.
  const SingleTilePoint point = mapSingleTileFsl(mjpegAt(900'000));
  ASSERT_TRUE(point.grown.has_value());
  ASSERT_TRUE(point.reference.has_value());
  EXPECT_FALSE(point.grown->meetsConstraint);
  EXPECT_EQ(point.grown->throughput.iterationsPerCycle, Rational(1, 1'304'732));
  ASSERT_TRUE(point.grown->saturatedAtRound.has_value());
  EXPECT_EQ(*point.grown->saturatedAtRound, 4u);
  EXPECT_FALSE(point.reference->saturatedAtRound.has_value());
  expectSameAsFromScratch(*point.grown, *point.reference);
}

TEST(DseTest, MjpegPointMeetingItsConstraintAfterGrowthIsNotSaturated) {
  const ApplicationModel app = mjpegAt(1'600'000);
  const SingleTilePoint point = mapSingleTileFsl(app);
  ASSERT_TRUE(point.grown.has_value());
  ASSERT_TRUE(point.reference.has_value());
  EXPECT_TRUE(point.grown->meetsConstraint);
  EXPECT_FALSE(point.grown->saturatedAtRound.has_value());
  expectSameAsFromScratch(*point.grown, *point.reference);

  // The constraint was met by growing: the initial buffers miss it,
  // and without a growth budget no bound is computed.
  const SingleTilePoint initial = mapSingleTileFsl(app, 0);
  ASSERT_TRUE(initial.grown.has_value());
  EXPECT_FALSE(initial.grown->meetsConstraint);
  EXPECT_FALSE(initial.grown->saturatedAtRound.has_value());
  EXPECT_NE(initial.grown->mapping.localCapacityTokens,
            point.grown->mapping.localCapacityTokens);
}

TEST(DseTest, ResultsComeBackInInputOrderWithLabels) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  auto points = sweepPoints();
  points[0].label = "custom";
  const DseResult sweep = exploreDesignSpace(app, points);
  ASSERT_EQ(sweep.points.size(), points.size());
  EXPECT_EQ(sweep.points[0].label, "custom");
  EXPECT_EQ(sweep.points[1].label, "2t_fsl");
  EXPECT_EQ(sweep.points[4].label, "1t_nocMesh");
  EXPECT_EQ(sweep.feasibleCount(), points.size());
  EXPECT_GT(sweep.totalSeconds, 0.0);
  EXPECT_GT(sweep.meanPointSeconds(), 0.0);
}

TEST(DseTest, InfeasiblePointsAreReportedNotDropped) {
  // Each actor needs most of a tile's instruction memory: one tile can
  // hold only one actor, so the single-tile points are infeasible while
  // the 4-tile points map fine.
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30},
                                                 /*instrMem=*/100 * 1024, /*dataMem=*/1024);
  std::vector<DesignPoint> points;
  for (const std::uint32_t tiles : {1u, 4u}) {
    DesignPoint point;
    point.platform.tileCount = tiles;
    point.platform.tileMemory = {128 * 1024, 64 * 1024};
    points.push_back(point);
  }
  const DseResult sweep = exploreDesignSpace(app, points);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_FALSE(sweep.points[0].feasible());
  EXPECT_TRUE(sweep.points[1].feasible());
  EXPECT_EQ(sweep.feasibleCount(), 1u);
}

TEST(DseTest, EmptySweepReturnsEmptyResult) {
  const ApplicationModel app = test::makeAppModel(test::figure2Graph(), {10, 20, 30});
  const DseResult sweep = exploreDesignSpace(app, {});
  EXPECT_TRUE(sweep.points.empty());
  EXPECT_EQ(sweep.feasibleCount(), 0u);
  EXPECT_EQ(sweep.meanPointSeconds(), 0.0);
}

TEST(DseTest, SharedPreparationMatchesPerPointPreparation) {
  // The sweep prepares the application once and shares that
  // AppAnalysisCache across all points; mapping each point on its own
  // (mapApplication prepares the application afresh every call) must
  // give the same result point for point.
  const ApplicationModel app = constrainedApp();
  const auto points = sweepPoints();
  DseOptions serial;
  serial.threads = 1;
  const DseResult shared = exploreDesignSpace(app, points, serial);
  DseResult perPoint;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const platform::Architecture arch = platform::generateFromTemplate(points[i].platform);
    DesignPointResult result;
    result.label = shared.points.at(i).label;
    result.mapping = mapApplication(app, arch, points[i].options);
    perPoint.points.push_back(std::move(result));
  }
  EXPECT_GT(shared.feasibleCount(), 0u);
  expectPointwiseEqual(shared, perPoint);
}

TEST(DseTest, CachedMapApplicationMatchesUncached) {
  const ApplicationModel app = constrainedApp();
  const AppAnalysisCache cache = prepareApplication(app);
  EXPECT_TRUE(cache.consistent);
  EXPECT_TRUE(cache.deadlockFree);
  EXPECT_EQ(cache.repetition, *sdf::computeRepetitionVector(app.graph()));
  ASSERT_TRUE(cache.wcetByType.contains("microblaze"));
  EXPECT_EQ(cache.wcetByType.at("microblaze")[1], 800u);

  platform::TemplateRequest request;
  request.tileCount = 2;
  const platform::Architecture arch = platform::generateFromTemplate(request);
  const auto cached = mapApplication(cache, arch, {});
  const auto direct = mapApplication(app, arch, {});
  ASSERT_EQ(cached.has_value(), direct.has_value());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->throughput.iterationsPerCycle, direct->throughput.iterationsPerCycle);
  EXPECT_EQ(cached->mapping.actorToTile, direct->mapping.actorToTile);
}

TEST(DseTest, InconsistentAppIsRejectedThroughTheCache) {
  sdf::Graph g("bad");
  const auto a = g.addActor("a");
  const auto b = g.addActor("b");
  g.connect(a, 2, b, 1, 0, "c1");
  g.connect(a, 1, b, 1, 0, "c2");
  const ApplicationModel app = test::makeAppModel(std::move(g), {10, 10});
  const AppAnalysisCache cache = prepareApplication(app);
  EXPECT_FALSE(cache.consistent);
  platform::TemplateRequest request;
  request.tileCount = 2;
  EXPECT_FALSE(mapApplication(cache, platform::generateFromTemplate(request), {}).has_value());
}

}  // namespace
}  // namespace mamps::mapping
