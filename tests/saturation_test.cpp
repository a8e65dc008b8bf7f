// Property wall for growth saturation: the infinite-buffer bound that
// lets the buffer-growth loop of mapOntoBudget stop re-solving once more
// buffer can no longer change the rate (docs/throughput.md, "Growth
// saturation"). Each test sweeps 125 random seeds:
//   - the masked-collapse bound equals a cold computeThroughput of the
//     graph with the capacity channels removed;
//   - along random capacity-doubling sequences the rate never beats the
//     bound and, once equal, stays equal;
//   - the growth loop that stops at the bound returns exactly what the
//     from-scratch loop (MappingOptions::incrementalAnalysis off)
//     returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/buffer.hpp"
#include "analysis/incremental.hpp"
#include "analysis/throughput.hpp"
#include "mapping/flow.hpp"
#include "platform/arch_template.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace mamps {
namespace {

using analysis::IncrementalThroughput;
using analysis::ResourceConstraints;
using analysis::ThroughputResult;

constexpr std::uint64_t kSeeds = 125;

/// `timed` with the channels in `removed` taken out (actors, timing and
/// the remaining channels unchanged).
sdf::TimedGraph withoutChannels(const sdf::TimedGraph& timed,
                                const std::vector<sdf::ChannelId>& removed) {
  const sdf::Graph& g = timed.graph;
  std::vector<char> drop(g.channelCount(), 0);
  for (const sdf::ChannelId c : removed) {
    drop[c] = 1;
  }
  sdf::Graph kept(g.name());
  for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
    kept.addActor(g.actor(a).name);
  }
  for (sdf::ChannelId c = 0; c < g.channelCount(); ++c) {
    if (drop[c] != 0) {
      continue;
    }
    const sdf::Channel& ch = g.channel(c);
    kept.connect(sdf::ChannelSpec{ch.src, ch.prodRate, ch.dst, ch.consRate, ch.initialTokens,
                                  ch.tokenSizeBytes, ch.name});
  }
  return sdf::TimedGraph::rebuildFrom(timed, std::move(kept));
}

/// A random capacitated graph: the space back-edges withCapacities
/// appends are the capacity channels. Every other seed also binds all
/// original actors to one resource with a random full-iteration static
/// order, so the static-order chains are part of the masked table.
struct CapacitatedCase {
  sdf::TimedGraph bounded;
  std::optional<ResourceConstraints> resources;
  std::vector<sdf::ChannelId> capacityChannels;
};

CapacitatedCase randomCase(Rng& rng, bool scheduled) {
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  opt.maxQ = 3;
  const sdf::Graph g = test::randomConsistentGraph(rng, opt);
  const auto capacities = analysis::minimalDeadlockFreeCapacities(g);
  CapacitatedCase out;
  out.bounded =
      analysis::withCapacities(sdf::TimedGraph{g, test::randomExecTimes(rng, g)}, *capacities);
  for (sdf::ChannelId c = static_cast<sdf::ChannelId>(g.channelCount());
       c < out.bounded.graph.channelCount(); ++c) {
    out.capacityChannels.push_back(c);
  }
  if (scheduled) {
    const auto q = *sdf::computeRepetitionVector(out.bounded.graph);
    ResourceConstraints resources;
    resources.staticOrder.resize(1);
    resources.actorResource.assign(out.bounded.graph.actorCount(),
                                   ResourceConstraints::kUnbound);
    std::vector<sdf::ActorId> pending;
    for (sdf::ActorId a = 0; a < g.actorCount(); ++a) {
      resources.actorResource[a] = 0;
      for (std::uint64_t i = 0; i < q[a]; ++i) {
        pending.push_back(a);
      }
    }
    while (!pending.empty()) {
      const std::size_t pick = rng.range(0, pending.size() - 1);
      resources.staticOrder[0].push_back(pending[pick]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    out.resources = std::move(resources);
  }
  return out;
}

bool sameVerdict(const ThroughputResult& a, const ThroughputResult& b) {
  return a.status == b.status && a.iterationsPerCycle == b.iterationsPerCycle;
}

TEST(SaturationWall, MaskedBoundEqualsColdSolveWithoutTheChannels) {
  analysis::ThroughputOptions mcr;
  mcr.engine = analysis::ThroughputEngine::Mcr;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 20000);
    const CapacitatedCase c = randomCase(rng, seed % 2 == 1);
    const ResourceConstraints* res = c.resources ? &*c.resources : nullptr;
    IncrementalThroughput context(c.bounded, res);
    ASSERT_TRUE(context.onFastPath()) << "seed " << seed;
    const ThroughputResult before = context.compute();
    const std::optional<ThroughputResult> bound = context.infiniteBufferBound(c.capacityChannels);
    ASSERT_TRUE(bound.has_value()) << "seed " << seed;

    const sdf::TimedGraph removed = withoutChannels(c.bounded, c.capacityChannels);
    const ThroughputResult cold = res != nullptr
                                      ? analysis::computeThroughput(removed, *res, mcr)
                                      : analysis::computeThroughput(removed, mcr);
    ASSERT_EQ(bound->status, cold.status) << "seed " << seed;
    EXPECT_EQ(bound->iterationsPerCycle, cold.iterationsPerCycle) << "seed " << seed;
    EXPECT_EQ(bound->engine, cold.engine) << "seed " << seed;
    EXPECT_EQ(bound->hsdfActors, cold.hsdfActors) << "seed " << seed;

    // The bound's solve leaves the context's own verdict untouched.
    const ThroughputResult after = context.compute();
    EXPECT_TRUE(sameVerdict(after, before)) << "seed " << seed;
  }
}

TEST(SaturationWall, RateNeverBeatsBoundAndStaysOnceEqual) {
  std::size_t reachedLater = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 21000);
    CapacitatedCase c = randomCase(rng, seed % 2 == 0);
    const ResourceConstraints* res = c.resources ? &*c.resources : nullptr;
    ASSERT_FALSE(c.capacityChannels.empty()) << "seed " << seed;
    IncrementalThroughput context(c.bounded, res);
    ASSERT_TRUE(context.onFastPath()) << "seed " << seed;
    const ThroughputResult bound = *context.infiniteBufferBound(c.capacityChannels);

    std::optional<ThroughputResult> previous;
    std::optional<int> firstEqual;
    for (int round = 0; round < 8; ++round) {
      const ThroughputResult now = res != nullptr
                                       ? analysis::computeThroughput(c.bounded, *res)
                                       : analysis::computeThroughput(c.bounded);
      SCOPED_TRACE("seed " + std::to_string(seed) + " round " + std::to_string(round));
      if (bound.status == ThroughputResult::Status::Deadlock) {
        EXPECT_EQ(now.status, ThroughputResult::Status::Deadlock);
      }
      if (bound.ok() && now.ok()) {
        EXPECT_LE(now.iterationsPerCycle, bound.iterationsPerCycle);
      }
      if (previous && previous->ok() && now.ok()) {
        EXPECT_GE(now.iterationsPerCycle, previous->iterationsPerCycle);
      }
      if (firstEqual) {
        EXPECT_TRUE(sameVerdict(now, bound));
      } else if (sameVerdict(now, bound)) {
        firstEqual = round;
      }
      previous = now;

      // Double a random nonempty subset of the capacities.
      const std::size_t forced = rng.range(0, c.capacityChannels.size() - 1);
      for (std::size_t i = 0; i < c.capacityChannels.size(); ++i) {
        if (i != forced && !rng.chance(0.5)) {
          continue;
        }
        const sdf::ChannelId id = c.capacityChannels[i];
        const std::uint64_t tokens = c.bounded.graph.channel(id).initialTokens;
        c.bounded.graph.setInitialTokens(id, std::max<std::uint64_t>(1, 2 * tokens));
      }
    }
    reachedLater += firstEqual.value_or(0) > 0 ? 1 : 0;
  }
  // The sequences must climb to the bound, not only start there.
  EXPECT_GT(reachedLater, kSeeds / 10);
}

/// A small random application the mapping flow can always ingest.
sdf::ApplicationModel randomApp(Rng& rng) {
  test::RandomGraphOptions opt;
  opt.maxActors = 5;
  opt.maxExtraChannels = 3;
  return test::makeAppModel(test::randomConsistentGraph(rng, opt),
                            {rng.range(20, 120), rng.range(20, 120), rng.range(20, 120)});
}

TEST(SaturationWall, GrowthLoopMatchesFromScratchLoop) {
  std::size_t saturatedAtStart = 0;
  std::size_t saturatedLater = 0;
  std::size_t metAfterGrowth = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 22000);
    sdf::ApplicationModel app = randomApp(rng);
    platform::TemplateRequest request;
    request.tileCount = static_cast<std::uint32_t>(rng.range(1, 4));
    request.interconnect =
        rng.chance(0.5) ? platform::InterconnectKind::Fsl : platform::InterconnectKind::NocMesh;
    const platform::Architecture arch = platform::generateFromTemplate(request);

    // Ask for a random multiple of the minimal-buffer rate: some points
    // meet it at once, some after growth, some never.
    mapping::MappingOptions probe;
    probe.initialBufferScale = 1;
    probe.bufferGrowthRounds = 0;
    const auto minimal = mapping::mapApplication(app, arch, probe);
    if (!minimal || !minimal->throughput.ok()) {
      continue;
    }
    const std::int64_t percent[] = {50, 101, 110, 130, 400};
    app.setThroughputConstraint(minimal->throughput.iterationsPerCycle *
                                Rational(percent[rng.range(0, 4)], 100));

    mapping::MappingOptions options = probe;
    options.bufferGrowthRounds = static_cast<std::uint32_t>(rng.range(0, 6));
    mapping::MappingOptions scratch = options;
    scratch.incrementalAnalysis = false;
    const auto got = mapping::mapApplication(app, arch, options);
    const auto want = mapping::mapApplication(app, arch, scratch);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) {
      continue;
    }
    EXPECT_EQ(got->throughput.status, want->throughput.status);
    EXPECT_EQ(got->throughput.iterationsPerCycle, want->throughput.iterationsPerCycle);
    EXPECT_EQ(got->throughput.engine, want->throughput.engine);
    EXPECT_EQ(got->throughput.hsdfActors, want->throughput.hsdfActors);
    EXPECT_EQ(got->meetsConstraint, want->meetsConstraint);
    EXPECT_EQ(got->mapping.localCapacityTokens, want->mapping.localCapacityTokens);
    EXPECT_EQ(got->mapping.srcBufferTokens, want->mapping.srcBufferTokens);
    EXPECT_EQ(got->mapping.dstBufferTokens, want->mapping.dstBufferTokens);
    ASSERT_EQ(got->model.graph.graph.channelCount(), want->model.graph.graph.channelCount());
    for (sdf::ChannelId c = 0; c < got->model.graph.graph.channelCount(); ++c) {
      EXPECT_EQ(got->model.graph.graph.channel(c).initialTokens,
                want->model.graph.graph.channel(c).initialTokens);
    }
    EXPECT_FALSE(want->saturatedAtRound.has_value());
    if (got->saturatedAtRound) {
      EXPECT_FALSE(got->meetsConstraint);
      EXPECT_LE(*got->saturatedAtRound, options.bufferGrowthRounds);
      ++(*got->saturatedAtRound == 0 ? saturatedAtStart : saturatedLater);
    }
    if (got->meetsConstraint &&
        (got->mapping.localCapacityTokens != minimal->mapping.localCapacityTokens ||
         got->mapping.srcBufferTokens != minimal->mapping.srcBufferTokens)) {
      ++metAfterGrowth;
    }
  }
  // The seeds must cover every exit of the loop.
  EXPECT_GT(saturatedAtStart, 0u);
  EXPECT_GT(saturatedLater, 0u);
  EXPECT_GT(metAfterGrowth, 0u);
}

}  // namespace
}  // namespace mamps
