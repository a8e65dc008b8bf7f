#include "analysis/incremental.hpp"

#include "support/timer.hpp"

namespace mamps::analysis {

using sdf::ChannelId;

IncrementalThroughput::IncrementalThroughput(const sdf::TimedGraph& timed,
                                             const ResourceConstraints* resources,
                                             const ThroughputOptions& options)
    // Whole-struct copy of the TimedGraph: every per-actor annotation
    // (execTime, maxConcurrent, future fields) is retained — see
    // TimedGraph::rebuildFrom for the field-by-field-rebuild hazard.
    : timed_(timed), options_(options) {
  if (timed_.execTime.size() != timed_.graph.actorCount()) {
    throw AnalysisError("IncrementalThroughput: execTime size does not match actor count");
  }
  if (resources != nullptr) {
    resources->validateFor(timed_.graph);
    resources_ = *resources;
  }
  const ResourceConstraints* res = resources_ ? &*resources_ : nullptr;
  fastPath_ = options_.engine != ThroughputEngine::StateSpace &&
              mcrFastPathApplicable(timed_, res, options_);
  if (fastPath_) {
    // The immutable prefix (topology, repetition vector, self-
    // concurrency edges, static-order chains) is encoded once here;
    // setInitialTokens only re-encodes the touched channel's slab.
    flat_.build(timed_, res);
    solver_.setThreads(options_.solverThreads);
  }
}

void IncrementalThroughput::setInitialTokens(ChannelId channel, std::uint64_t tokens) {
  if (channel >= timed_.graph.channelCount()) {
    throw AnalysisError("IncrementalThroughput::setInitialTokens: channel out of range");
  }
  if (timed_.graph.channel(channel).initialTokens == tokens) {
    return;
  }
  timed_.graph.setInitialTokens(channel, tokens);
  if (fastPath_) {
    flat_.patchChannel(timed_, channel);
  }
}

ThroughputResult IncrementalThroughput::compute() {
  if (!fastPath_) {
    return resources_ ? computeThroughput(timed_, *resources_, options_)
                      : computeThroughput(timed_, options_);
  }
  return solveFlat({});
}

std::optional<ThroughputResult> IncrementalThroughput::infiniteBufferBound(
    std::span<const ChannelId> unbounded) {
  if (!fastPath_) {
    return std::nullopt;
  }
  // The masked table differs from the last compute()'s only by the
  // left-out slabs, so its policy is a good seed; keep that policy for
  // the next compute() on the full table.
  SolverWarmStart policy;
  solver_.exportWarmStart(policy);
  ThroughputResult bound = solveFlat(unbounded);
  solver_.adoptWarmStart(policy);
  return bound;
}

ThroughputResult IncrementalThroughput::solveFlat(std::span<const ChannelId> excluded) {
  ThroughputResult result;
  result.engine = ThroughputEngine::Mcr;
  result.hsdfActors = flat_.hsdfActors();
  if (flat_.hsdfActors() == 0) {
    result.status = ThroughputResult::Status::Deadlock;
    return result;
  }

  const std::vector<CycleRatioEdge>* edges = nullptr;
  {
    support::ScopedTimer timer(result.expansionNanos);
    edges = &flat_.collapse(excluded);
  }
  CycleRatioResult mcr;
  {
    support::ScopedTimer timer(result.solveNanos);
    mcr = solver_.solve(static_cast<std::size_t>(flat_.hsdfActors()), *edges);
  }
  switch (mcr.status) {
    case CycleRatioResult::Status::Ok:
      if (mcr.ratio.isZero()) {
        result.status = ThroughputResult::Status::Unbounded;
      } else {
        result.status = ThroughputResult::Status::Ok;
        result.iterationsPerCycle = mcr.ratio.reciprocal();
      }
      return result;
    case CycleRatioResult::Status::Deadlock:
      result.status = ThroughputResult::Status::Deadlock;
      result.iterationsPerCycle = Rational(0);
      return result;
    case CycleRatioResult::Status::Acyclic:
      result.status = ThroughputResult::Status::Unbounded;
      return result;
  }
  result.status = ThroughputResult::Status::Unbounded;
  return result;
}

}  // namespace mamps::analysis
