// Flat, arena-backed HSDF expansion for the MCR fast path.
//
// The throughput fast path used to materialize the HSDF expansion as a
// full sdf::Graph — tens of thousands of uniquely named actors and
// channels per analysis, rebuilt from strings for every design point.
// FlatExpansion produces the same expansion as contiguous index-based
// CycleRatioEdge tables instead: no graph object, no names, no
// per-element allocation. The layout mirrors sdf::toHsdf plus the
// static-order encoding of toHsdfWithStaticOrder exactly (both use the
// shared token rule sdf::hsdfTokenDependency, so the encodings cannot
// drift), and the solved maximum cycle ratio is bit-identical to the
// graph-materializing path (pinned by tests/perf_test.cpp).
//
// The table is split into an immutable prefix and mutable slabs:
// topology, rates, execution times, self-concurrency edges, and
// static-order chains are fixed for the lifetime of the expansion and
// encoded once in build(); every SDF channel owns a contiguous slab of
// token edges whose endpoints and delays depend on the channel's
// initial-token count, re-encoded in O(slab) by patchChannel() when a
// capacity changes. Both computeThroughputMcr() (build once, solve
// once) and IncrementalThroughput (build once, patch and re-solve per
// buffer-growth round) run on this structure.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/mcm.hpp"
#include "analysis/throughput.hpp"
#include "sdf/graph.hpp"

namespace mamps::analysis {

/// The HSDF expansion of a timed SDF graph as flat CycleRatioEdge
/// tables, with per-channel slabs that can be re-encoded in place when
/// initial-token counts change. See the header comment for the layout
/// contract.
class FlatExpansion {
 public:
  /// Encode the expansion of `timed` (channel token slabs, then
  /// self-concurrency edges, then static-order chains). Static orders,
  /// when given, must be exact (every bound actor appears exactly q[a]
  /// times on its own resource), which is what mcrFastPathApplicable()
  /// checks.
  /// @param timed the SDF graph with one execution time per actor
  /// @param resources optional binding and static orders (may be null)
  /// @param q the repetition vector of `timed.graph`, as
  ///   sdf::computeRepetitionVector returns it for a consistent graph
  /// @throws AnalysisError when `q` does not match the actor count or a
  ///   static order is not exact
  void build(const sdf::TimedGraph& timed, const ResourceConstraints* resources,
             const std::vector<std::uint64_t>& q);

  /// Re-encode one channel's token slab after its initial-token count
  /// changed in `timed`. O(q[dst] * consRate) of the channel.
  /// @param timed the graph holding the channel's current token count
  ///   (must be the graph build() ran on, with only token counts changed)
  /// @param channel the changed channel
  void patchChannel(const sdf::TimedGraph& timed, sdf::ChannelId channel);

  /// Collapse parallel edges to the minimum-delay representative (all
  /// parallel edges share the source, hence the weight) into a reusable
  /// internal table — exactly the reduction the string-graph MCR path
  /// applies before Howard runs. The returned reference stays valid
  /// until the next collapse()/build() call.
  /// @param excluded channels whose token slabs are left out, giving
  ///   the expansion of the graph with those channels removed (same
  ///   firing copies, self-concurrency edges and static-order chains);
  ///   IncrementalThroughput::infiniteBufferBound uses this. Channel ids
  ///   of the graph build() ran on, in any order, duplicates allowed.
  /// @return the collapsed edge table, ready for CycleRatioSolver
  /// @throws AnalysisError when an excluded channel is out of range
  [[nodiscard]] const std::vector<CycleRatioEdge>& collapse(
      std::span<const sdf::ChannelId> excluded = {});

  /// Total firing copies of the expansion (the HSDF actor count).
  /// @return sum over actors of the repetition count
  [[nodiscard]] std::uint64_t hsdfActors() const { return hsdfActors_; }

 private:
  std::vector<std::uint64_t> q_;          ///< repetition vector
  std::vector<std::uint32_t> copyStart_;  ///< actor -> first firing copy
  std::uint64_t hsdfActors_ = 0;          ///< total firing copies
  std::vector<CycleRatioEdge> edges_;     ///< [channel slabs][self-conc][static order]
  /// channel -> offset into edges_; one extra entry marks the end of
  /// the last slab (the start of the fixed self-concurrency edges)
  std::vector<std::size_t> slabOffset_;
  std::vector<CycleRatioEdge> collapsed_;  ///< scratch: min-delay per pair
  /// Edge ranges [first, second) of edges_ that collapse() reads.
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  std::vector<char> excluded_;  ///< channel -> slab left out of collapse()
  // Collapse scratch: counting-sort buckets by source plus an
  // epoch-stamped slot table per target — O(E + V) with no hashing.
  std::vector<std::uint32_t> srcOff_;      ///< V+1 bucket offsets by edge source
  std::vector<std::uint32_t> srcIdx_;      ///< edge ids grouped by source
  std::vector<std::uint32_t> seenEpoch_;   ///< target -> last source epoch
  std::vector<std::uint32_t> seenSlot_;    ///< target -> collapsed_ index
};

/// Collapse `flat`, solve its maximum cycle ratio on `solver` (warm
/// started from, and leaving behind, the solver's policy), and report
/// it as a throughput verdict: Ok with 1/MCR, Deadlock for a token-free
/// cycle or an empty expansion, Unbounded when no cycle constrains the
/// period or every cycle has zero execution time. The one mapping from
/// CycleRatioResult to ThroughputResult, shared by
/// computeThroughputMcr() and IncrementalThroughput.
/// @param flat a built expansion
/// @param solver the solver to run (its warm-start hints are used and
///   updated)
/// @param excluded channels whose token slabs are left out (see
///   FlatExpansion::collapse)
/// @return the verdict with `engine == ThroughputEngine::Mcr`,
///   `hsdfActors`, and the collapse/solve time in
///   expansionNanos/solveNanos
/// @throws AnalysisError when an excluded channel is out of range
[[nodiscard]] ThroughputResult flatThroughput(FlatExpansion& flat, CycleRatioSolver& solver,
                                              std::span<const sdf::ChannelId> excluded = {});

/// One cold MCR analysis: build the flat expansion of `timed` from its
/// repetition vector and solve it once on a fresh solver. The body of
/// computeThroughputMcr() for callers that already hold `q`.
/// @param timed the SDF graph with one execution time per actor
/// @param resources optional binding and static orders (may be null)
/// @param q the repetition vector of `timed.graph`
/// @return the flatThroughput() verdict, with the build time added to
///   expansionNanos
/// @throws AnalysisError as FlatExpansion::build
[[nodiscard]] ThroughputResult expandAndSolve(const sdf::TimedGraph& timed,
                                              const ResourceConstraints* resources,
                                              const std::vector<std::uint64_t>& q);

}  // namespace mamps::analysis
