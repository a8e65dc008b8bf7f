// The SDF3 mapping step of the design flow (Section 5.1): binding,
// routing, buffer distribution, static-order scheduling, and the
// guaranteed-throughput analysis of the resulting binding-aware graph.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapping/binding.hpp"
#include "mapping/binding_aware.hpp"
#include "mapping/mapping.hpp"

namespace mamps::mapping {

/// Architecture-independent precomputation of one application, shared
/// read-only across the design points of a sweep so that consistency,
/// deadlock, repetition-vector, and WCET lookups run once per
/// application instead of once per design point. Holds a pointer to the
/// application model: the model must outlive the cache (and must not be
/// mutated while the cache is in use — all members are immutable after
/// construction, making the cache safe to share across sweep workers).
struct AppAnalysisCache {
  const sdf::ApplicationModel* app = nullptr;
  bool consistent = false;    ///< balance equations solvable
  bool deadlockFree = false;  ///< one iteration completes (unbounded buffers)
  std::vector<std::uint64_t> repetition;  ///< q (empty when inconsistent)
  /// processor type -> per-actor WCET in cycles; kNoWcet marks actors
  /// without an implementation for that type.
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> wcetByType;
  static constexpr std::uint64_t kNoWcet = ~std::uint64_t{0};
};

/// Validate `app` once and precompute everything mapApplication needs
/// that does not depend on the architecture.
[[nodiscard]] AppAnalysisCache prepareApplication(const sdf::ApplicationModel& app);

struct MappingResult {
  Mapping mapping;
  BindingAwareModel model;            ///< built with WCETs
  analysis::ThroughputResult throughput;  ///< the conservative guarantee
  bool meetsConstraint = false;
  /// The buffer-growth round from which the throughput equaled the
  /// infinite-buffer bound (IncrementalThroughput::infiniteBufferBound
  /// over the capacity channels): buffers were not what kept this point
  /// from its constraint, and growing them further could not change the
  /// result, so later rounds grow the buffers without re-solving. Set
  /// only for points that miss their constraint with a growth budget on
  /// the MCR fast path; empty when growth could still raise the rate
  /// (buffers were the limit), when the constraint was met, when
  /// `bufferGrowthRounds` is 0, and always for the from-scratch
  /// reference loop (MappingOptions::incrementalAnalysis off), which
  /// re-solves every round and computes no bound.
  std::optional<std::uint32_t> saturatedAtRound;
  /// Per-tile load and memory accounting, produced by the shared
  /// platform::ResourceBudget: the committed reservations (runtime-layer
  /// baseline plus every application admitted so far, this one included)
  /// as of this application's admission, with this application's actors
  /// listed per tile. For a single application this is simply its own
  /// usage on top of the runtime layer.
  std::vector<TileUsage> usage;
};

/// Run the complete mapping step — the one-application special case of
/// mapping::mapWorkload (mapping/workload.hpp); both share a single
/// code path. Returns nullopt when no feasible binding exists or the
/// application deadlocks; otherwise the best mapping found
/// (meetsConstraint reports whether the application's throughput
/// constraint is satisfied).
[[nodiscard]] std::optional<MappingResult> mapApplication(const sdf::ApplicationModel& app,
                                                          const platform::Architecture& arch,
                                                          const MappingOptions& options = {});

/// Cached variant for sweeps: identical results to the overload above
/// (which simply prepares a fresh cache), but the application-level
/// precomputation is taken from `cache`.
[[nodiscard]] std::optional<MappingResult> mapApplication(const AppAnalysisCache& cache,
                                                          const platform::Architecture& arch,
                                                          const MappingOptions& options = {});

/// Re-analyze an existing mapping with different actor execution times
/// (e.g. measured instead of worst-case) and/or a different
/// serialization mode. Used for the "expected" curves of Figure 6 and
/// the communication-assist experiment of Section 6.3.
[[nodiscard]] analysis::ThroughputResult analyzeMapping(
    const sdf::ApplicationModel& app, const platform::Architecture& arch, const Mapping& mapping,
    const std::vector<std::uint64_t>& actorExecTimes);

}  // namespace mamps::mapping
