// Parallel, incremental design-space exploration (the Section 7 use
// case): sweep a set of candidate platform instances, run the complete
// mapping step on each, and return every point's guaranteed-throughput
// verdict. Three mechanisms make sweeping hundreds of points fast:
//
//   1. *Incremental re-analysis* inside each point's buffer-growth loop
//      (analysis::IncrementalThroughput — cached HSDF expansion,
//      patched capacity tokens, warm-started Howard),
//   2. *reuse across points* of the application-level precomputation
//      (mapping::AppAnalysisCache — consistency, repetition vector,
//      deadlock check, WCET tables), and
//   3. a *parallel sweep* over a worker pool with no shared mutable
//      state per point.
//
// Determinism contract: exploreDesignSpace returns results in input
// order and every field of every result is identical for any thread
// count, including 1 (pinned by tests/dse_test.cpp). Workers share only
// immutable state (the application model and its cache); each design
// point owns its architecture, mapping, and analysis context outright.
// Each worker threads one analysis::SolverWarmStart through the points
// it processes, so a point's Howard solves seed from the previous
// point's converged policy (points run in input order, which generated
// sweeps lay out so neighbors differ in one knob). That is result-
// neutral: Howard converges to the unique maximum cycle ratio from any
// initial policy (see docs/throughput.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mapping/flow.hpp"
#include "mapping/workload.hpp"
#include "platform/arch_template.hpp"

namespace mamps::mapping {

/// One candidate platform instance plus the mapping knobs to try on it.
struct DesignPoint {
  /// The architecture template to instantiate for this point.
  platform::TemplateRequest platform{};
  /// Mapping knobs (serialization mode, buffer policy, ...) for
  /// single-application points; ignored when `workloadApps` is set.
  MappingOptions options{};
  /// Multi-application point: indices into the `apps` vector of the
  /// workload overload of exploreDesignSpace, co-mapped onto this
  /// platform via mapWorkload. Empty = single-application point
  /// (the sweep's application, mapped with `options`).
  std::vector<std::size_t> workloadApps{};
  /// Workload knobs (per-app options, priorities) for multi-application
  /// points; `workloadOptions.appOptions`, when used, is indexed like
  /// `workloadApps`.
  WorkloadOptions workloadOptions{};
  /// Display label; auto-generated ("<n>t_<interconnect>", with a
  /// "_wl<k>" suffix for k-application workload points) when empty.
  std::string label;
};

/// Outcome of one design point.
struct DesignPointResult {
  /// The (possibly auto-generated) label of the point.
  std::string label;
  /// Single-application points: the mapping and its throughput
  /// guarantee; nullopt when no feasible binding exists or the
  /// application deadlocks (always nullopt for workload points).
  std::optional<MappingResult> mapping;
  /// Workload points: the co-mapping outcome (nullopt for
  /// single-application points).
  std::optional<WorkloadResult> workload;
  /// FPGA area of this point's platform in Virtex-6 slices
  /// (platform::platformSlices with the mapping's live FSL links), so a
  /// sweep reports the throughput × area trade-off directly. Filled for
  /// every point, including infeasible ones (with zero live links).
  std::uint32_t platformSlices = 0;
  /// Wall time spent mapping and analyzing this point, in seconds.
  double seconds = 0.0;

  /// True when the point produced a mapping (for workload points: every
  /// application of the workload mapped).
  /// @return mapping.has_value(), or WorkloadResult::feasible()
  [[nodiscard]] bool feasible() const {
    return mapping.has_value() || (workload.has_value() && workload->feasible());
  }
};

/// Tuning knobs for exploreDesignSpace().
struct DseOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Result of a sweep.
struct DseResult {
  /// One entry per input point, in input order.
  std::vector<DesignPointResult> points;
  /// Wall time of the whole sweep, in seconds.
  double totalSeconds = 0.0;

  /// Number of points that produced a mapping.
  /// @return the count of feasible points
  [[nodiscard]] std::size_t feasibleCount() const;
  /// Mean per-point latency: the average of the points' individual
  /// wall times (unlike totalSeconds / size, this is independent of
  /// how many workers ran the sweep).
  /// @return the mean of DesignPointResult::seconds, or 0 for empty
  ///   sweeps
  [[nodiscard]] double meanPointSeconds() const;
};

/// Run the complete mapping step on every design point. See the header
/// comment for the performance mechanisms and the determinism contract.
/// @param app the application to map (must outlive the call)
/// @param points the platform instances and mapping knobs to sweep;
///   `workloadApps` entries may only reference index 0 in this overload
/// @param options worker-pool and caching knobs
/// @return per-point results in input order plus sweep-level timing
[[nodiscard]] DseResult exploreDesignSpace(const sdf::ApplicationModel& app,
                                           const std::vector<DesignPoint>& points,
                                           const DseOptions& options = {});

/// Multi-application sweep: like the overload above, but points may
/// co-map any subset of `apps` (DesignPoint::workloadApps) onto their
/// platform through mapWorkload. Application-level precomputation is
/// shared per application across all points (one AppAnalysisCache
/// each), and the same parallelism and determinism contracts hold:
/// results in input order, bit-identical for any thread count.
/// @param apps the applications referenced by the points (non-null,
///   must outlive the call)
/// @param points the platform instances and workloads to sweep
/// @param options worker-pool and caching knobs
/// @return per-point results in input order plus sweep-level timing
/// @throws ModelError when a point references an app index out of range
[[nodiscard]] DseResult exploreDesignSpace(const std::vector<const sdf::ApplicationModel*>& apps,
                                           const std::vector<DesignPoint>& points,
                                           const DseOptions& options = {});

}  // namespace mamps::mapping
