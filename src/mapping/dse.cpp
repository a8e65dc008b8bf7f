#include "mapping/dse.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "analysis/mcm.hpp"
#include "platform/area.hpp"
#include "support/thread_annotations.hpp"

namespace mamps::mapping {

namespace {

using Clock = std::chrono::steady_clock;

/// First-error collector for a worker pool: keeps the earliest captured
/// exception, drops the rest. The slot is MAMPS_GUARDED_BY the
/// collector's mutex, so the clang -Wthread-safety CI leg proves no
/// worker path touches it outside the lock.
class ErrorCollector {
 public:
  /// Record the in-flight exception if no earlier one is held.
  void capture() MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    if (!first_) {
      first_ = std::current_exception();
    }
  }

  /// Rethrow the held exception, if any. Call after the pool joined.
  void rethrowIfSet() MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    if (first_) {
      std::rethrow_exception(first_);
    }
  }

 private:
  support::Mutex mu_;
  std::exception_ptr first_ MAMPS_GUARDED_BY(mu_);
};

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::string makeLabel(const DesignPoint& point) {
  if (!point.label.empty()) {
    return point.label;
  }
  std::string label = std::to_string(point.platform.tileCount);
  label += "t";
  // Call out hardware IP tiles ("3t+1ip") so heterogeneous and
  // homogeneous points with the same processor-tile count stay
  // distinguishable.
  if (!point.platform.hardwareIpTiles.empty()) {
    label += "+";
    label += std::to_string(point.platform.hardwareIpTiles.size());
    label += "ip";
  }
  label += "_";
  label += platform::interconnectKindName(point.platform.interconnect);
  if (!point.workloadApps.empty()) {
    label += "_wl";
    label += std::to_string(point.workloadApps.size());
  }
  return label;
}

/// Run one design point end to end. Everything this touches is either
/// point-local or immutable shared state except `warm`, which is owned
/// by exactly one worker (each worker passes its own handle), so points
/// are freely parallelizable.
DesignPointResult explorePoint(const std::vector<AppAnalysisCache>& caches,
                               const DesignPoint& point, analysis::SolverWarmStart& warm) {
  DesignPointResult result;
  result.label = makeLabel(point);
  const auto start = Clock::now();
  const platform::Architecture arch = platform::generateFromTemplate(point.platform);
  std::uint32_t fslLinks = 0;
  if (point.workloadApps.empty()) {
    MappingOptions options = point.options;
    options.solverWarmStart = &warm;
    result.mapping = mapApplication(caches[0], arch, options);
    if (result.mapping) {
      fslLinks = result.mapping->mapping.fslLinkCount();
    }
  } else {
    std::vector<AppAnalysisCache> workload;
    workload.reserve(point.workloadApps.size());
    for (const std::size_t i : point.workloadApps) {
      workload.push_back(caches[i]);
    }
    WorkloadOptions options = point.workloadOptions;
    options.options.solverWarmStart = &warm;
    for (MappingOptions& appOptions : options.appOptions) {
      appOptions.solverWarmStart = &warm;
    }
    result.workload = mapWorkload(workload, arch, options);
    for (const std::optional<MappingResult>& app : result.workload->apps) {
      if (app) {
        fslLinks += app->mapping.fslLinkCount();
      }
    }
  }
  result.platformSlices = platform::platformSlices(arch, fslLinks);
  result.seconds = seconds(Clock::now() - start);
  return result;
}

}  // namespace

std::size_t DseResult::feasibleCount() const {
  std::size_t n = 0;
  for (const DesignPointResult& p : points) {
    n += p.feasible() ? 1 : 0;
  }
  return n;
}

double DseResult::meanPointSeconds() const {
  if (points.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const DesignPointResult& p : points) {
    sum += p.seconds;
  }
  return sum / static_cast<double>(points.size());
}

DseResult exploreDesignSpace(const sdf::ApplicationModel& app,
                             const std::vector<DesignPoint>& points, const DseOptions& options) {
  return exploreDesignSpace(std::vector<const sdf::ApplicationModel*>{&app}, points, options);
}

DseResult exploreDesignSpace(const std::vector<const sdf::ApplicationModel*>& apps,
                             const std::vector<DesignPoint>& points, const DseOptions& options) {
  const auto sweepStart = Clock::now();
  if (apps.empty() && !points.empty()) {
    throw ModelError("exploreDesignSpace: no applications given");
  }
  for (const DesignPoint& point : points) {
    for (const std::size_t i : point.workloadApps) {
      if (i >= apps.size()) {
        throw ModelError("exploreDesignSpace: workload app index out of range");
      }
    }
  }
  std::vector<AppAnalysisCache> caches;
  caches.reserve(apps.size());
  for (const sdf::ApplicationModel* app : apps) {
    caches.push_back(prepareApplication(*app));
  }

  DseResult out;
  out.points.resize(points.size());

  // Deterministic by construction: worker i writes only out.points[i],
  // and every point's computation depends only on immutable inputs plus
  // its worker's private warm-start handle — which Howard's unique
  // fixpoint makes result-neutral — so the result is independent of
  // scheduling and thread count.
  std::atomic<std::size_t> next{0};
  ErrorCollector errors;
  const auto worker = [&] {
    analysis::SolverWarmStart warm;
    for (std::size_t i = next.fetch_add(1); i < points.size(); i = next.fetch_add(1)) {
      try {
        out.points[i] = explorePoint(caches, points[i], warm);
      } catch (...) {
        errors.capture();
      }
    }
  };

  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, points.size());
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
  }  // jthreads join here
  errors.rethrowIfSet();

  out.totalSeconds = seconds(Clock::now() - sweepStart);
  return out;
}

}  // namespace mamps::mapping
