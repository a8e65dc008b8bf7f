// Measurement plumbing shared by the perfbench workloads: the clock,
// order statistics, a seeded generator owned by the benchmark (the
// library only ever sees the inputs it generates), the outcome record a
// workload hands back, and the in-memory span tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two clock readings.
[[nodiscard]] inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 for none.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The 50th percentile; 0 for no samples.
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Arithmetic mean; 0 for no samples.
[[nodiscard]] double mean(const std::vector<double>& samples);

/// part / whole, or 0 when whole is 0.
[[nodiscard]] inline double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// SplitMix64 stream. Every random input of a workload is drawn from a
/// stream derived from the run's seed, so one seed gives one input set.
class Rng {
 public:
  /// A stream for (seed, purpose): distinct purposes give independent
  /// streams from the same seed.
  Rng(std::uint64_t seed, std::uint64_t purpose)
      : state_(seed ^ (purpose * 0xd1b54a32d192ed03ULL)) {}

  /// Next raw 64-bit value.
  std::uint64_t next();
  /// Uniform index in [0, n); n must be positive.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Bernoulli draw with probability p.
  bool chance(double p) { return static_cast<double>(next() >> 11) * 0x1.0p-53 < p; }

 private:
  std::uint64_t state_;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The command line of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;  ///< where the traced run writes its spans
};

/// What a workload hands back: operation counts, the metrics of the run
/// and the first few check failures.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metrics under the benchmark's fixed names (untraced run).
  std::vector<Metric> endToEnd;
  /// The same run's numbers under the workload's own names.
  std::vector<Metric> detail;
  /// Per-layer metrics (traced run); names absent here report 0.
  std::vector<Metric> layers;
  std::vector<std::string> failures;

  /// Count one failed operation and keep its message (first 20 only).
  void fail(std::string message);
};

/// Run `step` `repeats` times and return the median wall time in
/// seconds; the last repetition's result is left in place by `step`.
template <typename Step>
[[nodiscard]] double medianSetupSeconds(int repeats, Step&& step) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    step();
    seconds.push_back(msBetween(start, Clock::now()) / 1e3);
  }
  return median(std::move(seconds));
}

/// Peak resident set of this process in MiB.
[[nodiscard]] double peakRssMb();

/// In-memory span recorder of the traced run. Spans nest by call
/// structure (the innermost open span is the parent of the next one)
/// and carry the id of the request (design point, churn event, pipeline
/// pass) they serve. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< "<layer>.<call>", a string literal
    double startMs = 0.0;   ///< since the tracer was created
    double endMs = 0.0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for roots
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void setEnabled(bool enabled) { enabled_ = enabled; }
  /// The request id attached to spans opened from now on.
  void setRequest(std::uint64_t request) { request_ = request; }

  /// Open a span; returns its index, or -1 when disabled.
  std::int32_t open(const char* name);
  /// Close the span `open` returned.
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: the durations and self times (duration minus the
  /// time covered by child spans) in ms.
  struct NameStats {
    std::vector<double> ms;
    std::vector<double> selfMs;
  };
  [[nodiscard]] std::map<std::string, NameStats> byName() const;
  /// Per layer (span-name prefix before the first '.'): total self time
  /// divided by the total duration of root spans.
  [[nodiscard]] std::map<std::string, double> selfShares() const;

  /// Write every span as JSON to `path` (no-op for an empty path).
  void write(const std::string& path, const RunConfig& config) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Span statistics keyed by span name (Tracer::byName()).
using SpanTable = std::map<std::string, Tracer::NameStats>;

/// Mean duration in ms of the spans called `name`; 0 when none.
[[nodiscard]] double spanMeanMs(const SpanTable& table, const std::string& name);
/// Number of spans called `name`.
[[nodiscard]] std::size_t spanCount(const SpanTable& table, const std::string& name);

/// Append the layer-independent trace metrics: each layer's self-time
/// share, the span count and the tracing overhead, i.e. the traced
/// wall time of the work over the untraced wall time of the same work,
/// minus one.
void addTraceSummary(Outcome& outcome, const Tracer& tracer, double untracedMs, double tracedMs);

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// The four workloads (one translation unit each).
[[nodiscard]] Outcome runDseMjpeg(const RunConfig& config);
[[nodiscard]] Outcome runChurnMesh12(const RunConfig& config);
[[nodiscard]] Outcome runFaultChurnHetero4(const RunConfig& config);
[[nodiscard]] Outcome runFlowMjpeg(const RunConfig& config);

}  // namespace perfbench
