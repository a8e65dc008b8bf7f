#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Outcome::fail(std::string message) {
  ++failed;
  if (failures.size() < 20) {
    failures.push_back(std::move(message));
  }
}

double peakRssMb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's resident set, which survives fork and execve.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "VmHWM:  <n> kB"
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  span.startMs = msBetween(origin_, Clock::now());
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].endMs = msBetween(origin_, Clock::now());
  // ScopedSpan closes in reverse opening order, so `index` is the top.
  stack_.pop_back();
}

namespace {

std::vector<double> childMs(const std::vector<Tracer::Span>& spans) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.endMs - span.startMs;
    }
  }
  return children;
}

std::string layerOf(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

}  // namespace

std::map<std::string, Tracer::NameStats> Tracer::byName() const {
  const std::vector<double> children = childMs(spans_);
  std::map<std::string, NameStats> stats;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = spans_[i].endMs - spans_[i].startMs;
    NameStats& entry = stats[spans_[i].name];
    entry.ms.push_back(ms);
    entry.selfMs.push_back(ms - children[i]);
  }
  return stats;
}

std::map<std::string, double> Tracer::selfShares() const {
  const std::vector<double> children = childMs(spans_);
  std::map<std::string, double> self;
  double roots = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms = spans_[i].endMs - spans_[i].startMs;
    self[layerOf(spans_[i].name)] += ms - children[i];
    roots += spans_[i].parent < 0 ? ms : 0.0;
  }
  for (auto& [layer, ms] : self) {
    ms = roots > 0.0 ? ms / roots : 0.0;
  }
  return self;
}

double spanMeanMs(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : mean(it->second.ms);
}

std::size_t spanCount(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  return it == table.end() ? 0 : it->second.ms.size();
}

void addTraceSummary(Outcome& outcome, const Tracer& tracer, double untracedMs, double tracedMs) {
  for (const auto& [layer, share] : tracer.selfShares()) {
    outcome.layers.push_back({"self_share." + layer, share, "ratio"});
  }
  outcome.layers.push_back({"trace.spans", static_cast<double>(tracer.spans().size()), "count"});
  outcome.layers.push_back(
      {"trace.overhead_ratio", untracedMs > 0.0 ? tracedMs / untracedMs - 1.0 : 0.0, "ratio"});
}

void Tracer::write(const std::string& path, const RunConfig& config) const {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << std::fixed << std::setprecision(4);
  out << "{\"workload\": \"" << config.workload << "\", \"seed\": " << config.seed
      << ", \"time_unit\": \"ms\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start\": " << s.startMs
        << ", \"end\": " << s.endMs << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
