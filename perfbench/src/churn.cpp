// churn_mesh12 and fault_churn_hetero4: online admission control under
// seeded churn, driven by the benchmark's own closed event loop (one
// caller; each event waits for its decision).
//
// The event mix mirrors suite::runChurnTrace: a departure of a random
// resident with probability 0.45 when residents exist, otherwise the
// arrival of a random suite application; with faults enabled a random
// outstanding tile failure is repaired first with probability
// repairChance, and a random healthy tile fails with probability
// faultChance (one tile always stays healthy). Every round starts a
// fresh controller, plays an event stream drawn from (seed, round),
// repairs what is still failed and drains, so every round sees the same
// mix of cold mappings and plan-cache replays; a run covers many streams,
// because the plan-cache hit ratio of one stream varies widely from
// stream to stream. The loop times each admit, depart, injectFault and
// repair call itself.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "apps/suite/churn.hpp"
#include "harness.hpp"
#include "mapping/admission.hpp"
#include "platform/arch_template.hpp"

namespace perfbench {

namespace {

using namespace mamps;

constexpr int kSetupRepeats = 15;
constexpr double kDepartChance = 0.45;

struct ChurnSpec {
  platform::TemplateRequest platform;
  std::size_t eventsPerRound = 0;
  double faultChance = 0.0;
  double repairChance = 0.0;
};

/// Timings and counts of one round.
struct RoundStats {
  std::size_t events = 0;
  double callMs = 0.0;  ///< summed duration of every timed call
  std::vector<double> admitMs, hitMs, missMs, rejectMs, departMs, repairMs, recoveryMs;
  std::size_t arrivals = 0, admitted = 0, hits = 0;
  std::size_t stranded = 0, recovered = 0;
  std::size_t planCacheEntries = 0;
  /// One entry per decision (admitted, replayed, recovered counts), for
  /// comparing two plays of one stream.
  std::vector<std::size_t> outcomes;

  void append(const RoundStats& r) {
    events += r.events;
    callMs += r.callMs;
    for (auto [to, from] : {std::pair{&admitMs, &r.admitMs}, {&hitMs, &r.hitMs},
                            {&missMs, &r.missMs}, {&rejectMs, &r.rejectMs},
                            {&departMs, &r.departMs}, {&repairMs, &r.repairMs},
                            {&recoveryMs, &r.recoveryMs}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    arrivals += r.arrivals;
    admitted += r.admitted;
    hits += r.hits;
    stranded += r.stranded;
    recovered += r.recovered;
    planCacheEntries += r.planCacheEntries;
  }
};

/// After a fault: nothing stranded, no resident on a failed tile, and
/// every resident still meets its constraint.
bool recoveryIsClean(const mapping::AdmissionController& controller, std::string& why) {
  const platform::ResourceBudget& budget = controller.budget();
  if (!budget.strandedClients().empty()) {
    why = "stranded clients remain";
    return false;
  }
  for (const mapping::ClientId client : controller.residentIds()) {
    const platform::ClientLedger* ledger = budget.ledger(client);
    if (ledger == nullptr) {
      why = "resident " + std::to_string(client) + " has no ledger";
      return false;
    }
    for (const auto& [tile, share] : ledger->tiles) {
      if (budget.tileFailed(tile)) {
        why = "resident " + std::to_string(client) + " still uses failed tile " +
              std::to_string(tile);
        return false;
      }
    }
    if (!controller.resident(client).meetsConstraint) {
      why = "resident " + std::to_string(client) + " misses its constraint";
      return false;
    }
  }
  return true;
}

/// Play the event stream of (seed, round) on a fresh controller.
RoundStats playRound(const platform::Architecture& arch, const suite::ChurnWorkload& workload,
                     const ChurnSpec& spec, std::uint64_t seed, std::uint64_t round,
                     Tracer& tracer, std::uint64_t& request, Outcome& out) {
  RoundStats stats;
  mapping::AdmissionController controller(arch);
  Rng rng(seed, 100 + round);
  std::vector<mapping::ClientId> residents;
  std::vector<platform::TileId> failed;
  const std::size_t tileCount = arch.tileCount();
  const bool faults = spec.faultChance > 0.0;

  const auto timed = [&](const char* span, auto&& call) {
    tracer.setRequest(++request);
    ++stats.events;
    ++out.attempted;
    const auto start = Clock::now();
    {
      ScopedSpan s(tracer, span);
      call();
    }
    const double ms = msBetween(start, Clock::now());
    stats.callMs += ms;
    return ms;
  };
  const auto departAt = [&](std::size_t pick) {
    const mapping::ClientId client = residents[pick];
    stats.departMs.push_back(
        timed("mapping.admission.depart", [&] { controller.depart(client); }));
    residents.erase(residents.begin() + static_cast<std::ptrdiff_t>(pick));
  };
  const auto repairAt = [&](std::size_t pick) {
    const platform::TileId tile = failed[pick];
    stats.repairMs.push_back(timed("mapping.admission.repair", [&] {
      controller.repair(mapping::FaultEvent::tileFailure(tile));
    }));
    failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  for (std::size_t i = 0; i < spec.eventsPerRound; ++i) {
    if (faults) {
      if (!failed.empty() && rng.chance(spec.repairChance)) {
        repairAt(rng.below(failed.size()));
        continue;
      }
      if (failed.size() + 1 < tileCount && rng.chance(spec.faultChance)) {
        std::vector<platform::TileId> healthy;
        for (platform::TileId t = 0; t < tileCount; ++t) {
          if (!controller.budget().tileFailed(t)) {
            healthy.push_back(t);
          }
        }
        const platform::TileId tile = healthy[rng.below(healthy.size())];
        mapping::RecoveryReport report;
        const double ms = timed("mapping.admission.inject_fault", [&] {
          report = controller.injectFault(mapping::FaultEvent::tileFailure(tile));
        });
        failed.push_back(tile);
        if (!report.stranded.empty()) {
          stats.recoveryMs.push_back(ms);
        }
        stats.stranded += report.stranded.size();
        stats.recovered += report.recovered.size();
        stats.outcomes.push_back(100 + report.stranded.size());
        stats.outcomes.push_back(100 + report.recovered.size());
        for (const mapping::ClientId lost : report.degraded) {
          residents.erase(std::remove(residents.begin(), residents.end(), lost), residents.end());
        }
        std::string why;
        if (!recoveryIsClean(controller, why)) {
          out.fail("fault on tile " + std::to_string(tile) + ": " + why);
        }
        continue;
      }
    }
    if (!residents.empty() && rng.chance(kDepartChance)) {
      departAt(rng.below(residents.size()));
      continue;
    }
    const std::size_t app = rng.below(workload.caches.size());
    mapping::AdmissionDecision decision;
    const double ms = timed("mapping.admission.admit", [&] {
      decision = controller.admit(workload.caches[app], workload.options[app]);
    });
    ++stats.arrivals;
    stats.admitMs.push_back(ms);
    (decision.planCacheHit ? stats.hitMs : stats.missMs).push_back(ms);
    stats.hits += decision.planCacheHit ? 1 : 0;
    stats.outcomes.push_back((decision.admitted() ? 2 : 0) + (decision.planCacheHit ? 1 : 0));
    if (decision.admitted()) {
      ++stats.admitted;
      residents.push_back(*decision.client);
      if (!decision.result || !decision.result->meetsConstraint) {
        out.fail("admitted " + workload.names[app] + " without a met constraint");
      }
    } else {
      stats.rejectMs.push_back(ms);
    }
  }
  stats.planCacheEntries = controller.planCacheSize();

  // Repair every outstanding failure, drain, and demand pristine.
  while (!failed.empty()) {
    repairAt(failed.size() - 1);
  }
  while (!residents.empty()) {
    departAt(residents.size() - 1);
  }
  if (!controller.pristine()) {
    out.fail("churn: the drained budget is not pristine");
  }
  return stats;
}

Outcome runChurn(const RunConfig& config, const ChurnSpec& spec) {
  Outcome out;
  Tracer tracer(config.trace);

  std::optional<suite::ChurnWorkload> workload;
  std::optional<platform::Architecture> arch;
  const double setupS = medianSetupSeconds(kSetupRepeats, [&] {
    workload.emplace(suite::suiteChurnWorkload());
    arch.emplace(platform::generateFromTemplate(spec.platform));
    const mapping::AdmissionController controller(*arch);
  });
  if (config.trace) {
    for (const sdf::ApplicationModel& model : workload->models) {
      ScopedSpan span(tracer, "mapping.prepare");
      (void)mapping::prepareApplication(model);
    }
  }

  RoundStats total;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  std::uint64_t request = 0;
  std::uint64_t rounds = 0;
  const auto runStart = Clock::now();
  while (rounds == 0 ||
         (config.trace ? msBetween(runStart, Clock::now()) : total.callMs) < config.seconds * 1e3) {
    std::optional<RoundStats> untraced;
    if (config.trace) {
      // The same stream untraced, then traced: the difference is the
      // tracing overhead, and the replay must reach the same decisions.
      tracer.setEnabled(false);
      const auto plain = Clock::now();
      untraced = playRound(*arch, *workload, spec, config.seed, rounds, tracer, request, out);
      untracedMs += msBetween(plain, Clock::now());
      tracer.setEnabled(true);
    }
    const auto start = Clock::now();
    const RoundStats round =
        playRound(*arch, *workload, spec, config.seed, rounds, tracer, request, out);
    tracedMs += msBetween(start, Clock::now());
    if (untraced && untraced->outcomes != round.outcomes) {
      out.fail("churn: a replay of the event stream reached different decisions");
    }
    total.append(round);
    ++rounds;
  }

  const double eventsPerS = static_cast<double>(total.events) / (total.callMs / 1e3);
  const double admitP90 = percentile(total.admitMs, 0.9);
  const double admitRatio = ratio(total.admitted, total.arrivals);
  out.endToEnd = {{"setup_s", setupS, "s"},
                  {"ops_per_s", eventsPerS, "1/s"},
                  {"latency_ms", admitP90, "ms"},
                  {"outcome_ratio", admitRatio, "ratio"}};
  out.detail = {{"admit_ms_p50", percentile(total.admitMs, 0.5), "ms"},
                {"admit_ms_p90", admitP90, "ms"},
                {"admit_ms_p99", percentile(total.admitMs, 0.99), "ms"},
                {"events_per_s", eventsPerS, "1/s"},
                {"admit_ratio", admitRatio, "ratio"},
                {"plan_cache_hit_ratio", ratio(total.hits, total.arrivals), "ratio"},
                {"admits", static_cast<double>(total.admitMs.size()), "count"},
                {"rounds", static_cast<double>(rounds), "count"}};
  if (spec.faultChance > 0.0) {
    out.detail.push_back({"recovery_ms_p50", percentile(total.recoveryMs, 0.5), "ms"});
    out.detail.push_back({"recovery_ms_p90", percentile(total.recoveryMs, 0.9), "ms"});
    out.detail.push_back({"survival_ratio", ratio(total.recovered, total.stranded), "ratio"});
    out.detail.push_back(
        {"stranding_faults", static_cast<double>(total.recoveryMs.size()), "count"});
  }

  if (config.trace) {
    const SpanTable spans = tracer.byName();
    const double perRound = 1.0 / static_cast<double>(rounds);
    out.layers = {
        {"mapping.admission.hit_ratio", ratio(total.hits, total.arrivals), "ratio"},
        {"mapping.admission.hit_ms_p50", percentile(total.hitMs, 0.5), "ms"},
        {"mapping.admission.miss_ms_p50", percentile(total.missMs, 0.5), "ms"},
        {"mapping.admission.miss_ms_p99", percentile(total.missMs, 0.99), "ms"},
        {"mapping.admission.reject_ms_p50", percentile(total.rejectMs, 0.5), "ms"},
        {"mapping.admission.depart_ms_p50", percentile(total.departMs, 0.5), "ms"},
        {"mapping.admission.depart_ms_p99", percentile(total.departMs, 0.99), "ms"},
        {"mapping.admission.plan_cache_entries",
         static_cast<double>(total.planCacheEntries) * perRound, "count"},
        {"mapping.admission.evacuated", static_cast<double>(total.stranded) * perRound, "count"},
        {"mapping.admission.recovered", static_cast<double>(total.recovered) * perRound,
         "count"},
        {"mapping.admission.repair_ms_p50", percentile(total.repairMs, 0.5), "ms"},
        {"mapping.prepare_ms", spanMeanMs(spans, "mapping.prepare"), "ms"},
    };
    addTraceSummary(out, tracer, untracedMs, tracedMs);
    tracer.write(config.traceOut, config);
  }
  return out;
}

}  // namespace

Outcome runChurnMesh12(const RunConfig& config) {
  ChurnSpec spec;
  spec.platform = platform::largeMeshPreset(12);
  spec.eventsPerRound = 1000;
  return runChurn(config, spec);
}

Outcome runFaultChurnHetero4(const RunConfig& config) {
  ChurnSpec spec;
  spec.platform = platform::heterogeneousPreset(4, {"accel"});
  spec.eventsPerRound = 600;
  spec.faultChance = 0.03;
  spec.repairChance = 0.25;
  return runChurn(config, spec);
}

}  // namespace perfbench
