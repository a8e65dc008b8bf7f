#include "analysis/mcm.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "analysis/flat_hsdf.hpp"
#include "sdf/hsdf.hpp"
#include "sdf/repetition_vector.hpp"

namespace mamps::analysis {
namespace {

using sdf::ActorId;
using sdf::ChannelId;
using sdf::Graph;

using Edge = CycleRatioEdge;
using Wide = __int128;

constexpr std::uint32_t kNoNode = 0xffffffffu;
constexpr std::uint32_t kNoEdge = 0xffffffffu;

void requireHsdf(const sdf::TimedGraph& hsdf) {
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    if (c.prodRate != 1 || c.consRate != 1) {
      throw AnalysisError("cycle-ratio analysis requires an HSDF graph (all rates 1)");
    }
  }
  if (hsdf.execTime.size() != hsdf.graph.actorCount()) {
    throw AnalysisError("cycle-ratio analysis: execTime size mismatch");
  }
}

std::vector<Edge> buildEdges(const sdf::TimedGraph& hsdf) {
  // Parallel edges between the same pair carry the same weight (the
  // source's execution time); only the one with the fewest tokens can
  // attain the maximum ratio, so collapse them. The HSDF expansion of a
  // multi-rate channel produces one parallel edge per token, making this
  // a large reduction on expanded graphs.
  std::vector<Edge> edges;
  edges.reserve(hsdf.graph.channelCount());
  // lint:allow(unordered-deterministic) -- never iterated: try_emplace lookups only, and min() over parallel delays is order-independent
  std::unordered_map<std::uint64_t, std::size_t> byPair;
  byPair.reserve(hsdf.graph.channelCount());
  for (const sdf::Channel& c : hsdf.graph.channels()) {
    const std::uint64_t key = (std::uint64_t{c.src} << 32) | c.dst;
    const auto [it, inserted] = byPair.try_emplace(key, edges.size());
    if (!inserted) {
      Edge& existing = edges[it->second];
      existing.delay = std::min(existing.delay, static_cast<std::int64_t>(c.initialTokens));
      continue;
    }
    Edge e;
    e.from = c.src;
    e.to = c.dst;
    e.weight = static_cast<std::int64_t>(hsdf.execTime[c.src]);
    e.delay = static_cast<std::int64_t>(c.initialTokens);
    edges.push_back(e);
  }
  return edges;
}

/// Outcome of one per-component Howard solve.
struct ComponentOutcome {
  enum class Kind {
    NoCycle,   ///< the component contains no cycle (singleton, no self-loop)
    Deadlock,  ///< a zero-delay cycle (defensive; screened out earlier)
    Ratio,     ///< maximum cycle ratio num/den computed
  };
  Kind kind = Kind::NoCycle;
  std::int64_t num = 0;  ///< cycle weight sum of the maximum-ratio cycle
  std::int64_t den = 1;  ///< cycle delay sum (> 0)
};

/// Reusable arenas of one Howard instance, kept in the solver's Scratch
/// and shared by its component solves, so repeated solves allocate
/// nothing once the capacities have grown — the vector-of-vectors
/// adjacency this replaces cost one allocation per node per solve and
/// dominated DSE sweep profiles.
struct HowardScratch {
  std::vector<Edge> local;                   // component edges, local ids
  std::vector<std::uint32_t> hint;           // local warm-start hints
  std::vector<std::uint32_t> outOff;         // m+1 CSR offsets
  std::vector<std::uint32_t> outIdx;         // edge ids, ascending per node
  std::vector<std::uint32_t> cursor;         // CSR fill cursor
  std::vector<std::uint32_t> policy;         // node -> chosen edge id
  std::vector<std::int64_t> ratioNum, ratioDen;
  std::vector<Wide> valueNum;
  std::vector<char> hasRatio;
  std::vector<std::int32_t> mark;
  std::vector<std::uint32_t> path, cycle;
};

/// Howard's policy iteration over one strongly connected component,
/// renumbered to dense local ids 0..m-1; `hs.local` holds local
/// endpoints, `hs.hint[v]` a local preferred successor (kNoNode = none)
/// used to seed the initial policy. Maximizes the cycle ratio
/// sum(w)/sum(d); the converged policy is left in `hs.policy` (edge
/// ids into `hs.local`, kNoEdge = none).
ComponentOutcome howardComponent(std::size_t m, HowardScratch& hs) {
  ComponentOutcome out;
  const std::vector<Edge>& edges = hs.local;
  // CSR adjacency; edge ids stay ascending per node, so "first
  // out-edge" and the improvement scan order match the plain edge-list
  // formulation exactly.
  hs.outOff.assign(m + 1, 0);
  for (const Edge& e : edges) {
    ++hs.outOff[e.from + 1];
  }
  for (std::size_t v = 0; v < m; ++v) {
    hs.outOff[v + 1] += hs.outOff[v];
  }
  hs.outIdx.resize(edges.size());
  hs.cursor.assign(m, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t v = edges[i].from;
    hs.outIdx[hs.outOff[v] + hs.cursor[v]++] = static_cast<std::uint32_t>(i);
  }

  hs.policy.assign(m, kNoEdge);
  for (std::size_t v = 0; v < m; ++v) {
    if (hs.outOff[v] == hs.outOff[v + 1]) {
      continue;
    }
    // Cold seed: the minimum-delay out-edge (first wins on ties). All
    // out-edges of an HSDF node carry the same weight — the source's
    // execution time — so the maximum-ratio cycle is biased toward
    // token-free edges; seeding with them cuts cold convergence from
    // dozens of sweeps to a handful. Any seed yields the same unique
    // fixpoint, so this is purely an iteration-count heuristic.
    std::uint32_t pick = hs.outIdx[hs.outOff[v]];
    for (std::uint32_t i = hs.outOff[v] + 1; i < hs.outOff[v + 1]; ++i) {
      if (edges[hs.outIdx[i]].delay < edges[pick].delay) {
        pick = hs.outIdx[i];
      }
    }
    hs.policy[v] = pick;
    if (hs.hint[v] != kNoNode) {
      for (std::uint32_t i = hs.outOff[v]; i < hs.outOff[v + 1]; ++i) {
        if (edges[hs.outIdx[i]].to == hs.hint[v]) {
          hs.policy[v] = hs.outIdx[i];
          break;
        }
      }
    }
  }
  std::vector<std::uint32_t>& policy = hs.policy;

  // Per-node evaluation state. Ratios are kept as *unnormalized*
  // integer fractions (the raw weight/delay sums of the reached cycle)
  // and values as 128-bit numerators over the cycle's delay sum; every
  // comparison cross-multiplies instead of normalizing, which removes
  // all gcd work from the hot loop. The final answer is materialized as
  // a normalized Rational, so results are bit-identical to the
  // rational-arithmetic formulation. Magnitudes stay far inside 128
  // bits: |valueNum| <= pathLength * (maxWeight + cycleWeight) *
  // cycleDelay, and comparisons multiply by one more delay sum.
  hs.ratioNum.assign(m, 0);   // cycle weight sum
  hs.ratioDen.assign(m, 1);   // cycle delay sum (> 0)
  hs.valueNum.assign(m, 0);   // potential * ratioDen[v]
  hs.hasRatio.assign(m, 0);
  std::vector<std::int64_t>& ratioNum = hs.ratioNum;
  std::vector<std::int64_t>& ratioDen = hs.ratioDen;
  std::vector<Wide>& valueNum = hs.valueNum;
  std::vector<char>& hasRatio = hs.hasRatio;
  // ratio[a] > ratio[b] as fractions (denominators are positive).
  const auto ratioGreater = [&](std::size_t a, std::size_t b) {
    return Wide(ratioNum[a]) * ratioDen[b] > Wide(ratioNum[b]) * ratioDen[a];
  };
  const auto ratioEqual = [&](std::size_t a, std::size_t b) {
    return Wide(ratioNum[a]) * ratioDen[b] == Wide(ratioNum[b]) * ratioDen[a];
  };

  hs.mark.assign(m, -1);  // visit epoch of the evaluation walks
  std::vector<std::int32_t>& mark = hs.mark;
  std::vector<std::uint32_t>& path = hs.path;
  std::vector<std::uint32_t>& cycle = hs.cycle;

  const std::size_t maxIterations = edges.size() * m + 16;
  for (std::size_t iteration = 0; iteration < maxIterations; ++iteration) {
    // --- Policy evaluation -------------------------------------------
    std::fill(hasRatio.begin(), hasRatio.end(), false);
    std::fill(mark.begin(), mark.end(), -1);
    // Find the cycle each node reaches in the functional policy graph.
    for (std::size_t start = 0; start < m; ++start) {
      if (policy[start] == kNoEdge || hasRatio[start]) {
        continue;
      }
      // Walk until we hit something marked in this walk (new cycle) or
      // an already-evaluated node.
      path.clear();
      auto v = static_cast<std::uint32_t>(start);
      while (policy[v] != kNoEdge && mark[v] == -1 && !hasRatio[v]) {
        mark[v] = static_cast<std::int32_t>(start);
        path.push_back(v);
        v = edges[policy[v]].to;
      }
      if (policy[v] != kNoEdge && mark[v] == static_cast<std::int32_t>(start) && !hasRatio[v]) {
        // New cycle found; compute its ratio.
        std::int64_t w = 0;
        std::int64_t d = 0;
        std::uint32_t u = v;
        do {
          const Edge& e = edges[policy[u]];
          w += e.weight;
          d += e.delay;
          u = e.to;
        } while (u != v);
        if (d == 0) {
          out.kind = ComponentOutcome::Kind::Deadlock;
          return out;
        }
        // Anchor the cycle: value(v) = 0, propagate around the cycle by
        // walking forward and solving value(u) = w(u) - r*d(u) +
        // value(next), all over the common denominator d.
        valueNum[v] = 0;
        ratioNum[v] = w;
        ratioDen[v] = d;
        hasRatio[v] = true;
        cycle.clear();
        u = v;
        do {
          cycle.push_back(u);
          u = edges[policy[u]].to;
        } while (u != v);
        for (std::size_t i = cycle.size(); i-- > 1;) {
          const std::uint32_t node = cycle[i];
          const Edge& e = edges[policy[node]];
          valueNum[node] = Wide(e.weight) * d - Wide(w) * e.delay + valueNum[e.to];
          ratioNum[node] = w;
          ratioDen[node] = d;
          hasRatio[node] = true;
        }
      } else if (!hasRatio[v]) {
        // Walk ended at a node without out-edge inside the component —
        // cannot happen because every component node lies on a cycle.
        continue;
      }
      // Propagate values back along the path (suffix first).
      for (std::size_t i = path.size(); i-- > 0;) {
        const std::uint32_t node = path[i];
        if (hasRatio[node]) {
          continue;  // part of the freshly evaluated cycle
        }
        const Edge& e = edges[policy[node]];
        valueNum[node] = Wide(e.weight) * ratioDen[e.to] - Wide(ratioNum[e.to]) * e.delay +
                         valueNum[e.to];
        ratioNum[node] = ratioNum[e.to];
        ratioDen[node] = ratioDen[e.to];
        hasRatio[node] = true;
      }
    }

    // --- Policy improvement ------------------------------------------
    // Label-correcting improvement: when v adopts a better successor,
    // its (ratio, value) label is rewritten in place, so later
    // relaxations in the same pass already see it instead of crawling
    // one node per outer evaluation along long HSDF cycles. One pass
    // runs over the nodes in descending id order: expansion edges
    // mostly point from lower to higher copy ids, so relaxing
    // successors first carries an improvement along a whole chain at
    // once; whatever the pass leaves over is caught by the next outer
    // iteration. Intermediate labels only steer the pivot path: the
    // outer loop exits solely when a pass that starts from the *exact*
    // evaluation finds no improvement — the classical Howard
    // termination condition — so the unique fixpoint is unchanged.
    const auto relax = [&](std::uint32_t v) -> bool {
      bool changed = false;
      const std::uint32_t off = hs.outOff[v];
      const std::uint32_t end = hs.outOff[v + 1];
      for (std::uint32_t i = off; i < end; ++i) {
        const std::uint32_t ei = hs.outIdx[i];
        const Edge& e = edges[ei];
        if (!hasRatio[e.to]) {
          continue;
        }
        bool adopt = false;
        if (ratioNum[e.to] == ratioNum[v] && ratioDen[e.to] == ratioDen[v]) {
          // Fast path: within one evaluation every node reaching the
          // same cycle carries the *identical* (num, den) pair, and
          // label-correcting adoption copies the representation — so
          // the common case compares values over one shared
          // denominator, with no 128-bit cross-multiplies.
          const Wide candidate = Wide(e.weight) * ratioDen[e.to] -
                                 Wide(ratioNum[e.to]) * e.delay + valueNum[e.to];
          adopt = candidate > valueNum[v];
        } else if (ratioGreater(e.to, v)) {
          adopt = true;
        } else if (ratioEqual(e.to, v)) {
          // candidate = w(e) - r*d(e) + value(e.to), over denominator
          // ratioDen[e.to]; compare against value(v) by
          // cross-multiplying the two denominators.
          const Wide candidate = Wide(e.weight) * ratioDen[e.to] -
                                 Wide(ratioNum[e.to]) * e.delay + valueNum[e.to];
          adopt = candidate * ratioDen[v] > valueNum[v] * ratioDen[e.to];
        }
        if (adopt) {
          policy[v] = ei;
          valueNum[v] = Wide(e.weight) * ratioDen[e.to] - Wide(ratioNum[e.to]) * e.delay +
                        valueNum[e.to];
          ratioNum[v] = ratioNum[e.to];
          ratioDen[v] = ratioDen[e.to];
          changed = true;
        }
      }
      return changed;
    };
    bool improved = false;
    for (std::size_t v = m; v-- > 0;) {
      if (policy[v] != kNoEdge && relax(static_cast<std::uint32_t>(v))) {
        improved = true;
      }
    }
    if (!improved) {
      std::size_t best = m;
      for (std::size_t v = 0; v < m; ++v) {
        if (hasRatio[v] && (best == m || ratioGreater(v, best))) {
          best = v;
        }
      }
      if (best == m) {
        out.kind = ComponentOutcome::Kind::NoCycle;
        return out;
      }
      out.kind = ComponentOutcome::Kind::Ratio;
      out.num = ratioNum[best];
      out.den = ratioDen[best];
      return out;
    }
  }
  throw AnalysisError("CycleRatioSolver: policy iteration failed to converge");
}

}  // namespace

/// Reusable per-solve arenas. Every vector keeps its capacity across
/// solve() calls, so steady-state solves (buffer-growth rounds, DSE
/// sweeps, scenario re-analyses) allocate nothing — the allocation churn
/// of rebuilding adjacency per call used to dominate repeated-analysis
/// profiles.
struct CycleRatioSolver::Scratch {
  std::vector<Edge> zero;  // zero-delay subset (deadlock check)
  // --- SCC decomposition (iterative Tarjan) --------------------------
  std::vector<std::uint32_t> outDeg, cursor;    // CSR degree / fill cursor
  std::vector<std::uint32_t> edgeOff, edgeIdx;  // out-CSR of edge ids
  std::vector<std::uint32_t> sccIndex, sccLow, sccStack, comp;
  std::vector<char> onStack;
  std::vector<std::uint32_t> dfsNode, dfsEdge;  // explicit DFS stack
  // --- per-component grouping ----------------------------------------
  std::vector<std::uint32_t> localIndex;              // node -> id within comp
  std::vector<std::uint32_t> compNodeOff, compNodes;  // comp -> nodes (id order)
  std::vector<std::uint32_t> compEdgeOff, compEdges;  // comp -> edge ids
  // --- Howard arenas, reused by every component solve ----------------
  HowardScratch howard;

  std::uint32_t computeSccs(std::size_t n, const std::vector<Edge>& edges);
  void groupComponents(std::size_t n, std::uint32_t comps, const std::vector<Edge>& edges);
};

/// Strongly connected components of `edges` via iterative Tarjan.
/// Component ids are assigned in completion order of a DFS started from
/// nodes in ascending id order, so they are a pure function of the edge
/// list. Fills `comp` (kNoNode for nodes without any edge); returns the
/// count.
std::uint32_t CycleRatioSolver::Scratch::computeSccs(std::size_t n,
                                                     const std::vector<Edge>& edges) {
  outDeg.assign(n, 0);
  for (const Edge& e : edges) {
    ++outDeg[e.from];
  }
  edgeOff.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    edgeOff[v + 1] = edgeOff[v] + outDeg[v];
  }
  edgeIdx.resize(edges.size());
  cursor.assign(n, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t f = edges[i].from;
    edgeIdx[edgeOff[f] + cursor[f]++] = static_cast<std::uint32_t>(i);
  }

  sccIndex.assign(n, kNoNode);
  sccLow.assign(n, 0);
  onStack.assign(n, 0);
  comp.assign(n, kNoNode);
  sccStack.clear();
  dfsNode.clear();
  dfsEdge.clear();
  std::uint32_t counter = 0;
  std::uint32_t comps = 0;

  for (std::size_t startIdx = 0; startIdx < n; ++startIdx) {
    const auto start = static_cast<std::uint32_t>(startIdx);
    if (sccIndex[start] != kNoNode || edgeOff[start] == edgeOff[start + 1]) {
      continue;
    }
    sccIndex[start] = sccLow[start] = counter++;
    sccStack.push_back(start);
    onStack[start] = 1;
    dfsNode.push_back(start);
    dfsEdge.push_back(edgeOff[start]);
    while (!dfsNode.empty()) {
      const std::uint32_t v = dfsNode.back();
      if (dfsEdge.back() < edgeOff[v + 1]) {
        const std::uint32_t w = edges[edgeIdx[dfsEdge.back()++]].to;
        if (sccIndex[w] == kNoNode) {
          sccIndex[w] = sccLow[w] = counter++;
          sccStack.push_back(w);
          onStack[w] = 1;
          dfsNode.push_back(w);
          dfsEdge.push_back(edgeOff[w]);
        } else if (onStack[w] != 0) {
          sccLow[v] = std::min(sccLow[v], sccIndex[w]);
        }
      } else {
        dfsNode.pop_back();
        dfsEdge.pop_back();
        if (sccLow[v] == sccIndex[v]) {
          while (true) {
            const std::uint32_t w = sccStack.back();
            sccStack.pop_back();
            onStack[w] = 0;
            comp[w] = comps;
            if (w == v) {
              break;
            }
          }
          ++comps;
        }
        if (!dfsNode.empty()) {
          const std::uint32_t parent = dfsNode.back();
          sccLow[parent] = std::min(sccLow[parent], sccLow[v]);
        }
      }
    }
  }
  return comps;
}

/// Bucket nodes and intra-component edges by component, in id order.
/// Cross-component edges are dropped: they lie on no cycle, so they
/// cannot carry the maximum ratio. Fills localIndex/compNodes/compEdges
/// and their offset tables.
void CycleRatioSolver::Scratch::groupComponents(std::size_t n, std::uint32_t comps,
                                                const std::vector<Edge>& edges) {
  compNodeOff.assign(comps + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (comp[v] != kNoNode) {
      ++compNodeOff[comp[v] + 1];
    }
  }
  for (std::uint32_t c = 0; c < comps; ++c) {
    compNodeOff[c + 1] += compNodeOff[c];
  }
  compNodes.resize(compNodeOff[comps]);
  localIndex.assign(n, kNoNode);
  cursor.assign(comps, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (comp[v] == kNoNode) {
      continue;
    }
    const std::uint32_t c = comp[v];
    localIndex[v] = cursor[c];
    compNodes[compNodeOff[c] + cursor[c]++] = static_cast<std::uint32_t>(v);
  }
  // Every edge endpoint was reached by the DFS, so it has a component.
  compEdgeOff.assign(comps + 1, 0);
  for (const Edge& e : edges) {
    if (comp[e.from] == comp[e.to]) {
      ++compEdgeOff[comp[e.from] + 1];
    }
  }
  for (std::uint32_t c = 0; c < comps; ++c) {
    compEdgeOff[c + 1] += compEdgeOff[c];
  }
  compEdges.resize(compEdgeOff[comps]);
  cursor.assign(comps, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t c = comp[edges[i].from];
    if (c == comp[edges[i].to]) {
      compEdges[compEdgeOff[c] + cursor[c]++] = static_cast<std::uint32_t>(i);
    }
  }
}

CycleRatioSolver::CycleRatioSolver() = default;
CycleRatioSolver::~CycleRatioSolver() = default;
CycleRatioSolver::CycleRatioSolver(CycleRatioSolver&&) noexcept = default;
CycleRatioSolver& CycleRatioSolver::operator=(CycleRatioSolver&&) noexcept = default;

CycleRatioSolver::CycleRatioSolver(const CycleRatioSolver& other)
    : preferredSuccessor_(other.preferredSuccessor_) {}

CycleRatioSolver& CycleRatioSolver::operator=(const CycleRatioSolver& other) {
  preferredSuccessor_ = other.preferredSuccessor_;
  return *this;
}

CycleRatioResult CycleRatioSolver::solve(std::size_t nodeCount,
                                         const std::vector<CycleRatioEdge>& allEdges) {
  const std::size_t n = nodeCount;
  if (!scratch_) {
    scratch_ = std::make_unique<Scratch>();
  }
  Scratch& s = *scratch_;
  CycleRatioResult result;

  // Zero-delay cycle <=> deadlock: some zero-delay edge lies inside a
  // strongly connected component of the zero-delay subgraph (a
  // zero-delay self-loop is the one-node case).
  s.zero.clear();
  for (const Edge& e : allEdges) {
    if (e.delay == 0) {
      s.zero.push_back(e);
    }
  }
  if (!s.zero.empty()) {
    s.computeSccs(n, s.zero);
    for (const Edge& e : s.zero) {
      if (s.comp[e.from] == s.comp[e.to]) {
        result.status = CycleRatioResult::Status::Deadlock;
        return result;
      }
    }
  }

  // Decompose into strongly connected components. Every cycle lives
  // inside one component, so the global maximum ratio is the maximum of
  // the per-component maxima.
  const std::uint32_t comps = s.computeSccs(n, allEdges);
  s.groupComponents(n, comps, allEdges);

  // Solve the components in id order and keep the strict maximum, so
  // ties break deterministically. Each converged policy is left behind
  // as warm-start hints in global node ids, which survive a changed
  // edge layout on the next solve of a perturbed version of this graph.
  if (preferredSuccessor_.size() != n) {
    preferredSuccessor_.assign(n, kNoNode);
  }
  bool found = false;
  std::int64_t bestNum = 0;
  std::int64_t bestDen = 1;
  HowardScratch& hs = s.howard;
  for (std::uint32_t c = 0; c < comps; ++c) {
    if (s.compEdgeOff[c] == s.compEdgeOff[c + 1]) {
      continue;  // a lone node without a self-loop lies on no cycle
    }
    const std::uint32_t nodeBegin = s.compNodeOff[c];
    const std::size_t m = s.compNodeOff[c + 1] - nodeBegin;
    hs.local.clear();
    for (std::uint32_t i = s.compEdgeOff[c]; i < s.compEdgeOff[c + 1]; ++i) {
      Edge e = allEdges[s.compEdges[i]];
      e.from = s.localIndex[e.from];
      e.to = s.localIndex[e.to];
      hs.local.push_back(e);
    }
    hs.hint.assign(m, kNoNode);
    for (std::size_t v = 0; v < m; ++v) {
      const std::uint32_t preferred = preferredSuccessor_[s.compNodes[nodeBegin + v]];
      if (preferred < n && s.comp[preferred] == c) {
        hs.hint[v] = s.localIndex[preferred];
      }
    }
    const ComponentOutcome o = howardComponent(m, hs);
    if (o.kind == ComponentOutcome::Kind::Deadlock) {
      result.status = CycleRatioResult::Status::Deadlock;
      return result;
    }
    if (o.kind == ComponentOutcome::Kind::Ratio &&
        (!found || Wide(o.num) * bestDen > Wide(bestNum) * o.den)) {
      found = true;
      bestNum = o.num;
      bestDen = o.den;
    }
    for (std::size_t v = 0; v < m; ++v) {
      const std::uint32_t e = hs.policy[v];
      preferredSuccessor_[s.compNodes[nodeBegin + v]] =
          e == kNoEdge ? kNoNode : s.compNodes[nodeBegin + hs.local[e].to];
    }
  }
  if (!found) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }
  result.status = CycleRatioResult::Status::Ok;
  result.ratio = Rational(bestNum, bestDen);
  return result;
}

CycleRatioResult maxCycleRatioHoward(const sdf::TimedGraph& hsdf) {
  requireHsdf(hsdf);
  CycleRatioSolver solver;
  return solver.solve(hsdf.graph.actorCount(), buildEdges(hsdf));
}

CycleRatioResult maxCycleRatioBruteForce(const sdf::TimedGraph& hsdf) {
  requireHsdf(hsdf);
  const std::size_t n = hsdf.graph.actorCount();
  const std::vector<Edge> edges = buildEdges(hsdf);
  std::vector<std::vector<std::size_t>> outEdges(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    outEdges[edges[i].from].push_back(i);
  }

  CycleRatioResult result;
  bool foundCycle = false;
  bool deadlock = false;
  Rational best(0);

  // DFS enumeration of simple cycles rooted at each start node; only
  // nodes >= start participate, so each cycle is found exactly once
  // (rooted at its minimum node).
  std::vector<bool> onPath(n, false);
  std::vector<std::size_t> pathEdges;

  const std::function<void(std::size_t, std::size_t)> dfs = [&](std::size_t start, std::size_t v) {
    for (const std::size_t ei : outEdges[v]) {
      const Edge& e = edges[ei];
      if (e.to < start || deadlock) {
        continue;
      }
      if (e.to == start) {
        std::int64_t w = e.weight;
        std::int64_t d = e.delay;
        for (const std::size_t pe : pathEdges) {
          w += edges[pe].weight;
          d += edges[pe].delay;
        }
        if (d == 0) {
          deadlock = true;
          return;
        }
        const Rational r(w, d);
        if (!foundCycle || r > best) {
          best = r;
          foundCycle = true;
        }
        continue;
      }
      if (onPath[e.to]) {
        continue;
      }
      onPath[e.to] = true;
      pathEdges.push_back(ei);
      dfs(start, e.to);
      pathEdges.pop_back();
      onPath[e.to] = false;
    }
  };

  for (std::size_t start = 0; start < n && !deadlock; ++start) {
    onPath[start] = true;
    dfs(start, start);
    onPath[start] = false;
  }

  if (deadlock) {
    result.status = CycleRatioResult::Status::Deadlock;
  } else if (foundCycle) {
    result.status = CycleRatioResult::Status::Ok;
    result.ratio = best;
  } else {
    result.status = CycleRatioResult::Status::Acyclic;
  }
  return result;
}

sdf::HsdfExpansion toHsdfWithStaticOrder(const sdf::TimedGraph& timed,
                                         const ResourceConstraints& resources) {
  resources.validateFor(timed.graph);
  const auto qOpt = sdf::computeRepetitionVector(timed.graph);
  if (!qOpt) {
    throw AnalysisError("toHsdfWithStaticOrder: graph '" + timed.graph.name() +
                        "' is inconsistent");
  }
  const auto& q = *qOpt;

  sdf::HsdfExpansion expansion = sdf::toHsdf(timed);

  // Forward map: original actor + firing index -> HSDF copy.
  std::vector<std::vector<sdf::ActorId>> copies(timed.graph.actorCount());
  for (sdf::ActorId h = 0; h < expansion.hsdf.graph.actorCount(); ++h) {
    auto& list = copies[expansion.originalActor[h]];
    if (list.size() <= expansion.firingIndex[h]) {
      list.resize(expansion.firingIndex[h] + 1, sdf::kInvalidActor);
    }
    list[expansion.firingIndex[h]] = h;
  }

  for (std::size_t r = 0; r < resources.staticOrder.size(); ++r) {
    const auto& order = resources.staticOrder[r];
    // The j-th appearance of actor a is its j-th firing of the
    // iteration; collect the chain of HSDF copies in schedule order.
    std::vector<std::uint64_t> appearance(timed.graph.actorCount(), 0);
    std::vector<sdf::ActorId> chain;
    chain.reserve(order.size());
    for (const sdf::ActorId a : order) {
      if (resources.actorResource[a] != r) {
        throw AnalysisError("toHsdfWithStaticOrder: actor " + timed.graph.actor(a).name +
                            " is scheduled on a resource it is not bound to");
      }
      const std::uint64_t j = appearance[a]++;
      if (j >= q[a]) {
        throw AnalysisError("toHsdfWithStaticOrder: actor " + timed.graph.actor(a).name +
                            " appears more often than its repetition count");
      }
      chain.push_back(copies[a][j]);
    }
    for (sdf::ActorId a = 0; a < timed.graph.actorCount(); ++a) {
      if (resources.actorResource[a] == r && appearance[a] != q[a]) {
        throw AnalysisError("toHsdfWithStaticOrder: actor " + timed.graph.actor(a).name +
                            " appears " + std::to_string(appearance[a]) +
                            " times in its static order, expected q = " + std::to_string(q[a]));
      }
    }
    if (chain.empty()) {
      continue;
    }
    // Completion of appearance i enables the start of appearance i+1;
    // the wrap-around token starts the schedule at position 0 and
    // pipelines consecutive iterations of the resource by one.
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const std::size_t next = (i + 1) % chain.size();
      sdf::ChannelSpec spec;
      spec.src = chain[i];
      spec.dst = chain[next];
      spec.prodRate = 1;
      spec.consRate = 1;
      spec.initialTokens = (next == 0) ? 1 : 0;
      spec.name = "so_r" + std::to_string(r) + "_" + std::to_string(i);
      expansion.hsdf.graph.connect(spec);
    }
  }
  return expansion;
}

ThroughputResult computeThroughputMcr(const sdf::TimedGraph& timed,
                                      const ResourceConstraints* resources) {
  if (timed.execTime.size() != timed.graph.actorCount()) {
    throw AnalysisError("computeThroughputMcr: execTime size does not match actor count");
  }
  const auto q = sdf::computeRepetitionVector(timed.graph);
  if (!q) {
    ThroughputResult result;
    result.engine = ThroughputEngine::Mcr;
    result.status = ThroughputResult::Status::Inconsistent;
    return result;
  }
  return expandAndSolve(timed, resources, *q);
}

}  // namespace mamps::analysis
