#include "analysis/mcm.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "analysis/flat_hsdf.hpp"
#include "sdf/hsdf.hpp"
#include "sdf/repetition_vector.hpp"
#include "support/timer.hpp"

namespace mamps::analysis {
namespace {

using sdf::ActorId;
using sdf::ChannelId;
using sdf::Graph;

using Edge = CycleRatioEdge;
using Wide = __int128;

constexpr std::uint32_t kNoNode = 0xffffffffu;

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
  std::vector<std::uint32_t> successor;  ///< converged policy (local ids)
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
/// sum(w)/sum(d).
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

  constexpr std::uint32_t kNoEdge = 0xffffffffu;
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
    // relaxations in the same phase already see it instead of crawling
    // one node per outer evaluation along long HSDF cycles. The phase
    // makes at most two full passes over the nodes, in alternating
    // direction, and stops after a pass that changes nothing. The first
    // pass runs in descending id order: expansion edges mostly point
    // from lower to higher copy ids, so relaxing successors first
    // carries an improvement along a whole chain at once. The second
    // pass, in ascending order, serves the edges that point the other
    // way; anything left over is caught by the next outer iteration.
    // Intermediate labels only steer the pivot path: the outer loop
    // exits solely when the first pass, which starts from the *exact*
    // evaluation, finds no improvement — the classical Howard
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
    bool changed = true;
    for (int pass = 0; changed && pass < 2; ++pass) {
      changed = false;
      const bool descending = (pass % 2) == 0;
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t v = descending ? m - 1 - k : k;
        if (policy[v] != kNoEdge && relax(static_cast<std::uint32_t>(v))) {
          changed = true;
        }
      }
      improved = improved || changed;
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
      // Remember the converged policy for warm-starting later solves.
      out.successor.assign(m, kNoNode);
      for (std::size_t v = 0; v < m; ++v) {
        if (policy[v] != kNoEdge) {
          out.successor[v] = edges[policy[v]].to;
        }
      }
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
  // --- cyclic-core peeling (CSR adjacency, both directions) ----------
  std::vector<std::uint32_t> inDeg, outDeg;
  std::vector<std::uint32_t> inOff, outOff;  // n+1 CSR offsets
  std::vector<std::uint32_t> inAdj, outAdj;  // edge endpoints
  std::vector<std::uint32_t> cursor;         // CSR fill / grouping cursor
  std::vector<std::uint32_t> queue;          // peel worklist
  std::vector<char> alive;                   // node -> lies on some cycle
  // --- edge working sets ---------------------------------------------
  std::vector<Edge> work;  // cyclic-core edges, contracted in place
  std::vector<Edge> zero;  // zero-delay subset (deadlock check)
  // --- chain contraction ---------------------------------------------
  std::vector<std::uint32_t> soleIn, soleOut;  // degree-1 adjacency slots
  std::vector<char> dead;                      // edge tombstones
  // --- SCC decomposition (iterative Tarjan) --------------------------
  std::vector<std::uint32_t> edgeOff, edgeIdx;  // out-CSR of work-edge ids
  std::vector<std::uint32_t> sccIndex, sccLow, sccStack, comp;
  std::vector<char> onStack;
  std::vector<std::uint32_t> dfsNode, dfsEdge;  // explicit DFS stack
  // --- per-component grouping ----------------------------------------
  std::vector<std::uint32_t> localIndex;              // node -> id within comp
  std::vector<std::uint32_t> compNodeOff, compNodes;  // comp -> nodes (id order)
  std::vector<std::uint32_t> compEdgeOff, compEdges;  // comp -> work-edge ids
  // --- Howard arenas, reused by every component solve ----------------
  HowardScratch howard;

  std::size_t cyclicCore(std::size_t n, const std::vector<Edge>& edges);
  void contractChains(std::size_t n);
  std::uint32_t computeSccs(std::size_t n);
  void groupComponents(std::size_t n, std::uint32_t comps);
};

/// Nodes on at least one cycle: Kahn-style peeling of nodes with zero
/// in-degree or zero out-degree, O(V + E). Fills `alive`; returns the
/// number of surviving nodes.
std::size_t CycleRatioSolver::Scratch::cyclicCore(std::size_t n,
                                                  const std::vector<Edge>& edges) {
  inDeg.assign(n, 0);
  outDeg.assign(n, 0);
  for (const Edge& e : edges) {
    ++outDeg[e.from];
    ++inDeg[e.to];
  }
  inOff.assign(n + 1, 0);
  outOff.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    inOff[v + 1] = inOff[v] + inDeg[v];
    outOff[v + 1] = outOff[v] + outDeg[v];
  }
  inAdj.resize(edges.size());
  outAdj.resize(edges.size());
  cursor.assign(n, 0);
  for (const Edge& e : edges) {
    inAdj[inOff[e.to] + cursor[e.to]++] = e.from;
  }
  cursor.assign(n, 0);
  for (const Edge& e : edges) {
    outAdj[outOff[e.from] + cursor[e.from]++] = e.to;
  }

  alive.assign(n, 1);
  queue.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (inDeg[v] == 0 || outDeg[v] == 0) {
      alive[v] = 0;
      queue.push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::size_t removed = queue.size();
  while (!queue.empty()) {
    const std::uint32_t v = queue.back();
    queue.pop_back();
    for (std::uint32_t i = inOff[v]; i < inOff[v + 1]; ++i) {
      const std::uint32_t u = inAdj[i];
      if (alive[u] != 0 && --outDeg[u] == 0) {
        alive[u] = 0;
        ++removed;
        queue.push_back(u);
      }
    }
    for (std::uint32_t i = outOff[v]; i < outOff[v + 1]; ++i) {
      const std::uint32_t u = outAdj[i];
      if (alive[u] != 0 && --inDeg[u] == 0) {
        alive[u] = 0;
        ++removed;
        queue.push_back(u);
      }
    }
  }
  return n - removed;
}

/// Ratio-preserving chain contraction: a node with exactly one incoming
/// and one outgoing edge lies on a cycle only via both, so the pair
/// (u -> v, v -> x) can be replaced by u -> x with summed weight and
/// delay without changing any cycle's ratio. HSDF expansions are mostly
/// such chains (firing-copy sequences, word-level comm stages), so this
/// typically shrinks the Howard problem by one to two orders of
/// magnitude. Contracting never changes the degree of u or x, so a
/// single pass over the initial candidates reaches the fixpoint.
/// `work` is compacted in place.
void CycleRatioSolver::Scratch::contractChains(std::size_t n) {
  inDeg.assign(n, 0);
  outDeg.assign(n, 0);
  for (const Edge& e : work) {
    ++outDeg[e.from];
    ++inDeg[e.to];
  }
  // Per-node single-slot adjacency; only meaningful for degree-1 nodes.
  soleIn.assign(n, kNoNode);
  soleOut.assign(n, kNoNode);
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (inDeg[work[i].to] == 1) {
      soleIn[work[i].to] = static_cast<std::uint32_t>(i);
    }
    if (outDeg[work[i].from] == 1) {
      soleOut[work[i].from] = static_cast<std::uint32_t>(i);
    }
  }
  dead.assign(work.size(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (inDeg[v] != 1 || outDeg[v] != 1) {
      continue;
    }
    const std::uint32_t e1 = soleIn[v];
    const std::uint32_t e2 = soleOut[v];
    if (e1 == e2) {
      continue;  // self-loop: an irreducible single-node cycle
    }
    // Merge v into its predecessor: e1 becomes u -> x, e2 dies.
    work[e1].to = work[e2].to;
    work[e1].weight += work[e2].weight;
    work[e1].delay += work[e2].delay;
    dead[e2] = 1;
    if (soleIn[work[e1].to] == e2) {
      soleIn[work[e1].to] = e1;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (dead[i] == 0) {
      work[kept++] = work[i];
    }
  }
  work.resize(kept);
}

/// Strongly connected components of the contracted core via iterative
/// Tarjan. Component ids are assigned in completion order of a DFS
/// started from nodes in ascending id order, so they are a pure
/// function of the edge list — never of thread scheduling. Fills
/// `comp` (kNoNode for nodes outside the core); returns the count.
std::uint32_t CycleRatioSolver::Scratch::computeSccs(std::size_t n) {
  // Out-CSR of work-edge indices.
  outDeg.assign(n, 0);
  for (const Edge& e : work) {
    ++outDeg[e.from];
  }
  edgeOff.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    edgeOff[v + 1] = edgeOff[v] + outDeg[v];
  }
  edgeIdx.resize(work.size());
  cursor.assign(n, 0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const std::uint32_t f = work[i].from;
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
        const std::uint32_t w = work[edgeIdx[dfsEdge.back()++]].to;
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

/// Bucket core nodes and intra-component edges by component, in id
/// order. Cross-component edges are dropped: they lie on no cycle, so
/// they cannot carry the maximum ratio. Fills localIndex/compNodes/
/// compEdges and their offset tables.
void CycleRatioSolver::Scratch::groupComponents(std::size_t n, std::uint32_t comps) {
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
  compEdgeOff.assign(comps + 1, 0);
  for (const Edge& e : work) {
    if (comp[e.from] != kNoNode && comp[e.from] == comp[e.to]) {
      ++compEdgeOff[comp[e.from] + 1];
    }
  }
  for (std::uint32_t c = 0; c < comps; ++c) {
    compEdgeOff[c + 1] += compEdgeOff[c];
  }
  compEdges.resize(compEdgeOff[comps]);
  cursor.assign(comps, 0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Edge& e = work[i];
    if (comp[e.from] != kNoNode && comp[e.from] == comp[e.to]) {
      const std::uint32_t c = comp[e.from];
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
  constexpr std::uint32_t kNoSuccessor = kNoNode;
  if (!scratch_) {
    scratch_ = std::make_unique<Scratch>();
  }
  Scratch& s = *scratch_;
  CycleRatioResult result;

  // Restrict to the cyclic core; acyclic parts never constrain the
  // steady-state period.
  s.cyclicCore(n, allEdges);
  s.work.clear();
  for (const Edge& e : allEdges) {
    if (s.alive[e.from] != 0 && s.alive[e.to] != 0) {
      s.work.push_back(e);
    }
  }
  if (s.work.empty()) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }

  // Zero-delay cycle <=> deadlock. Detect first: restrict to zero-delay
  // edges and check for a cycle among them.
  s.zero.clear();
  for (const Edge& e : s.work) {
    if (e.delay == 0) {
      s.zero.push_back(e);
    }
  }
  if (!s.zero.empty() && s.cyclicCore(n, s.zero) > 0) {
    result.status = CycleRatioResult::Status::Deadlock;
    return result;
  }

  // Shrink the problem: HSDF expansions are dominated by unbranched
  // chains, which Howard would walk over and over. Contraction keeps
  // every cycle's weight and delay sums, so the maximum ratio is
  // unchanged (cross-checked against the brute-force oracle in the
  // property suite).
  s.contractChains(n);

  // Decompose into strongly connected components. Every cycle lives
  // inside one component, so the global maximum ratio is the maximum of
  // the per-component maxima.
  const std::uint32_t comps = s.computeSccs(n);
  if (comps == 0) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }
  s.groupComponents(n, comps);

  const bool haveHints = preferredSuccessor_.size() == n;
  std::vector<ComponentOutcome> outcomes(comps);
  HowardScratch& hs = s.howard;
  for (std::uint32_t c = 0; c < comps; ++c) {
    const std::uint32_t nodeBegin = s.compNodeOff[c];
    const std::uint32_t nodeEnd = s.compNodeOff[c + 1];
    const std::size_t m = nodeEnd - nodeBegin;
    hs.local.clear();
    hs.local.reserve(s.compEdgeOff[c + 1] - s.compEdgeOff[c]);
    for (std::uint32_t i = s.compEdgeOff[c]; i < s.compEdgeOff[c + 1]; ++i) {
      Edge e = s.work[s.compEdges[i]];
      e.from = s.localIndex[e.from];
      e.to = s.localIndex[e.to];
      hs.local.push_back(e);
    }
    hs.hint.assign(m, kNoNode);
    if (haveHints) {
      for (std::uint32_t i = nodeBegin; i < nodeEnd; ++i) {
        const std::uint32_t global = s.compNodes[i];
        const std::uint32_t preferred = preferredSuccessor_[global];
        if (preferred < n && s.comp[preferred] == c) {
          hs.hint[i - nodeBegin] = s.localIndex[preferred];
        }
      }
    }
    outcomes[c] = howardComponent(m, hs);
  }

  // Deterministic reduction: strict maximum in component-id order.
  std::uint32_t best = comps;
  for (std::uint32_t c = 0; c < comps; ++c) {
    const ComponentOutcome& o = outcomes[c];
    if (o.kind == ComponentOutcome::Kind::Deadlock) {
      result.status = CycleRatioResult::Status::Deadlock;
      return result;
    }
    if (o.kind != ComponentOutcome::Kind::Ratio) {
      continue;
    }
    if (best == comps || Wide(o.num) * outcomes[best].den > Wide(outcomes[best].num) * o.den) {
      best = c;
    }
  }
  if (best == comps) {
    result.status = CycleRatioResult::Status::Acyclic;
    return result;
  }
  result.status = CycleRatioResult::Status::Ok;
  result.ratio = Rational(outcomes[best].num, outcomes[best].den);

  // Remember the optimal policies for the next solve on a perturbed
  // version of this graph (global node ids, so they survive a changed
  // edge layout).
  preferredSuccessor_.assign(n, kNoSuccessor);
  for (std::uint32_t c = 0; c < comps; ++c) {
    const ComponentOutcome& o = outcomes[c];
    if (o.kind != ComponentOutcome::Kind::Ratio) {
      continue;
    }
    for (std::uint32_t i = s.compNodeOff[c]; i < s.compNodeOff[c + 1]; ++i) {
      const std::uint32_t succ = o.successor[i - s.compNodeOff[c]];
      if (succ != kNoNode) {
        preferredSuccessor_[s.compNodes[i]] = s.compNodes[s.compNodeOff[c] + succ];
      }
    }
  }
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
  if (!sdf::isConsistent(timed.graph)) {
    ThroughputResult result;
    result.engine = ThroughputEngine::Mcr;
    result.status = ThroughputResult::Status::Inconsistent;
    return result;
  }

  // Flat expansion: the same encoding sdf::toHsdf plus
  // toHsdfWithStaticOrder would produce, but as contiguous index tables
  // — no graph object, no name strings, no per-element allocation.
  std::uint64_t buildNanos = 0;
  FlatExpansion flat;
  {
    support::ScopedTimer timer(buildNanos);
    flat.build(timed, resources);
  }
  CycleRatioSolver solver;
  ThroughputResult result = flatThroughput(flat, solver);
  result.expansionNanos += buildNanos;
  return result;
}

}  // namespace mamps::analysis
