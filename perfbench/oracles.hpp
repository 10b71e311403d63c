// Serial reference answers the benchmark checks the library against.
//
// Written here, independently of src/: a plain CSR over the global
// edge list (self-loops dropped, both directions of every undirected
// edge, duplicates kept — the same adjacency graph::build_dist_graph
// builds), and textbook serial algorithms over it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace perfbench::oracle {

using xtra::count_t;
using xtra::gid_t;
using xtra::part_t;

struct Csr {
  std::vector<count_t> off;  ///< n + 1
  std::vector<gid_t> adj;

  gid_t n() const { return off.size() - 1; }
  count_t degree(gid_t v) const { return off[v + 1] - off[v]; }

  static Csr build(const xtra::graph::EdgeList& el) {
    Csr c;
    c.off.assign(el.n + 1, 0);
    for (const auto& e : el.edges) {
      if (e.u == e.v) continue;
      ++c.off[e.u + 1];
      if (!el.directed) ++c.off[e.v + 1];
    }
    std::partial_sum(c.off.begin(), c.off.end(), c.off.begin());
    c.adj.resize(static_cast<std::size_t>(c.off.back()));
    std::vector<count_t> pos(c.off.begin(), c.off.end() - 1);
    for (const auto& e : el.edges) {
      if (e.u == e.v) continue;
      c.adj[static_cast<std::size_t>(pos[e.u]++)] = e.v;
      if (!el.directed) c.adj[static_cast<std::size_t>(pos[e.v]++)] = e.u;
    }
    return c;
  }
};

/// Cut edges and the largest per-part cut of a global part vector.
struct Cut {
  count_t cut = 0;
  count_t max_part_cut = 0;
};

inline Cut recount_cut(const xtra::graph::EdgeList& el,
                       const std::vector<part_t>& parts, part_t nparts) {
  std::vector<count_t> per_part(static_cast<std::size_t>(nparts), 0);
  Cut c;
  for (const auto& e : el.edges) {
    const part_t pu = parts[e.u], pv = parts[e.v];
    if (e.u == e.v || pu == pv) continue;
    ++c.cut;
    ++per_part[static_cast<std::size_t>(pu)];
    ++per_part[static_cast<std::size_t>(pv)];
  }
  for (const count_t x : per_part) c.max_part_cut = std::max(c.max_part_cut, x);
  return c;
}

/// Power-iteration PageRank with uniform redistribution of dangling
/// mass, starting from 1/n.
inline std::vector<double> pagerank(const Csr& g, int iters, double damping) {
  const gid_t n = g.n();
  const double nd = static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / nd), contrib(n, 0.0);
  for (int it = 0; it < iters; ++it) {
    double dangling = 0.0;
    for (gid_t v = 0; v < n; ++v) {
      const count_t d = g.degree(v);
      if (d == 0) dangling += rank[v];
      contrib[v] = d == 0 ? 0.0 : rank[v] / static_cast<double>(d);
    }
    for (gid_t v = 0; v < n; ++v) {
      double s = 0.0;
      for (count_t i = g.off[v]; i < g.off[v + 1]; ++i)
        s += contrib[g.adj[static_cast<std::size_t>(i)]];
      rank[v] = (1.0 - damping) / nd + damping * (s + dangling / nd);
    }
  }
  return rank;
}

/// Number of connected components, by union-find with path halving.
inline count_t count_components(const xtra::graph::EdgeList& el) {
  std::vector<gid_t> parent(el.n);
  std::iota(parent.begin(), parent.end(), gid_t{0});
  const auto find = [&](gid_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  count_t components = static_cast<count_t>(el.n);
  for (const auto& e : el.edges) {
    const gid_t a = find(e.u), b = find(e.v);
    if (a == b) continue;
    parent[std::max(a, b)] = std::min(a, b);
    --components;
  }
  return components;
}

/// Dijkstra from `root`; `weight(u, v)` gives the edge weight and
/// unreachable vertices keep `inf`.
inline std::vector<count_t> dijkstra(
    const Csr& g, gid_t root, count_t inf,
    const std::function<count_t(gid_t, gid_t)>& weight) {
  std::vector<count_t> dist(g.n(), inf);
  using Item = std::pair<count_t, gid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[root] = 0;
  pq.push({0, root});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (count_t i = g.off[v]; i < g.off[v + 1]; ++i) {
      const gid_t u = g.adj[static_cast<std::size_t>(i)];
      const count_t nd = d + weight(v, u);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

/// Vertices first reached at each BFS level from `src` (level 0 holds
/// the source), stopping after level `max_level`.
inline std::vector<count_t> bfs_level_counts(const Csr& g, gid_t src,
                                             count_t max_level) {
  std::vector<std::uint8_t> seen(g.n(), 0);
  std::vector<gid_t> frontier{src}, next;
  seen[src] = 1;
  std::vector<count_t> counts{1};
  for (count_t level = 0; level < max_level && !frontier.empty(); ++level) {
    next.clear();
    for (const gid_t v : frontier)
      for (count_t i = g.off[v]; i < g.off[v + 1]; ++i) {
        const gid_t u = g.adj[static_cast<std::size_t>(i)];
        if (!seen[u]) {
          seen[u] = 1;
          next.push_back(u);
        }
      }
    if (next.empty()) break;
    counts.push_back(static_cast<count_t>(next.size()));
    frontier.swap(next);
  }
  return counts;
}

}  // namespace perfbench::oracle
