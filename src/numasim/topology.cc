#include "numasim/topology.h"

#include <algorithm>

#include "simcore/check.h"

namespace elastic::numasim {

Topology::Topology(const MachineConfig& config) : config_(config) {
  ELASTIC_CHECK(config_.num_nodes >= 1, "machine needs at least one node");
  ELASTIC_CHECK(config_.cores_per_node >= 1, "node needs at least one core");
  BuildLinks();
  BuildRoutes();
}

NodeId Topology::NodeOfCore(CoreId core) const {
  ELASTIC_CHECK(core >= 0 && core < total_cores(), "core id out of range");
  return core / config_.cores_per_node;
}

std::vector<CoreId> Topology::CoresOfNode(NodeId node) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes(), "node id out of range");
  std::vector<CoreId> cores;
  cores.reserve(config_.cores_per_node);
  for (int j = 0; j < config_.cores_per_node; ++j) {
    cores.push_back(CoreAt(node, j));
  }
  return cores;
}

CoreId Topology::CoreAt(NodeId node, int j) const {
  ELASTIC_CHECK(node >= 0 && node < num_nodes(), "node id out of range");
  ELASTIC_CHECK(j >= 0 && j < config_.cores_per_node, "core index out of range");
  return config_.cores_per_node * node + j;
}

int Topology::Hops(NodeId from, NodeId to) const {
  ELASTIC_CHECK(from >= 0 && from < num_nodes(), "node id out of range");
  ELASTIC_CHECK(to >= 0 && to < num_nodes(), "node id out of range");
  return hops_[from][to];
}

const std::vector<int>& Topology::Route(NodeId from, NodeId to) const {
  ELASTIC_CHECK(from >= 0 && from < num_nodes(), "node id out of range");
  ELASTIC_CHECK(to >= 0 && to < num_nodes(), "node id out of range");
  return routes_[from * num_nodes() + to];
}

void Topology::BuildLinks() {
  const int n = num_nodes();
  adjacency_.assign(n, std::vector<bool>(n, false));
  if (n == 4) {
    // The paper's square: S0-S1, S0-S2, S1-S3, S2-S3 (Figure 2); the
    // diagonals are not directly connected.
    const int pairs[4][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
    for (const auto& p : pairs) {
      adjacency_[p[0]][p[1]] = adjacency_[p[1]][p[0]] = true;
    }
  } else {
    // Generic machines: ring topology keeps the remote/local asymmetry.
    for (int i = 0; i < n; ++i) {
      const int next = (i + 1) % n;
      if (next != i) adjacency_[i][next] = adjacency_[next][i] = true;
    }
  }
  links_.clear();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (adjacency_[i][j]) links_.push_back(Link{i, j});
    }
  }
}

void Topology::BuildRoutes() {
  const int n = num_nodes();
  // Direct-link index by (src, dst), and each node's neighbours in
  // ascending id order: O(1) per hop and O(degree) per BFS step instead of
  // scans over all links and all nodes.
  std::vector<int> link_of(static_cast<size_t>(n) * static_cast<size_t>(n), -1);
  std::vector<std::vector<int>> neighbours(static_cast<size_t>(n));
  for (int i = 0; i < num_links(); ++i) {
    const Link& link = links_[static_cast<size_t>(i)];
    link_of[static_cast<size_t>(link.src) * n + link.dst] = i;
    neighbours[static_cast<size_t>(link.src)].push_back(link.dst);
  }
  hops_.assign(n, std::vector<int>(n, 0));
  routes_.assign(n * n, {});
  std::vector<int> parent(static_cast<size_t>(n));
  std::vector<int> dist(static_cast<size_t>(n));
  std::vector<int> queue;
  queue.reserve(static_cast<size_t>(n));
  for (int from = 0; from < n; ++from) {
    // Breadth-first search gives shortest paths; ties are broken towards the
    // lowest-numbered neighbour, which makes routing deterministic.
    std::fill(parent.begin(), parent.end(), -1);
    std::fill(dist.begin(), dist.end(), -1);
    queue.assign(1, from);
    dist[static_cast<size_t>(from)] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const int cur = queue[head];
      for (const int next : neighbours[static_cast<size_t>(cur)]) {
        if (dist[static_cast<size_t>(next)] < 0) {
          dist[static_cast<size_t>(next)] = dist[static_cast<size_t>(cur)] + 1;
          parent[static_cast<size_t>(next)] = cur;
          queue.push_back(next);
        }
      }
    }
    for (int to = 0; to < n; ++to) {
      ELASTIC_CHECK(dist[static_cast<size_t>(to)] >= 0,
                    "link graph must be connected");
      hops_[from][to] = dist[static_cast<size_t>(to)];
      if (to == from) continue;
      // Walk the path from `to`'s home back to the requester and record the
      // directed links it traverses (data flows dst -> src of the request).
      std::vector<int>& route = routes_[from * n + to];
      route.reserve(static_cast<size_t>(dist[static_cast<size_t>(to)]));
      for (int cur = to; parent[static_cast<size_t>(cur)] != -1;
           cur = parent[static_cast<size_t>(cur)]) {
        const int link =
            link_of[static_cast<size_t>(cur) * n + parent[static_cast<size_t>(cur)]];
        ELASTIC_CHECK(link >= 0, "no direct link between nodes");
        route.push_back(link);
      }
    }
  }
}

}  // namespace elastic::numasim
