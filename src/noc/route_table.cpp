#include "noc/route_table.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace sctm::noc {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max() / 2;
}  // namespace

RoutingTable::RoutingTable(const Topology& topo,
                           std::optional<RoutingAlgo> algo)
    : topo_(topo), algo_(algo.value_or(default_algo(topo))) {
  nodes_ = topo_.node_count();
  stride_ = topo_.radix();
  if (table_backed()) {
    build_tables();
    return;
  }
  coords_.resize(static_cast<std::size_t>(nodes_));
  for (NodeId n = 0; n < nodes_; ++n) {
    coords_[static_cast<std::size_t>(n)] = topo_.coords(n);
  }
}

void RoutingTable::throw_invalid_node() {
  throw std::logic_error("RoutingTable::route: invalid node");
}

void RoutingTable::build_tables() {
  const int n = nodes_;
  const int stride = stride_;

  // BFS spanning-tree levels from root 0; (level, id) is the total order.
  std::vector<int> level(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  level[0] = 0;
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (int p = 0; p < stride; ++p) {
      const NodeId v = topo_.neighbor(u, p);
      if (v == kInvalidNode || level[static_cast<std::size_t>(v)] >= 0) {
        continue;
      }
      level[static_cast<std::size_t>(v)] =
          level[static_cast<std::size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (level[static_cast<std::size_t>(v)] < 0) {
      throw std::invalid_argument(
          "RoutingTable: topology is disconnected (node " + std::to_string(v) +
          " unreachable from node 0)");
    }
  }
  const auto ord_less = [&](NodeId a, NodeId b) {
    const int la = level[static_cast<std::size_t>(a)];
    const int lb = level[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  };

  up_.assign(static_cast<std::size_t>(n) * stride, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (int p = 0; p < stride; ++p) {
      const NodeId w = topo_.neighbor(v, p);
      if (w != kInvalidNode && ord_less(w, v)) {
        up_[static_cast<std::size_t>(v) * stride +
            static_cast<std::size_t>(p)] = 1;
      }
    }
  }

  // Ascending (level, id) order: up edges point to strictly earlier nodes,
  // so the du recurrence below is a single pass.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), ord_less);

  const std::size_t cells = static_cast<std::size_t>(n) * n;
  free_hop_.assign(cells, -1);
  down_hop_.assign(cells, -1);
  du_.assign(cells, 0);
  std::vector<int> dd(static_cast<std::size_t>(n));
  std::vector<int> duv(static_cast<std::size_t>(n));

  for (NodeId d = 0; d < n; ++d) {
    // dd[v]: shortest down-only distance v -> d. Backward BFS from d over
    // reversed down edges: a hop u -> w is down iff ord(u) < ord(w), so from
    // w we relax neighbors earlier in the order.
    std::fill(dd.begin(), dd.end(), kUnreachable);
    dd[static_cast<std::size_t>(d)] = 0;
    queue.clear();
    queue.push_back(d);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId w = queue[head];
      for (int p = 0; p < stride; ++p) {
        const NodeId u = topo_.neighbor(w, p);
        if (u == kInvalidNode || !ord_less(u, w) ||
            dd[static_cast<std::size_t>(u)] != kUnreachable) {
          continue;
        }
        dd[static_cast<std::size_t>(u)] = dd[static_cast<std::size_t>(w)] + 1;
        queue.push_back(u);
      }
    }

    // Down-committed next hop: the down edge with the smallest dd, ties to
    // the smallest port index (determinism).
    for (NodeId v = 0; v < n; ++v) {
      if (v == d || dd[static_cast<std::size_t>(v)] == kUnreachable) continue;
      int best = kUnreachable;
      int best_port = -1;
      for (int p = 0; p < stride; ++p) {
        const NodeId w = topo_.neighbor(v, p);
        if (w == kInvalidNode ||
            up_[static_cast<std::size_t>(v) * stride +
                static_cast<std::size_t>(p)]) {
          continue;
        }
        if (dd[static_cast<std::size_t>(w)] < best) {
          best = dd[static_cast<std::size_t>(w)];
          best_port = p;
        }
      }
      down_hop_[static_cast<std::size_t>(v) * n +
                static_cast<std::size_t>(d)] =
          static_cast<std::int16_t>(best_port);
    }

    // du[v] = min(dd[v], 1 + min over up edges v -> u of du[u]): the
    // shortest legal up*/down* distance. Up edges lead to earlier nodes in
    // the order, so one ascending pass settles every entry.
    for (const NodeId v : order) {
      if (v == d) {
        duv[static_cast<std::size_t>(v)] = 0;
        continue;
      }
      int best = dd[static_cast<std::size_t>(v)];
      int best_port = -1;  // -1: descend (take down_hop)
      for (int p = 0; p < stride; ++p) {
        const NodeId u = topo_.neighbor(v, p);
        if (u == kInvalidNode ||
            !up_[static_cast<std::size_t>(v) * stride +
                 static_cast<std::size_t>(p)]) {
          continue;
        }
        const int cand = 1 + duv[static_cast<std::size_t>(u)];
        if (cand < best) {
          best = cand;
          best_port = p;
        }
      }
      if (best >= kUnreachable) {
        throw std::logic_error(
            "RoutingTable: no legal up*/down* route (escape ordering bug)");
      }
      duv[static_cast<std::size_t>(v)] = best;
      const std::size_t cell =
          static_cast<std::size_t>(v) * n + static_cast<std::size_t>(d);
      free_hop_[cell] = best_port >= 0
                            ? static_cast<std::int16_t>(best_port)
                            : down_hop_[cell];
      du_[cell] = static_cast<std::uint16_t>(best);
    }
  }
}

RouteAudit audit_routes(const RoutingTable& rt) {
  const Topology& topo = rt.topology();
  const int n = topo.node_count();
  const int stride = topo.radix();
  RouteAudit audit;
  audit.cdg_acyclic = true;

  // Channel-dependency adjacency over directed channels. The vertex is
  // (link, dateline subclass) — wrap topologies break their physical-link
  // cycles with the dateline VC discipline, so the deadlock-relevant graph
  // is over VC subclasses, tracked here with exactly the router's rules
  // (wrap link -> subclass 1, dimension change -> subclass 0, else inherit).
  const std::size_t nchan =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(stride) * 2;
  std::vector<std::vector<int>> cdg(nchan);

  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      int hops = 0;
      int prev_chan = -1;
      int prev_axis = -1;
      int subclass = 0;
      bool committed_seen = false;
      try {
        rt.walk(s, d, [&](NodeId node, int port) {
          ++hops;
          if (topo.wrap_link(node, port)) {
            subclass = 1;
          } else if (prev_axis >= 0 &&
                     prev_axis != topo.port_axis(node, port)) {
            subclass = 0;
          }
          const int chan =
              (static_cast<int>(node) * stride + port) * 2 + subclass;
          if (prev_chan >= 0) {
            auto& next = cdg[static_cast<std::size_t>(prev_chan)];
            if (std::find(next.begin(), next.end(), chan) == next.end()) {
              next.push_back(chan);
            }
          }
          if (rt.table_backed()) {
            // No down -> up turn: the one structural property the deadlock
            // argument rests on.
            const bool up = rt.up_edge(node, port);
            if (committed_seen && up) {
              throw std::logic_error("down->up turn in table route");
            }
            if (!up) committed_seen = true;
          }
          prev_chan = chan;
          prev_axis = topo.port_axis(node, port);
        });
      } catch (const std::exception& e) {
        audit.error = "route " + std::to_string(s) + " -> " +
                      std::to_string(d) + ": " + e.what();
        return audit;
      }
      const int want = rt.table_backed() ? rt.valid_distance(s, d)
                                         : topo.distance(s, d);
      if (hops != want) {
        audit.error = "route " + std::to_string(s) + " -> " +
                      std::to_string(d) + ": length " + std::to_string(hops) +
                      ", expected " + std::to_string(want);
        return audit;
      }
      ++audit.routes_checked;
      audit.max_hops = std::max(audit.max_hops, hops);
    }
  }

  // Cycle check (iterative DFS, colors: 0 unvisited, 1 on stack, 2 done).
  std::vector<std::uint8_t> color(nchan, 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (std::size_t start = 0; start < nchan; ++start) {
    if (color[start] != 0) continue;
    stack.push_back({static_cast<int>(start), 0});
    color[start] = 1;
    while (!stack.empty()) {
      auto& [link, next_i] = stack.back();
      const auto& next = cdg[static_cast<std::size_t>(link)];
      if (next_i >= next.size()) {
        color[static_cast<std::size_t>(link)] = 2;
        stack.pop_back();
        continue;
      }
      const int succ = next[next_i++];
      if (color[static_cast<std::size_t>(succ)] == 1) {
        audit.cdg_acyclic = false;
        audit.error = "channel dependency cycle through channel " +
                      std::to_string(succ);
        return audit;
      }
      if (color[static_cast<std::size_t>(succ)] == 0) {
        color[static_cast<std::size_t>(succ)] = 1;
        stack.push_back({succ, 0});
      }
    }
  }

  audit.ok = true;
  return audit;
}

}  // namespace sctm::noc
