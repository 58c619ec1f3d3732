#include "noc/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sctm::noc {
namespace {

/// BFS hop counts from `src` over the packed neighbor table. `out` is the
/// caller's scratch (distance per node, -1 unreachable); `queue` likewise.
void bfs_from(const std::vector<NodeId>& nbr, int stride, int nodes,
              NodeId src, std::vector<int>& out, std::vector<NodeId>& queue) {
  out.assign(static_cast<std::size_t>(nodes), -1);
  queue.clear();
  out[static_cast<std::size_t>(src)] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const int du = out[static_cast<std::size_t>(u)];
    const std::size_t row = static_cast<std::size_t>(u) * stride;
    for (int d = 0; d < stride; ++d) {
      const NodeId v = nbr[row + static_cast<std::size_t>(d)];
      if (v == kInvalidNode || out[static_cast<std::size_t>(v)] >= 0) continue;
      out[static_cast<std::size_t>(v)] = du + 1;
      queue.push_back(v);
    }
  }
}

}  // namespace

Topology::Topology(Kind kind, int dx, int dy, int dz)
    : kind_(kind),
      dx_(dx),
      dy_(dy),
      dz_(dz),
      nodes_(dx * dy * dz),
      radix_(0) {}

Topology Topology::mesh(int width, int height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Topology: non-positive dimension");
  }
  Topology t(Kind::kMesh, width, height, 1);
  t.radix_ = 4;
  t.build_graph();
  return t;
}

Topology Topology::torus(int width, int height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Topology: non-positive dimension");
  }
  Topology t(Kind::kTorus, width, height, 1);
  t.radix_ = 4;
  t.build_graph();
  return t;
}

Topology Topology::ring(int nodes) {
  if (nodes < 2) throw std::invalid_argument("Topology: ring needs >= 2 nodes");
  Topology t(Kind::kRing, nodes, 1, 1);
  t.radix_ = 2;
  t.build_graph();
  return t;
}

Topology Topology::mesh3d(int x, int y, int z) {
  if (x <= 0 || y <= 0 || z <= 0) {
    throw std::invalid_argument("Topology: non-positive dimension");
  }
  Topology t(Kind::kMesh3D, x, y, z);
  t.radix_ = 6;
  t.build_graph();
  return t;
}

Topology Topology::torus3d(int x, int y, int z) {
  if (x <= 0 || y <= 0 || z <= 0) {
    throw std::invalid_argument("Topology: non-positive dimension");
  }
  Topology t(Kind::kTorus3D, x, y, z);
  t.radix_ = 6;
  t.build_graph();
  return t;
}

/// Lattice adjacency for the regular kinds, packed into the shared tables:
/// the coordinate formulas run once here, and every later query is a row
/// lookup — the same code path file fabrics use.
void Topology::build_graph() {
  auto g = std::make_shared<Graph>();
  g->stride = radix_;
  const std::size_t cells =
      static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(radix_);
  g->nbr.assign(cells, kInvalidNode);
  g->arrival.assign(cells, -1);
  g->axis.assign(cells, 0);
  g->wrap.assign(cells, 0);
  g->degree.assign(static_cast<std::size_t>(nodes_),
                   static_cast<std::int16_t>(radix_));

  const bool wraps = kind_ == Kind::kTorus || kind_ == Kind::kTorus3D ||
                     kind_ == Kind::kRing;
  for (NodeId n = 0; n < nodes_; ++n) {
    const std::size_t row =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(radix_);
    if (kind_ == Kind::kRing) {
      g->nbr[row + kRingCw] = (n + 1) % nodes_;
      g->nbr[row + kRingCcw] = (n + nodes_ - 1) % nodes_;
      g->arrival[row + kRingCw] = kRingCcw;
      g->arrival[row + kRingCcw] = kRingCw;
      g->wrap[row + kRingCw] = (n == nodes_ - 1);
      g->wrap[row + kRingCcw] = (n == 0);
      continue;
    }
    const Coord c = coords(n);
    for (int dir = 0; dir < radix_; ++dir) {
      Coord t = c;
      bool crossed = false;
      switch (dir) {
        case kEast: t.x += 1; crossed = (c.x == dx_ - 1); break;
        case kWest: t.x -= 1; crossed = (c.x == 0); break;
        case kNorth: t.y -= 1; crossed = (c.y == 0); break;
        case kSouth: t.y += 1; crossed = (c.y == dy_ - 1); break;
        case kUp: t.z += 1; crossed = (c.z == dz_ - 1); break;
        case kDown: t.z -= 1; crossed = (c.z == 0); break;
      }
      g->axis[row + static_cast<std::size_t>(dir)] =
          static_cast<std::int8_t>(dir >> 1);
      if (wraps) {
        t.x = (t.x + dx_) % dx_;
        t.y = (t.y + dy_) % dy_;
        t.z = (t.z + dz_) % dz_;
        g->wrap[row + static_cast<std::size_t>(dir)] = crossed;
      } else if (t.x < 0 || t.x >= dx_ || t.y < 0 || t.y >= dy_ || t.z < 0 ||
                 t.z >= dz_) {
        continue;  // mesh edge: the port slot stays disconnected
      }
      g->nbr[row + static_cast<std::size_t>(dir)] = node_at(t);
      g->arrival[row + static_cast<std::size_t>(dir)] =
          static_cast<std::int16_t>(opposite(dir));
    }
  }
  graph_ = std::move(g);
}

// ---------------------------------------------------------------------------
// File-defined fabrics.

Topology Topology::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(path + ": cannot open topology file");
  }
  return parse(in, path);
}

Topology Topology::from_text(const std::string& text,
                             const std::string& source) {
  std::istringstream in(text);
  return parse(in, source);
}

Topology Topology::parse(std::istream& in, const std::string& source) {
  const auto at = [&source](int line) {
    return source + ":" + std::to_string(line) + ": ";
  };
  int nodes = -1;
  // Adjacency under construction: per node, (neighbor, port on neighbor).
  std::vector<std::vector<std::pair<NodeId, std::int16_t>>> adj;
  std::vector<Coord> coords;
  std::vector<std::uint8_t> coord_seen;
  std::vector<std::vector<NodeId>> edge_seen;  // smaller endpoint -> peers
  int edges = 0;

  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line

    const auto want_int = [&](const char* what) {
      long long v = 0;
      if (!(ls >> v)) {
        throw std::runtime_error(at(lineno) + "expected " + what + " after '" +
                                 word + "'");
      }
      return v;
    };
    const auto node_arg = [&](const char* what) {
      const long long v = want_int(what);
      if (v < 0 || v >= nodes) {
        throw std::runtime_error(at(lineno) + what + " " + std::to_string(v) +
                                 " out of range [0, " + std::to_string(nodes) +
                                 ")");
      }
      return static_cast<NodeId>(v);
    };

    if (word == "nodes") {
      if (nodes >= 0) {
        throw std::runtime_error(at(lineno) + "duplicate 'nodes' directive");
      }
      const long long v = want_int("node count");
      if (v < 1 || v > 65535) {
        throw std::runtime_error(at(lineno) + "node count must be in "
                                 "[1, 65535], got " + std::to_string(v));
      }
      nodes = static_cast<int>(v);
      adj.resize(static_cast<std::size_t>(nodes));
      coords.resize(static_cast<std::size_t>(nodes));
      for (NodeId n = 0; n < nodes; ++n) {
        coords[static_cast<std::size_t>(n)] = Coord{static_cast<int>(n), 0, 0};
      }
      coord_seen.assign(static_cast<std::size_t>(nodes), 0);
      edge_seen.resize(static_cast<std::size_t>(nodes));
      continue;
    }
    if (nodes < 0) {
      throw std::runtime_error(at(lineno) +
                               "'nodes <count>' must come before '" + word +
                               "'");
    }
    if (word == "edge") {
      const NodeId a = node_arg("edge endpoint");
      const NodeId b = node_arg("edge endpoint");
      if (a == b) {
        throw std::runtime_error(at(lineno) + "self-edge at node " +
                                 std::to_string(a));
      }
      const NodeId lo = std::min(a, b);
      const NodeId hi = std::max(a, b);
      auto& peers = edge_seen[static_cast<std::size_t>(lo)];
      if (std::find(peers.begin(), peers.end(), hi) != peers.end()) {
        throw std::runtime_error(at(lineno) + "duplicate edge " +
                                 std::to_string(a) + " " + std::to_string(b));
      }
      peers.push_back(hi);
      const auto pa = static_cast<std::int16_t>(adj[static_cast<std::size_t>(a)].size());
      const auto pb = static_cast<std::int16_t>(adj[static_cast<std::size_t>(b)].size());
      adj[static_cast<std::size_t>(a)].push_back({b, pb});
      adj[static_cast<std::size_t>(b)].push_back({a, pa});
      ++edges;
      continue;
    }
    if (word == "coord") {
      const NodeId n = node_arg("node");
      if (coord_seen[static_cast<std::size_t>(n)]) {
        throw std::runtime_error(at(lineno) + "duplicate coord for node " +
                                 std::to_string(n));
      }
      coord_seen[static_cast<std::size_t>(n)] = 1;
      Coord c;
      c.x = static_cast<int>(want_int("x coordinate"));
      c.y = static_cast<int>(want_int("y coordinate"));
      long long z = 0;
      if (ls >> z) c.z = static_cast<int>(z);
      if (c.x < 0 || c.y < 0 || c.z < 0) {
        throw std::runtime_error(at(lineno) + "negative coordinate for node " +
                                 std::to_string(n));
      }
      coords[static_cast<std::size_t>(n)] = c;
      continue;
    }
    throw std::runtime_error(at(lineno) + "unknown directive '" + word +
                             "' (known: nodes, edge, coord)");
  }
  if (nodes < 0) {
    throw std::runtime_error(source + ": missing 'nodes <count>' directive");
  }
  int radix = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    const int deg = static_cast<int>(adj[static_cast<std::size_t>(n)].size());
    if (deg == 0 && nodes > 1) {
      throw std::runtime_error(source + ": node " + std::to_string(n) +
                               " has no edges (fabric must be connected)");
    }
    radix = std::max(radix, deg);
  }

  Topology t(Kind::kFile, 1, 1, 1);
  t.nodes_ = nodes;
  t.radix_ = std::max(radix, 1);
  auto g = std::make_shared<Graph>();
  g->stride = t.radix_;
  const std::size_t cells =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(t.radix_);
  g->nbr.assign(cells, kInvalidNode);
  g->arrival.assign(cells, -1);
  g->axis.assign(cells, 0);
  g->wrap.assign(cells, 0);
  g->degree.assign(static_cast<std::size_t>(nodes), 0);
  for (NodeId n = 0; n < nodes; ++n) {
    const auto& row = adj[static_cast<std::size_t>(n)];
    g->degree[static_cast<std::size_t>(n)] =
        static_cast<std::int16_t>(row.size());
    for (std::size_t p = 0; p < row.size(); ++p) {
      g->nbr[static_cast<std::size_t>(n) * t.radix_ + p] = row[p].first;
      g->arrival[static_cast<std::size_t>(n) * t.radix_ + p] = row[p].second;
    }
  }
  g->coords = std::move(coords);
  for (const Coord& c : g->coords) {
    t.dx_ = std::max(t.dx_, c.x + 1);
    t.dy_ = std::max(t.dy_, c.y + 1);
    t.dz_ = std::max(t.dz_, c.z + 1);
  }

  // All-pairs BFS table; doubles as the connectivity check.
  g->dist.assign(static_cast<std::size_t>(nodes) *
                     static_cast<std::size_t>(nodes),
                 0);
  std::vector<int> d;
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < nodes; ++s) {
    bfs_from(g->nbr, t.radix_, nodes, s, d, queue);
    for (NodeId v = 0; v < nodes; ++v) {
      if (d[static_cast<std::size_t>(v)] < 0) {
        throw std::runtime_error(source + ": fabric is disconnected (node " +
                                 std::to_string(v) + " unreachable from node " +
                                 std::to_string(s) + ")");
      }
      g->dist[static_cast<std::size_t>(s) * nodes +
              static_cast<std::size_t>(v)] =
          static_cast<std::uint16_t>(d[static_cast<std::size_t>(v)]);
    }
  }
  t.graph_ = std::move(g);
  return t;
}

// ---------------------------------------------------------------------------
// Queries.

int Topology::radix(NodeId n) const {
  if (!valid_node(n)) return 0;
  return graph_->degree[static_cast<std::size_t>(n)];
}

Coord Topology::coords(NodeId n) const {
  if (kind_ == Kind::kFile) {
    if (!valid_node(n)) return {};
    return graph_->coords[static_cast<std::size_t>(n)];
  }
  const int i = static_cast<int>(n);
  return Coord{i % dx_, (i / dx_) % dy_, i / (dx_ * dy_)};
}

NodeId Topology::node_at(Coord c) const {
  if (kind_ == Kind::kFile) {
    for (NodeId n = 0; n < nodes_; ++n) {
      if (graph_->coords[static_cast<std::size_t>(n)] == c) return n;
    }
    return kInvalidNode;
  }
  return (c.z * dy_ + c.y) * dx_ + c.x;
}

int Topology::opposite(int dir) {
  switch (dir) {
    case kEast: return kWest;
    case kWest: return kEast;
    case kNorth: return kSouth;
    case kSouth: return kNorth;
    case kUp: return kDown;
    case kDown: return kUp;
    default: return -1;
  }
}

int Topology::distance(NodeId a, NodeId b) const {
  if (kind_ == Kind::kFile) {
    if (!valid_node(a) || !valid_node(b)) return 0;
    return graph_->dist[static_cast<std::size_t>(a) * nodes_ +
                        static_cast<std::size_t>(b)];
  }
  if (kind_ == Kind::kRing) {
    const int fwd = (static_cast<int>(b) - a + nodes_) % nodes_;
    return std::min(fwd, nodes_ - fwd);
  }
  const Coord ca = coords(a);
  const Coord cb = coords(b);
  int dx = std::abs(ca.x - cb.x);
  int dy = std::abs(ca.y - cb.y);
  int dz = std::abs(ca.z - cb.z);
  if (kind_ == Kind::kTorus || kind_ == Kind::kTorus3D) {
    dx = std::min(dx, dx_ - dx);
    dy = std::min(dy, dy_ - dy);
    dz = std::min(dz, dz_ - dz);
  }
  return dx + dy + dz;
}

double Topology::mean_distance() const {
  std::uint64_t total = 0;
  std::vector<int> d;
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < nodes_; ++s) {
    bfs_from(graph_->nbr, radix_, nodes_, s, d, queue);
    for (NodeId v = 0; v < nodes_; ++v) {
      total += static_cast<std::uint64_t>(d[static_cast<std::size_t>(v)]);
    }
  }
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(nodes_) * (nodes_ - 1);
  return pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
}

int Topology::diameter() const {
  int best = 0;
  std::vector<int> d;
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < nodes_; ++s) {
    bfs_from(graph_->nbr, radix_, nodes_, s, d, queue);
    for (NodeId v = 0; v < nodes_; ++v) {
      best = std::max(best, d[static_cast<std::size_t>(v)]);
    }
  }
  return best;
}

int Topology::link_count() const {
  int live = 0;
  for (const NodeId v : graph_->nbr) {
    if (v != kInvalidNode) ++live;
  }
  return live;
}

std::string Topology::describe() const {
  switch (kind_) {
    case Kind::kMesh:
      return "mesh " + std::to_string(dx_) + "x" + std::to_string(dy_);
    case Kind::kTorus:
      return "torus " + std::to_string(dx_) + "x" + std::to_string(dy_);
    case Kind::kRing:
      return "ring " + std::to_string(nodes_);
    case Kind::kMesh3D:
      return "mesh3d " + std::to_string(dx_) + "x" + std::to_string(dy_) +
             "x" + std::to_string(dz_);
    case Kind::kTorus3D:
      return "torus3d " + std::to_string(dx_) + "x" + std::to_string(dy_) +
             "x" + std::to_string(dz_);
    case Kind::kFile:
      return "file " + std::to_string(nodes_) + " nodes " +
             std::to_string(link_count() / 2) + " edges";
  }
  return "?";
}

bool Topology::operator==(const Topology& other) const {
  if (kind_ != other.kind_ || dx_ != other.dx_ || dy_ != other.dy_ ||
      dz_ != other.dz_ || nodes_ != other.nodes_) {
    return false;
  }
  if (kind_ != Kind::kFile) return true;
  if (graph_ == other.graph_) return true;
  return graph_->nbr == other.graph_->nbr &&
         graph_->coords == other.graph_->coords;
}

}  // namespace sctm::noc
