// Topologies: regular 2D/3D fabrics and file-defined irregular graphs.
//
// The topology is a graph: every instance — mesh, torus, ring, mesh3d,
// torus3d, or a file-defined fabric — is backed by one immutable adjacency +
// per-node port table (neighbor ids, arrival ports, wrap flags, port axes)
// shared across copies. The regular kinds keep their closed-form coordinate
// accessors (coords/node_at/distance) so the legacy 2D surface is
// bit-identical to the enum-dispatch implementation, while routers, routing
// tables and tools read the graph and never special-case a kind.
//
// Port numbering is uniform across the regular kinds so routing functions
// stay topology-agnostic: directional ports first (kEast..kSouth, plus
// kUp/kDown on the 3D kinds, or the two ring directions), then one local
// port at index radix(). File-defined fabrics number a node's ports in edge
// declaration order and may have a different radix per node.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace sctm::noc {

enum Dir : int {
  kEast = 0,
  kWest = 1,
  kNorth = 2,
  kSouth = 3,
  // Third dimension (mesh3d/torus3d): kUp = z+1, kDown = z-1.
  kUp = 4,
  kDown = 5,
  // Ring aliases: clockwise (next node) / counter-clockwise.
  kRingCw = 0,
  kRingCcw = 1,
};

struct Coord {
  int x = 0;
  int y = 0;
  int z = 0;
  bool operator==(const Coord&) const = default;
};

class Topology {
 public:
  enum class Kind { kMesh, kTorus, kRing, kMesh3D, kTorus3D, kFile };

  static Topology mesh(int width, int height);
  static Topology torus(int width, int height);
  static Topology ring(int nodes);
  static Topology mesh3d(int x, int y, int z);
  static Topology torus3d(int x, int y, int z);

  /// Loads a file-defined fabric (see DESIGN.md §13 for the grammar):
  ///   nodes <N>
  ///   edge <a> <b>          # undirected; ports in declaration order
  ///   coord <n> <x> <y> [z] # optional placement (defaults to x=n)
  /// Malformed input throws std::runtime_error anchored as "<path>:<line>:".
  static Topology from_file(const std::string& path);
  /// from_file over in-memory text; errors are anchored to `source`.
  static Topology from_text(const std::string& text,
                            const std::string& source = "<topology>");

  Kind kind() const { return kind_; }
  int width() const { return dx_; }
  int height() const { return dy_; }
  int depth() const { return dz_; }
  int node_count() const { return nodes_; }

  /// Maximum directional ports per router (4 for mesh/torus, 2 for ring,
  /// 6 for the 3D kinds, the max degree for file fabrics).
  int radix() const { return radix_; }
  /// Directional ports of node `n` (== radix() except on file fabrics).
  int radix(NodeId n) const;
  /// Index of the local (ejection/injection) port. Uniform across nodes:
  /// every router reserves radix() directional slots; file-fabric nodes with
  /// fewer edges leave the tail slots disconnected.
  int local_port() const { return radix_; }
  /// Total ports per router including local.
  int port_count() const { return radix_ + 1; }

  Coord coords(NodeId n) const;
  NodeId node_at(Coord c) const;
  bool valid_node(NodeId n) const { return n >= 0 && n < nodes_; }

  // The per-port accessors below read the shared graph tables inline, so a
  // router's per-hop calls cost a bounds check and a load.

  /// Neighbor through directional port `dir`; kInvalidNode at a mesh edge or
  /// a disconnected file-fabric port slot.
  NodeId neighbor(NodeId n, int dir) const {
    return has_port(n, dir) ? graph_->nbr[cell(n, dir)] : kInvalidNode;
  }

  /// Port on the neighbor that a flit leaving `n` through `dir` arrives on.
  /// For the regular kinds this is opposite(dir) (ring: the other ring
  /// direction); file fabrics store it per edge.
  int arrival_port(NodeId n, int dir) const {
    return has_port(n, dir) ? graph_->arrival[cell(n, dir)] : -1;
  }

  /// The opposite of a 2D/3D lattice direction (E<->W, N<->S, U<->D);
  /// -1 otherwise. Ring and file fabrics need arrival_port().
  static int opposite(int dir);

  /// True when the link out of `n` through `dir` crosses the wrap-around
  /// seam of a torus/torus3d/ring dimension (dateline VC discipline).
  bool wrap_link(NodeId n, int dir) const {
    return has_port(n, dir) && graph_->wrap[cell(n, dir)] != 0;
  }

  /// True for the wrap-around kinds (torus, torus3d, ring): some links cross
  /// a dimension seam, so routers apply the dateline VC discipline.
  bool has_wrap_links() const {
    return kind_ == Kind::kTorus || kind_ == Kind::kTorus3D ||
           kind_ == Kind::kRing;
  }

  /// Dimension index of directional port `dir` at node `n` (x=0, y=1, z=2;
  /// both ring directions are axis 0; file-fabric ports are all axis 0 —
  /// irregular fabrics have no dateline discipline to key off axes).
  int port_axis(NodeId n, int dir) const {
    return has_port(n, dir) ? graph_->axis[cell(n, dir)] : 0;
  }

  /// Minimal hop count between two nodes: closed-form for the regular kinds,
  /// an all-pairs BFS table for file fabrics.
  int distance(NodeId a, NodeId b) const;

  /// Average minimal distance over all src!=dst pairs. One BFS pass per
  /// source over the adjacency (O(n * (n + edges))), not a distance() call
  /// per pair.
  double mean_distance() const;

  /// Longest shortest path over all pairs (BFS per source).
  int diameter() const;

  /// Directed (n, dir) pairs with a live neighbor — twice the edge count.
  int link_count() const;

  std::string describe() const;

  /// Memberwise for the regular kinds; structural (adjacency + coords) for
  /// file fabrics, so NetSpec equality (two specs build the same network)
  /// stays meaningful.
  bool operator==(const Topology& other) const;

 private:
  /// Immutable shared graph tables. Regular kinds fill them from the lattice
  /// formulas once at construction; file fabrics from the edge list.
  struct Graph {
    int stride = 0;                    // == max radix; row width of tables
    std::vector<NodeId> nbr;           // [n * stride + dir]; kInvalidNode hole
    std::vector<std::int16_t> arrival; // port on nbr; -1 hole
    std::vector<std::int8_t> axis;     // dimension of the port (0/1/2)
    std::vector<std::uint8_t> wrap;    // crosses a torus/ring seam
    std::vector<std::int16_t> degree;  // directional ports per node
    std::vector<Coord> coords;         // file fabrics only (regular: formula)
    std::vector<std::uint16_t> dist;   // file fabrics only: all-pairs BFS
  };

  Topology(Kind kind, int dx, int dy, int dz);
  void build_graph();
  bool has_port(NodeId n, int dir) const {
    return valid_node(n) && dir >= 0 && dir < radix_;
  }
  /// Index of (n, dir) in the graph tables.
  std::size_t cell(NodeId n, int dir) const {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(radix_) +
           static_cast<std::size_t>(dir);
  }
  static Topology parse(std::istream& in, const std::string& source);

  Kind kind_;
  int dx_;
  int dy_;
  int dz_;
  int nodes_;
  int radix_;
  std::shared_ptr<const Graph> graph_;
};

}  // namespace sctm::noc
