#include "core/replay_input.hpp"

#include <algorithm>
#include <stdexcept>

#include "tracestore/trace_store.hpp"

namespace sctm::core {

namespace {

[[noreturn]] void reject(std::uint32_t i, MsgId id, const std::string& what) {
  throw std::invalid_argument("ReplayTrace: record " + std::to_string(i) +
                              " (id " + std::to_string(id) + "): " + what);
}

}  // namespace

ReplayTrace::ReplayTrace(const trace::Trace& t) {
  set_meta(t.app, t.capture_network, t.nodes, t.capture_runtime, t.seed);
  reserve(t.records.size());
  for (const auto& r : t.records) append(r);
  finalize();
}

ReplayTrace ReplayTrace::from_store(const tracestore::TraceReader& reader) {
  ReplayTrace rt;
  const tracestore::TraceMeta& m = reader.meta();
  rt.set_meta(m.app, m.capture_network, m.nodes, m.capture_runtime, m.seed);
  rt.reserve(reader.record_count());
  tracestore::ChunkCursor cursor(reader, /*prefetch=*/true);
  std::vector<trace::TraceRecord> chunk;
  while (cursor.next(chunk)) {
    for (const auto& r : chunk) rt.append(r);
  }
  rt.finalize();
  return rt;
}

void ReplayTrace::set_meta(std::string app, std::string capture_network,
                           std::int32_t nodes, Cycle capture_runtime,
                           std::uint64_t seed) {
  tracestore::Fnv1a64 h(hash_state_);
  tracestore::hash_meta(h, app, capture_network, nodes, capture_runtime, seed);
  hash_state_ = h.value();
  app_ = std::move(app);
  capture_network_ = std::move(capture_network);
  nodes_ = nodes;
  capture_runtime_ = capture_runtime;
  seed_ = seed;
}

void ReplayTrace::reserve(std::uint64_t records) {
  const auto n = static_cast<std::size_t>(records);
  id_.reserve(n);
  src_.reserve(n);
  dst_.reserve(n);
  size_bytes_.reserve(n);
  cls_.reserve(n);
  inject_.reserve(n);
  arrive_.reserve(n);
  dep_offset_.reserve(n + 1);
}

void ReplayTrace::append(const trace::TraceRecord& r) {
  if (finalized_) {
    throw std::logic_error("ReplayTrace: append after finalize");
  }
  if (dep_offset_.empty()) dep_offset_.push_back(0);
  tracestore::Fnv1a64 h(hash_state_);
  tracestore::hash_record(h, r);
  hash_state_ = h.value();
  id_.push_back(r.id);
  src_.push_back(r.src);
  dst_.push_back(r.dst);
  size_bytes_.push_back(r.size_bytes);
  cls_.push_back(r.cls);
  inject_.push_back(r.inject_time);
  arrive_.push_back(r.arrive_time);
  deps_.insert(deps_.end(), r.deps.begin(), r.deps.end());
  dep_offset_.push_back(static_cast<std::uint32_t>(deps_.size()));
}

void ReplayTrace::finalize() {
  if (finalized_) throw std::logic_error("ReplayTrace: finalize called twice");
  if (dep_offset_.empty()) dep_offset_.push_back(0);
  const std::uint32_t n = size();

  // Record order must be id order, so that "earlier record" and "smaller
  // id" agree and id_ is sorted.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i > 0 && id_[i] <= id_[i - 1]) {
      reject(i, id_[i],
             "id does not exceed the previous record's id " +
                 std::to_string(id_[i - 1]));
    }
    for (const NodeId node : {src_[i], dst_[i]}) {
      if (node < 0 || node >= nodes_) {
        reject(i, id_[i],
               "endpoint " + std::to_string(node) + " outside [0, " +
                   std::to_string(nodes_) + ")");
      }
    }
  }

  // Index of `id` in the sorted id_, or n when absent. TraceCapture numbers
  // records consecutively, so the offset from id_[0] is tried first.
  const auto index_of = [&](MsgId id) -> std::uint64_t {
    const std::uint64_t guess = id - id_[0];
    if (guess < n && id_[guess] == id) return guess;
    const auto it = std::lower_bound(id_.begin(), id_.end(), id);
    return it != id_.end() && *it == id ? it - id_.begin() : n;
  };

  dep_parent_idx_.resize(deps_.size());
  std::vector<std::uint32_t> child_count(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t k = dep_offset_[i]; k < dep_offset_[i + 1]; ++k) {
      const trace::TraceDep& d = deps_[k];
      const std::uint64_t found = index_of(d.parent);
      if (found == n) {
        reject(i, id_[i], "unknown parent id " + std::to_string(d.parent));
      }
      const auto p = static_cast<std::uint32_t>(found);
      if (p >= i) {
        reject(i, id_[i],
               "parent id " + std::to_string(d.parent) +
                   " does not precede its dependent");
      }
      if (arrive_[p] + d.slack != inject_[i]) {
        reject(i, id_[i],
               "parent id " + std::to_string(d.parent) +
                   " arrival + slack does not reproduce the injection");
      }
      dep_parent_idx_[k] = p;
      ++child_count[p];
    }
  }

  // Every slack is now proved derivable; keep the parent indices only.
  std::vector<trace::TraceDep>().swap(deps_);

  // Reverse CSR, filled in ascending dependent order: a parent wakes its
  // children in capture order, which replay dispatch relies on.
  child_offset_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    child_offset_[i + 1] = child_offset_[i] + child_count[i];
  }
  children_.resize(dep_parent_idx_.size());
  for_each_dep_edge([&](std::uint32_t i, std::uint32_t, std::uint32_t e) {
    children_[e] = i;
  });
  finalized_ = true;
}

}  // namespace sctm::core
