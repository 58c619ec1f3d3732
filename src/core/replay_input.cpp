#include "core/replay_input.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::core {

namespace {

[[noreturn]] void reject(std::uint32_t i, MsgId id, const std::string& what) {
  throw std::invalid_argument("ReplayTrace: record " + std::to_string(i) +
                              " (id " + std::to_string(id) + "): " + what);
}

/// Decoding a chunk costs about twice checking it, so two decode workers
/// keep the in-order check folder busy; more would only hold more chunks'
/// dependencies in flight.
constexpr std::size_t kMaxWorkers = 2;

/// A dependency as decoded, before the check folder resolves its parent.
struct RawDep {
  MsgId parent;
  Cycle slack;
};

/// An in-memory trace in blocks of the v2 writer's chunk size: decoding a
/// block copies its records' fields, and the check folder reads each
/// record's dependencies where they are.
class MemorySource {
 public:
  explicit MemorySource(const trace::Trace& t) : records_(t.records) {}

  std::size_t blocks() const {
    return (records_.size() + kBlock - 1) / kBlock;
  }
  std::size_t first(std::size_t b) const { return b * kBlock; }
  std::size_t end(std::size_t b) const {
    return std::min(first(b) + kBlock, records_.size());
  }
  std::uint64_t dep_bound() const {
    std::uint64_t deps = 0;
    for (const auto& r : records_) deps += r.deps.size();
    return deps;
  }
  void prepare(std::size_t /*lanes*/, std::size_t /*window*/) {}

  template <typename Sink>
  void decode(std::size_t b, std::size_t /*lane*/, Sink& sink) const {
    for (std::size_t i = first(b); i < end(b); ++i) {
      const trace::TraceRecord& r = records_[i];
      sink.record({r.id, r.src, r.dst, r.size_bytes, r.cls, r.proto,
                   r.inject_time, r.arrive_time, r.deps.size()});
    }
  }
  /// Record i's dependencies (block b; k dependencies precede them in it).
  const trace::TraceDep* deps(std::size_t /*b*/, std::size_t i,
                              std::uint64_t /*k*/) const {
    return records_[i].deps.data();
  }

 private:
  static constexpr std::size_t kBlock = tracestore::kDefaultChunkRecords;
  const std::vector<trace::TraceRecord>& records_;
};

/// The chunks of a v2 container. Decoding chunk b reads its payload into
/// the lane's buffer and its dependencies into slot b % window, where they
/// stay until the check folder has read them; every buffer is sized here,
/// on the loading thread, so no decode allocates.
class StoreSource {
 public:
  explicit StoreSource(const tracestore::TraceReader& reader)
      : reader_(reader) {}

  std::size_t blocks() const { return reader_.chunk_count(); }
  std::size_t first(std::size_t b) const {
    return reader_.chunk_info(b).first_record;
  }
  std::size_t end(std::size_t b) const {
    return first(b) + reader_.chunk_info(b).record_count;
  }
  /// A chunk that decodes holds at least kMinRecordBytes per record and
  /// kMinDepBytes per dependency (the reader checked the first at open).
  std::uint64_t dep_bound() const {
    std::uint64_t deps = 0;
    for (std::size_t b = 0; b < blocks(); ++b) {
      const tracestore::ChunkInfo& c = reader_.chunk_info(b);
      deps += (c.payload_len - tracestore::kMinRecordBytes * c.record_count) /
              tracestore::kMinDepBytes;
    }
    return deps;
  }
  void prepare(std::size_t lanes, std::size_t window) {
    std::size_t payload = 0;
    for (std::size_t b = 0; b < blocks(); ++b) {
      payload = std::max<std::size_t>(payload,
                                      reader_.chunk_info(b).payload_len);
    }
    buffers_.resize(lanes);
    for (auto& buf : buffers_) buf.reserve(payload);
    // decode_chunk makes at most payload / kMinDepBytes dep() calls, even
    // on a corrupt chunk. Left uninitialized: only what a chunk decodes
    // is touched.
    slot_cap_ = payload / tracestore::kMinDepBytes;
    window_ = window;
    slots_ = std::make_unique_for_overwrite<RawDep[]>(window * slot_cap_);
  }

  template <typename Sink>
  void decode(std::size_t b, std::size_t lane, Sink& sink) {
    sink.deps = slot(b);
    reader_.decode_chunk(b, buffers_[lane], sink);
  }
  const RawDep* deps(std::size_t b, std::size_t /*i*/,
                     std::uint64_t k) const {
    return slot(b) + k;
  }

 private:
  RawDep* slot(std::size_t b) const {
    return slots_.get() + (b % window_) * slot_cap_;
  }

  const tracestore::TraceReader& reader_;
  std::vector<std::vector<char>> buffers_;
  std::unique_ptr<RawDep[]> slots_;
  std::size_t slot_cap_ = 0;
  std::size_t window_ = 1;
};

}  // namespace

ReplayTrace::ReplayTrace(std::string app, std::string capture_network,
                         std::int32_t nodes, Cycle capture_runtime,
                         std::uint64_t seed)
    : app_(std::move(app)),
      capture_network_(std::move(capture_network)),
      nodes_(nodes),
      capture_runtime_(capture_runtime),
      seed_(seed) {}

ReplayTrace::ReplayTrace(const trace::Trace& t)
    : ReplayTrace(t.app, t.capture_network, t.nodes, t.capture_runtime,
                  t.seed) {
  MemorySource source(t);
  ingest(source);
}

ReplayTrace ReplayTrace::from_store(const tracestore::TraceReader& reader) {
  const tracestore::TraceMeta& m = reader.meta();
  ReplayTrace rt(m.app, m.capture_network, m.nodes, m.capture_runtime,
                 m.seed);
  StoreSource source(reader);
  rt.ingest(source);
  if (rt.content_hash_ != reader.stored_content_hash()) {
    throw tracestore::TraceStoreError(
        "trace-store: content hash mismatch: stored " +
        tracestore::hash_hex(reader.stored_content_hash()) + ", computed " +
        tracestore::hash_hex(rt.content_hash_));
  }
  return rt;
}

// Tasks of one parallel_for: 0 is the check folder, 1 the hash folder, the
// rest decode workers. Blocks are claimed in order through `claim`; a
// worker claims block b only while b < checked + window, which bounds the
// blocks whose dependencies are held, and the check folder decodes a block
// no worker has claimed yet itself. Only the check folder waits on a
// worker (for a block it claimed, which the worker is decoding), so no
// thread count deadlocks; with one thread the tasks run in order and the
// check folder decodes everything.
//
// Errors are reported in the order a serial load meets them, whatever the
// thread timing: the lowest block that fails to decode; else the first id
// or endpoint violation in record order; else the first dependency
// violation. So after a violation the check folder still consumes every
// block, checking ids and endpoints only.
template <typename Source>
void ReplayTrace::ingest(Source& source) {
  const std::size_t blocks = source.blocks();
  const std::size_t n = blocks == 0 ? 0 : source.end(blocks - 1);
  if (n > UINT32_MAX) {
    throw std::length_error("ReplayTrace: " + std::to_string(n) +
                            " records exceed 2^32 - 1");
  }
  id_.resize(n);
  src_.resize(n);
  dst_.resize(n);
  size_bytes_.resize(n);
  cls_.resize(n);
  proto_.resize(n);
  inject_.resize(n);
  arrive_.resize(n);
  dep_offset_.assign(n + 1, 0);
  child_offset_.assign(n + 1, 0);
  const std::uint64_t dep_bound = source.dep_bound();
  dep_parent_idx_.reserve(dep_bound);
  children_.reserve(dep_bound);
  std::vector<std::uint32_t> next_child(n);

  const unsigned hw = default_parallelism();
  const std::size_t workers =
      hw > 2 && blocks > 1
          ? std::min<std::size_t>({hw - 2, kMaxWorkers, blocks - 1})
          : 0;
  const std::size_t window =
      std::max<std::size_t>(1, std::min(blocks, 2 * (workers + 1)));
  source.prepare(workers + 1, window);

  enum : std::uint8_t { kPending, kDecoded, kFailed };
  std::vector<std::atomic<std::uint8_t>> state(blocks);
  std::vector<std::exception_ptr> decode_error(blocks);
  std::atomic<std::size_t> claim{0};
  std::atomic<std::size_t> checked{0};   // blocks the check folder consumed
  std::atomic<std::size_t> resolved{0};  // leading blocks free of violations
  std::atomic<bool> check_done{false};   // neither count moves any more
  std::exception_ptr error;

  // A contract violation the check folder found; `what` is empty when a
  // dependency's parent is not among the records before it, which a
  // search of every id later classifies.
  struct Violation {
    std::uint32_t record = UINT32_MAX;
    std::string what;
    MsgId parent = 0;
    bool found() const { return record != UINT32_MAX; }
  };
  Violation order_violation;  // ids and endpoints
  Violation dep_violation;

  // Receives one block's records: fields into the columns from record
  // `next` on, each record's dependency count into dep_offset_[next + 1]
  // (the check folder turns the counts into offsets), and its dependencies
  // at `deps`.
  struct ColumnSink {
    ReplayTrace& rt;
    std::size_t next;
    RawDep* deps;

    void record(const tracestore::RecordFields& f) {
      rt.id_[next] = f.id;
      rt.src_[next] = f.src;
      rt.dst_[next] = f.dst;
      rt.size_bytes_[next] = f.size_bytes;
      rt.cls_[next] = f.cls;
      rt.proto_[next] = f.proto;
      rt.inject_[next] = f.inject_time;
      rt.arrive_[next] = f.arrive_time;
      rt.dep_offset_[next + 1] = static_cast<std::uint32_t>(f.dep_count);
      ++next;
    }
    void dep(MsgId parent, Cycle slack) { *deps++ = {parent, slack}; }
  };

  const auto decode = [&](std::size_t b, std::size_t lane) {
    try {
      ColumnSink sink{*this, source.first(b), nullptr};
      source.decode(b, lane, sink);
      state[b].store(kDecoded, std::memory_order_release);
    } catch (...) {
      decode_error[b] = std::current_exception();
      state[b].store(kFailed, std::memory_order_release);
    }
  };

  const auto worker = [&](std::size_t lane) {
    while (!check_done.load(std::memory_order_relaxed)) {
      std::size_t b = claim.load(std::memory_order_relaxed);
      if (b >= blocks) return;
      if (b >= checked.load(std::memory_order_acquire) + window) {
        std::this_thread::yield();
      } else if (claim.compare_exchange_weak(b, b + 1,
                                             std::memory_order_acq_rel)) {
        decode(b, lane);
      }
    }
  };

  // Checks record i's id and endpoints; false after the first violation.
  const auto check_order = [&](std::uint32_t i) {
    if (i > 0 && id_[i] <= id_[i - 1]) {
      order_violation = {i,
                         "id does not exceed the previous record's id " +
                             std::to_string(id_[i - 1])};
      return false;
    }
    for (const NodeId node : {src_[i], dst_[i]}) {
      if (node < 0 || node >= nodes_) {
        order_violation = {i, "endpoint " + std::to_string(node) +
                                  " outside [0, " + std::to_string(nodes_) +
                                  ")"};
        return false;
      }
    }
    return true;
  };

  // Resolves record i's dependencies into the CSRs; false after the first
  // violation. Parents are looked up among records [0, i), whose ids are
  // checked ascending; TraceCapture numbers records consecutively, so the
  // offset from the first id is tried before a binary search.
  const auto resolve = [&](std::uint32_t i, const auto* d,
                           std::uint32_t count) {
    // dep_bound() holds every dependency of a decodable trace, so the
    // push_backs never reallocate under the hash folder's reads.
    if (dep_parent_idx_.capacity() - dep_parent_idx_.size() < count) {
      throw std::logic_error("ReplayTrace: dependency bound exceeded");
    }
    const MsgId* ids = id_.data();
    const Cycle inject = inject_[i];
    std::uint32_t* child_count = child_offset_.data() + 1;
    for (std::uint32_t k = 0; k < count; ++k) {
      const MsgId parent = d[k].parent;
      std::uint64_t p = parent - ids[0];
      if (p >= i || ids[p] != parent) {
        p = std::lower_bound(ids, ids + i, parent) - ids;
        if (p == i || ids[p] != parent) {
          dep_violation = {i, "", parent};
          return false;
        }
      }
      if (arrive_[p] + d[k].slack != inject) {
        dep_violation = {i,
                         "parent id " + std::to_string(parent) +
                             " arrival + slack does not reproduce the "
                             "injection"};
        return false;
      }
      dep_parent_idx_.push_back(static_cast<std::uint32_t>(p));
      ++child_count[p];
    }
    return true;
  };

  const auto check_folder = [&] {
    std::uint64_t deps = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::size_t unclaimed = b;
      if (claim.compare_exchange_strong(unclaimed, b + 1,
                                        std::memory_order_acq_rel)) {
        decode(b, 0);
      }
      while (state[b].load(std::memory_order_acquire) == kPending) {
        std::this_thread::yield();
      }
      if (state[b].load(std::memory_order_relaxed) == kFailed) {
        std::rethrow_exception(decode_error[b]);
      }
      const std::uint64_t block_deps = deps;
      const auto end = static_cast<std::uint32_t>(source.end(b));
      for (auto i = static_cast<std::uint32_t>(source.first(b));
           i < end && !order_violation.found(); ++i) {
        if (!check_order(i) || dep_violation.found()) continue;
        const std::uint32_t count = dep_offset_[i + 1];
        if (!resolve(i, source.deps(b, i, deps - block_deps), count)) {
          continue;
        }
        deps += count;
        if (deps > UINT32_MAX) {
          throw std::length_error("ReplayTrace: more than 2^32 - 1 "
                                  "dependencies");
        }
        dep_offset_[i + 1] = static_cast<std::uint32_t>(deps);
      }
      if (!order_violation.found() && !dep_violation.found()) {
        resolved.store(b + 1, std::memory_order_release);
      }
      checked.store(b + 1, std::memory_order_release);
    }
    if (order_violation.found() || dep_violation.found()) return;

    // Reverse CSR, filled in ascending dependent order: a parent wakes its
    // children in capture order, which replay dispatch relies on.
    for (std::size_t i = 0; i < n; ++i) {
      child_offset_[i + 1] += child_offset_[i];
    }
    std::copy(child_offset_.begin(), child_offset_.end() - 1,
              next_child.begin());
    children_.resize(deps);
    std::uint32_t* const children = children_.data();
    std::uint32_t* const next = next_child.data();
    const std::uint32_t* const parents = dep_parent_idx_.data();
    std::uint32_t k = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const std::uint32_t end = dep_offset_[i + 1]; k < end; ++k) {
        children[next[parents[k]]++] = i;
      }
    }
  };

  // Folds tracestore's canonical stream over resolved blocks: each
  // dependency's parent id and slack come from the parent's row, which the
  // check folder proved equal to the recorded ones.
  const std::uint32_t* parent_of = dep_parent_idx_.data();
  const auto hash_folder = [&] {
    tracestore::Fnv1a64 h;
    tracestore::hash_meta(h, app_, capture_network_, nodes_, capture_runtime_,
                          seed_);
    for (std::size_t b = 0; b < blocks; ++b) {
      while (resolved.load(std::memory_order_acquire) <= b) {
        if (check_done.load(std::memory_order_acquire) &&
            resolved.load(std::memory_order_acquire) <= b) {
          return;
        }
        std::this_thread::yield();
      }
      const auto end = static_cast<std::uint32_t>(source.end(b));
      for (auto i = static_cast<std::uint32_t>(source.first(b)); i < end;
           ++i) {
        const std::uint32_t k0 = dep_offset_[i];
        const std::uint32_t k1 = dep_offset_[i + 1];
        tracestore::hash_fields(h, {id_[i], src_[i], dst_[i], size_bytes_[i],
                                    cls_[i], proto_[i], inject_[i],
                                    arrive_[i], k1 - k0});
        for (std::uint32_t k = k0; k < k1; ++k) {
          const std::uint32_t p = parent_of[k];
          tracestore::hash_dep(h, id_[p], inject_[i] - arrive_[p]);
        }
      }
    }
    content_hash_ = h.value();
  };

  const std::size_t tasks = 2 + workers;
  parallel_for(
      tasks,
      [&](std::size_t task) {
        if (task == 0) {
          try {
            check_folder();
          } catch (...) {
            error = std::current_exception();
          }
          check_done.store(true, std::memory_order_release);
        } else if (task == 1) {
          hash_folder();
        } else {
          worker(task - 1);
        }
      },
      static_cast<unsigned>(std::min<std::size_t>(hw, tasks)));

  if (error) std::rethrow_exception(error);
  if (order_violation.found()) {
    reject(order_violation.record, id_[order_violation.record],
           order_violation.what);
  }
  if (const Violation& v = dep_violation; v.found()) {
    if (!v.what.empty()) reject(v.record, id_[v.record], v.what);
    // Every id is known and ascending now: an absent parent is either a
    // later record or none at all.
    reject(v.record, id_[v.record],
           std::binary_search(id_.begin(), id_.end(), v.parent)
               ? "parent id " + std::to_string(v.parent) +
                     " does not precede its dependent"
               : "unknown parent id " + std::to_string(v.parent));
  }
  finalized_ = true;
}

}  // namespace sctm::core
