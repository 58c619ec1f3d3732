#include "tracestore/ingest.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::tracestore {
namespace {

/// A contract violation; `what` is empty when a dependency's parent id is
/// not among the records before it, which a search of every id later
/// classifies.
struct Violation {
  std::size_t record = SIZE_MAX;
  std::string what;
  MsgId parent = 0;
  bool found() const { return record != SIZE_MAX; }
};

[[noreturn]] void reject(const trace::Records& r, const Violation& v) {
  throw std::invalid_argument("ReplayTrace: record " +
                              std::to_string(v.record) + " (id " +
                              std::to_string(r.id[v.record]) + "): " + v.what);
}

/// Checks record i's id against record i - 1's and its endpoints against
/// [0, nodes); records `v` and returns false on the first violation.
bool check_order(const trace::Records& r, std::int32_t nodes, std::size_t i,
                 Violation& v) {
  if (i > 0 && r.id[i] <= r.id[i - 1]) {
    v = {i, "id does not exceed the previous record's id " +
                std::to_string(r.id[i - 1])};
    return false;
  }
  for (const NodeId node : {r.src[i], r.dst[i]}) {
    if (node < 0 || node >= nodes) {
      v = {i, "endpoint " + std::to_string(node) + " outside [0, " +
                  std::to_string(nodes) + ")"};
      return false;
    }
  }
  return true;
}

/// Checks record i, whose parents are resolved, against the contract's
/// time rules, compared without wrap-around: the record arrives no earlier
/// than it injects, and each parent arrives no later than it injects.
/// Records the first violation in `v`.
void check_time(const trace::Records& r, std::size_t i, Violation& v) {
  const Cycle inject = r.inject[i];
  if (r.arrive[i] < inject) {
    v = {i, "arrives at cycle " + std::to_string(r.arrive[i]) +
                ", before its injection at cycle " + std::to_string(inject)};
    return;
  }
  for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
    const std::uint32_t p = r.parent[k];
    if (r.arrive[p] > inject) {
      v = {i, "parent id " + std::to_string(r.id[p]) + " arrives at cycle " +
                  std::to_string(r.arrive[p]) +
                  ", after the injection at cycle " + std::to_string(inject)};
      return;
    }
  }
}

/// Turns the per-parent child counts in children.offset[p + 1] into
/// offsets and fills the children, in ascending dependent order: a parent
/// wakes its children in capture order, which replay dispatch relies on.
void fill_children(const trace::Records& r, Children& children) {
  std::vector<std::uint32_t>& offset = children.offset;
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<std::uint32_t> next(offset.begin(), offset.end() - 1);
  children.child.resize(r.parent.size());
  std::uint32_t* const child = children.child.data();
  const std::uint32_t* const parent = r.parent.data();
  std::uint32_t k = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const std::uint32_t end = r.dep_offset[i + 1]; k < end; ++k) {
      child[next[parent[k]]++] = i;
    }
  }
}

/// Decoding a chunk costs about twice checking it, so two decode workers
/// keep the in-order check folder busy; more would only hold more chunks'
/// dependencies in flight.
constexpr std::size_t kMaxWorkers = 2;

}  // namespace

void index_trace(const trace::Trace& t, Children& children,
                 std::uint64_t& hash) {
  const trace::Records& r = t.records;
  const std::size_t n = r.size();
  bool malformed = r.dep_offset.size() != n + 1 || r.dep_offset[0] != 0 ||
                   r.dep_offset[n] != r.parent.size() ||
                   !std::is_sorted(r.dep_offset.begin(), r.dep_offset.end());
  for (const std::size_t size :
       {r.src.size(), r.dst.size(), r.size_bytes.size(), r.cls.size(),
        r.proto.size(), r.inject.size(), r.arrive.size()}) {
    malformed |= size != n;
  }
  if (malformed) {
    throw std::invalid_argument("ReplayTrace: malformed record columns");
  }
  // As in a load, the first id or endpoint violation wins over any
  // dependency violation, that over any time violation, and among those the
  // first in record order.
  Violation order;
  Violation dep;
  Violation time;
  for (std::size_t i = 0; i < n; ++i) {
    if (!check_order(r, t.nodes, i, order)) reject(r, order);
    if (dep.found()) continue;
    const auto parents = std::span(r.parent).subspan(
        r.dep_offset[i], r.dep_offset[i + 1] - r.dep_offset[i]);
    const auto p = std::find_if(parents.begin(), parents.end(),
                                [i](std::uint32_t q) { return q >= i; });
    if (p == parents.end()) {
      if (!time.found()) check_time(r, i, time);
      continue;
    }
    dep = {i, *p < n ? "parent id " + std::to_string(r.id[*p]) +
                           " does not precede its dependent"
                     : "parent index " + std::to_string(*p) +
                           " outside the trace's " + std::to_string(n) +
                           " records"};
  }
  if (dep.found()) reject(r, dep);
  if (time.found()) reject(r, time);

  parallel_for(
      2,
      [&](std::size_t task) {
        if (task == 1) {
          hash = content_hash(t);
          return;
        }
        children.offset.assign(n + 1, 0);
        for (const std::uint32_t p : r.parent) ++children.offset[p + 1];
        fill_children(r, children);
      },
      2);
}

// Tasks of one parallel_for: 0 is the check folder, then the hash folder
// when a hash is asked for, the rest decode workers. Chunks are claimed in
// order through `claim`; a worker claims chunk b only while b < checked +
// window, which bounds the chunks whose dependencies are held, and the check
// folder decodes a chunk no worker has claimed yet itself. Only the check
// folder waits on a worker (for a chunk it claimed, which the worker is
// decoding), so no thread count deadlocks; with one thread the tasks run in
// order and the check folder decodes everything. Errors come in the order
// of a serial load (the file comment), so after a violation the check
// folder still consumes every chunk, checking ids and endpoints only.
void TraceReader::ingest(trace::Trace& t, Children* children,
                         std::uint64_t* hash) const {
  static_cast<trace::TraceMeta&>(t) = meta_;
  trace::Records& rec = t.records;
  const std::size_t chunks = chunks_.size();
  const std::size_t n = record_count_;
  if (n > UINT32_MAX) {
    throw std::length_error("ReplayTrace: " + std::to_string(n) +
                            " records exceed 2^32 - 1");
  }
  const auto first = [&](std::size_t b) {
    return static_cast<std::size_t>(chunks_[b].first_record);
  };
  const auto end_of = [&](std::size_t b) {
    return first(b) + chunks_[b].record_count;
  };
  // A decode yields at most one dependency per min_dep bytes of a chunk's
  // payload, even from a corrupt chunk before it fails, and a chunk that
  // decodes whole yields none from the min_record bytes each record's fields
  // take.
  const bool v1 = format_ == TraceFormat::kV1;
  const std::size_t min_record = v1 ? kV1RecordBytes : kMinRecordBytes;
  const std::size_t min_dep = v1 ? kV1DepBytes : kMinDepBytes;
  std::size_t buffer_bytes = 0;
  std::uint64_t dep_bound = 0;
  for (const ChunkInfo& c : chunks_) {
    buffer_bytes = std::max<std::size_t>(buffer_bytes, c.payload_len);
    dep_bound += (c.payload_len - min_record * c.record_count) / min_dep;
  }
  rec.id.resize(n);
  rec.src.resize(n);
  rec.dst.resize(n);
  rec.size_bytes.resize(n);
  rec.cls.resize(n);
  rec.proto.resize(n);
  rec.inject.resize(n);
  rec.arrive.resize(n);
  rec.dep_offset.assign(n + 1, 0);
  rec.parent.clear();
  rec.parent.reserve(dep_bound);
  if (children) children->offset.assign(n + 1, 0);

  const unsigned hw = default_parallelism();
  const std::size_t folders = hash ? 2 : 1;
  const std::size_t workers =
      hw > folders && chunks > 1
          ? std::min<std::size_t>({hw - folders, kMaxWorkers, chunks - 1})
          : 0;
  const std::size_t window =
      std::max<std::size_t>(1, std::min(chunks, 2 * (workers + 1)));
  // One read buffer per lane; a source that offers views decodes every
  // chunk in place and reads into none.
  std::vector<std::vector<char>> buffers(workers + 1);
  if (source_->view(0, 0) == nullptr) {
    for (auto& buffer : buffers) buffer.reserve(buffer_bytes);
  }
  // Chunk b's dependencies decode into slot b % window, which holds what
  // the largest payload can yield. Left uninitialized: only what a chunk
  // decodes is touched.
  const std::size_t slot_cap = buffer_bytes / min_dep;
  const auto slots = std::make_unique_for_overwrite<FileDep[]>(
      window * slot_cap);
  const auto slot = [&](std::size_t b) {
    return slots.get() + (b % window) * slot_cap;
  };

  enum : std::uint8_t { kPending, kDecoded, kFailed };
  std::vector<std::atomic<std::uint8_t>> state(chunks);
  std::vector<std::exception_ptr> decode_error(chunks);
  std::atomic<std::size_t> claim{0};
  std::atomic<std::size_t> checked{0};   // chunks the check folder consumed
  std::atomic<std::size_t> resolved{0};  // leading chunks free of violations
  std::atomic<bool> check_done{false};   // neither count moves any more
  std::exception_ptr error;
  Violation order_violation;  // ids and endpoints
  Violation dep_violation;
  Violation time_violation;

  const auto decode = [&](std::size_t b, std::size_t lane) {
    try {
      ColumnSink sink{rec, first(b), slot(b)};
      decode_chunk(b, buffers[lane], sink);
      state[b].store(kDecoded, std::memory_order_release);
    } catch (...) {
      decode_error[b] = std::current_exception();
      state[b].store(kFailed, std::memory_order_release);
    }
  };

  const auto worker = [&](std::size_t lane) {
    while (!check_done.load(std::memory_order_relaxed)) {
      std::size_t b = claim.load(std::memory_order_relaxed);
      if (b >= chunks) return;
      if (b >= checked.load(std::memory_order_acquire) + window) {
        std::this_thread::yield();
      } else if (claim.compare_exchange_weak(b, b + 1,
                                             std::memory_order_acq_rel)) {
        decode(b, lane);
      }
    }
  };

  // Resolves record i's dependencies into the parent CSR; false after the
  // first violation. Parents are looked up among records [0, i), whose ids
  // are checked ascending; a capture numbers records consecutively, so the
  // offset from the first id is tried before a binary search.
  std::uint32_t* const child_count =
      children ? children->offset.data() + 1 : nullptr;
  const auto resolve = [&](std::size_t i, const FileDep* d,
                           std::uint32_t count) {
    // dep_bound holds every dependency of a decodable trace, so the
    // push_backs never reallocate under the hash folder's reads.
    if (rec.parent.capacity() - rec.parent.size() < count) {
      throw std::logic_error("ReplayTrace: dependency bound exceeded");
    }
    const MsgId* ids = rec.id.data();
    const Cycle inject = rec.inject[i];
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
      if (rec.arrive[p] + d[k].slack != inject) {
        dep_violation = {i, "parent id " + std::to_string(parent) +
                                " arrival + slack does not reproduce the "
                                "injection"};
        return false;
      }
      rec.parent.push_back(static_cast<std::uint32_t>(p));
      if (child_count) ++child_count[p];
    }
    return true;
  };

  const auto check_folder = [&] {
    std::uint64_t deps = 0;
    for (std::size_t b = 0; b < chunks; ++b) {
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
      const FileDep* chunk_deps = slot(b);
      const std::size_t end = end_of(b);
      for (std::size_t i = first(b);
           i < end && !order_violation.found(); ++i) {
        if (!check_order(rec, t.nodes, i, order_violation) ||
            dep_violation.found()) {
          continue;
        }
        const std::uint32_t count = rec.dep_offset[i + 1];
        if (!resolve(i, chunk_deps, count)) continue;
        chunk_deps += count;
        deps += count;
        if (deps > UINT32_MAX) {
          throw std::length_error("ReplayTrace: more than 2^32 - 1 "
                                  "dependencies");
        }
        rec.dep_offset[i + 1] = static_cast<std::uint32_t>(deps);
        if (!time_violation.found()) check_time(rec, i, time_violation);
      }
      if (!order_violation.found() && !dep_violation.found()) {
        resolved.store(b + 1, std::memory_order_release);
      }
      checked.store(b + 1, std::memory_order_release);
    }
    if (order_violation.found() || dep_violation.found() || !children) {
      return;
    }
    fill_children(rec, *children);
  };

  // Folds the content hash over resolved chunks: each dependency's parent
  // id and slack come from the parent's row, which the check folder proved
  // equal to the stored ones.
  const auto hash_folder = [&] {
    Fnv1a64 h;
    hash_meta(h, t);
    for (std::size_t b = 0; b < chunks; ++b) {
      while (resolved.load(std::memory_order_acquire) <= b) {
        if (check_done.load(std::memory_order_acquire) &&
            resolved.load(std::memory_order_acquire) <= b) {
          return;
        }
        std::this_thread::yield();
      }
      hash_records(h, rec, first(b), end_of(b));
    }
    *hash = h.value();
  };

  const std::size_t tasks = folders + workers;
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
        } else if (task < folders) {
          hash_folder();
        } else {
          worker(task - folders + 1);
        }
      },
      static_cast<unsigned>(std::min<std::size_t>(hw, tasks)));

  if (error) std::rethrow_exception(error);
  if (order_violation.found()) reject(rec, order_violation);
  if (Violation& v = dep_violation; v.found()) {
    // Every id is known and ascending now: an absent parent is either a
    // later record or none at all.
    if (v.what.empty()) {
      v.what = std::binary_search(rec.id.begin(), rec.id.end(), v.parent)
                   ? "parent id " + std::to_string(v.parent) +
                         " does not precede its dependent"
                   : "unknown parent id " + std::to_string(v.parent);
    }
    reject(rec, v);
  }
  if (hash && format_ == TraceFormat::kV2 && *hash != content_hash_) {
    throw TraceStoreError("trace-store: content hash mismatch: stored " +
                          hash_hex(content_hash_) + ", computed " +
                          hash_hex(*hash));
  }
  if (time_violation.found()) reject(rec, time_violation);
}

}  // namespace sctm::tracestore
