// Hand-built traces for tests, in both of a trace's forms.
//
// make_trace() builds the one in-memory form, trace::Trace, from records
// whose parents are named by id, as a capture would name them. A parent may
// name a later record, so a forward reference stays expressible; an id that
// names no record cannot be, because the form holds parent indices.
//
// FileTrace is the form the files store: every dependency a (parent id,
// slack) pair. A test corrupts a parent id, a slack or an injection time
// there, below the Trace, and writes the result as v1 or v2 bytes for the
// readers to reject.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"
#include "tracestore/chunk_codec.hpp"

namespace sctm::fixtures {

struct Rec {
  MsgId id = kInvalidMsg;
  NodeId src = 0;
  NodeId dst = 0;
  Cycle inject = 0;
  Cycle arrive = 0;
  std::vector<MsgId> parents = {};
  std::uint32_t bytes = 0;
  noc::MsgClass cls = noc::MsgClass::kRequest;
  std::uint8_t proto = 0;
};

/// A `nodes`-node trace of `recs` in order, app "synthetic" captured on
/// "test", whose capture runtime is the latest arrival.
inline trace::Trace make_trace(std::int32_t nodes,
                               const std::vector<Rec>& recs) {
  trace::Trace t;
  t.app = "synthetic";
  t.capture_network = "test";
  t.nodes = nodes;
  std::unordered_map<MsgId, std::uint32_t> index;
  for (std::uint32_t i = 0; i < recs.size(); ++i) index.emplace(recs[i].id, i);
  for (const Rec& r : recs) {
    t.records.append(r.id, r.src, r.dst, r.bytes, r.cls, r.proto, r.inject,
                     r.arrive);
    for (const MsgId p : r.parents) {
      const auto it = index.find(p);
      if (it == index.end()) {
        throw std::invalid_argument("make_trace: no record has id " +
                                    std::to_string(p));
      }
      t.records.add_parent(it->second);
    }
    if (r.arrive != kNoCycle) {
      t.capture_runtime = std::max(t.capture_runtime, r.arrive);
    }
  }
  return t;
}

/// Gives record i of `t` the parents `parents` (record indices), keeping
/// every other record's.
inline void replace_parents(trace::Trace& t, std::size_t i,
                            const std::vector<std::uint32_t>& parents) {
  const trace::Records old = t.records;
  trace::Records& r = t.records;
  r.parent.clear();
  r.dep_offset.assign(1, 0);
  for (std::size_t j = 0; j < old.size(); ++j) {
    if (j == i) {
      r.parent.insert(r.parent.end(), parents.begin(), parents.end());
    } else {
      r.parent.insert(r.parent.end(),
                      old.parent.begin() + old.dep_offset[j],
                      old.parent.begin() + old.dep_offset[j + 1]);
    }
    r.dep_offset.push_back(static_cast<std::uint32_t>(r.parent.size()));
  }
}

/// The two-record trace both golden byte-layout tests pin: record 1 (id 8)
/// depends on record 0 (id 7), which arrives at 20; 20 + slack 5 = 25.
inline trace::Trace golden_trace() {
  trace::Trace t =
      make_trace(2, {{7, 0, 1, 10, 20, {}, 64, noc::MsgClass::kData, 9},
                     {8, 1, 0, 25, 31, {7}, 8, noc::MsgClass::kReply, 3}});
  t.app = "ab";
  t.capture_network = "m";
  t.capture_runtime = 100;
  t.seed = 7;
  return t;
}

struct FileRecord {
  tracestore::RecordFields fields;
  std::vector<tracestore::FileDep> deps;
};

struct FileTrace {
  trace::TraceMeta meta;
  std::vector<FileRecord> records;
};

inline FileTrace file_form(const trace::Trace& t) {
  FileTrace f{t, {}};
  const trace::Records& r = t.records;
  for (std::size_t i = 0; i < r.size(); ++i) {
    FileRecord& rec = f.records.emplace_back();
    rec.fields = {r.id[i],     r.src[i],    r.dst[i],    r.size_bytes[i],
                  r.cls[i],    r.proto[i],  r.inject[i], r.arrive[i],
                  r.dep_count(i)};
    for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
      rec.deps.push_back({r.id[r.parent[k]], r.slack(i, r.parent[k])});
    }
  }
  return f;
}

/// The v2 container of `f`, in chunks of `chunk_records`, laid out as
/// tracestore/format.hpp and tracestore/chunk_codec.hpp document. The
/// footer's content hash folds `f` as stored, so a forged dependency keeps
/// the file's checksums and hash consistent.
inline std::string v2_bytes(
    const FileTrace& f,
    std::uint32_t chunk_records = tracestore::kDefaultChunkRecords) {
  const auto put = [](std::string& b, auto v) {
    b.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  tracestore::Fnv1a64 hash;
  const auto fold = [&hash](auto v) { hash.update(&v, sizeof v); };
  std::string b = "SCTMTRC2";
  put(b, std::uint32_t{0});  // flags
  put(b, chunk_records);
  for (const std::string* s : {&f.meta.app, &f.meta.capture_network}) {
    put(b, static_cast<std::uint32_t>(s->size()));
    b += *s;
    fold(static_cast<std::uint32_t>(s->size()));
    hash.update(s->data(), s->size());
  }
  put(b, f.meta.nodes);
  put(b, std::uint64_t{f.meta.capture_runtime});
  put(b, f.meta.seed);
  put(b, tracestore::crc32(b.data(), b.size()));
  fold(f.meta.nodes);
  fold(std::uint64_t{f.meta.capture_runtime});
  fold(f.meta.seed);

  std::string index;
  std::uint64_t chunks = 0;
  for (std::size_t first = 0; first < f.records.size();
       first += chunk_records, ++chunks) {
    const std::size_t end =
        std::min<std::size_t>(f.records.size(), first + chunk_records);
    tracestore::ChunkEncoder enc;
    enc.reset();
    Cycle lo = kNoCycle;  // no injection and no arrival seen yet
    Cycle hi = kNoCycle;
    for (std::size_t i = first; i < end; ++i) {
      tracestore::RecordFields r = f.records[i].fields;
      r.dep_count = f.records[i].deps.size();
      enc.record(r);
      fold(std::uint64_t{r.id});
      fold(r.src);
      fold(r.dst);
      fold(r.size_bytes);
      fold(static_cast<std::uint8_t>(r.cls));
      fold(r.proto);
      fold(std::uint64_t{r.inject_time});
      fold(std::uint64_t{r.arrive_time});
      fold(r.dep_count);
      for (const tracestore::FileDep& d : f.records[i].deps) {
        enc.dep(d.parent, d.slack);
        fold(std::uint64_t{d.parent});
        fold(std::uint64_t{d.slack});
      }
      lo = std::min(lo, r.inject_time);
      if (r.arrive_time != kNoCycle) {
        hi = hi == kNoCycle ? r.arrive_time : std::max(hi, r.arrive_time);
      }
    }
    const std::vector<char>& payload = enc.bytes();
    std::string entry;  // the chunk header after its checksum
    put(entry, static_cast<std::uint32_t>(payload.size()));
    put(entry, static_cast<std::uint32_t>(end - first));
    put(entry, std::uint64_t{first});
    put(entry, std::uint64_t{lo});
    put(entry, std::uint64_t{hi});
    put(index, std::uint64_t{b.size()});
    index += entry;
    put(b, tracestore::crc32(payload.data(), payload.size()));
    b += entry;
    b.append(payload.data(), payload.size());
  }
  const std::uint64_t index_offset = b.size();
  put(b, tracestore::crc32(index.data(), index.size()));
  put(b, static_cast<std::uint32_t>(index.size()));
  b += index;
  std::string footer;
  put(footer, index_offset);
  put(footer, chunks);
  put(footer, std::uint64_t{f.records.size()});
  put(footer, hash.value());
  put(footer, tracestore::crc32(footer.data(), footer.size()));
  return b + footer + "SCTMEND2";
}

/// The v1 bytes of `f`, laid out as tracestore/format.hpp documents.
inline std::string v1_bytes(const FileTrace& f) {
  std::string b;
  const auto put = [&b](auto v) {
    b.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto put_string = [&](const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    b += s;
  };
  b += "SCTMTRC1";
  put_string(f.meta.app);
  put_string(f.meta.capture_network);
  put(f.meta.nodes);
  put(std::uint64_t{f.meta.capture_runtime});
  put(f.meta.seed);
  put(std::uint64_t{f.records.size()});
  for (const FileRecord& r : f.records) {
    put(std::uint64_t{r.fields.id});
    put(r.fields.src);
    put(r.fields.dst);
    put(r.fields.size_bytes);
    put(static_cast<std::uint8_t>(r.fields.cls));
    put(r.fields.proto);
    put(std::uint64_t{r.fields.inject_time});
    put(std::uint64_t{r.fields.arrive_time});
    put(static_cast<std::uint16_t>(r.deps.size()));
    for (const tracestore::FileDep& d : r.deps) {
      put(std::uint64_t{d.parent});
      put(std::uint64_t{d.slack});
    }
  }
  return b;
}

}  // namespace sctm::fixtures
