#include "tracestore/trace_store.hpp"

#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>


namespace sctm::tracestore {
namespace {

// --- little-endian scalar packing into a byte buffer --------------------

template <typename T>
void put(std::vector<char>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = buf.size();
  buf.resize(n + sizeof v);
  std::memcpy(buf.data() + n, &v, sizeof v);
}

// --- canonical content hashing: a record's fields, then its dependencies --

void hash_fields(Fnv1a64& h, const RecordFields& r) {
  h.update_scalar(r.id);
  h.update_scalar(r.src);
  h.update_scalar(r.dst);
  h.update_scalar(r.size_bytes);
  h.update_scalar(static_cast<std::uint8_t>(r.cls));
  h.update_scalar(r.proto);
  h.update_scalar(static_cast<std::uint64_t>(r.inject_time));
  h.update_scalar(static_cast<std::uint64_t>(r.arrive_time));
  h.update_scalar(r.dep_count);
}

void hash_dep(Fnv1a64& h, MsgId parent, Cycle slack) {
  h.update_scalar(static_cast<std::uint64_t>(parent));
  h.update_scalar(static_cast<std::uint64_t>(slack));
}

[[noreturn]] void fail_at(std::uint64_t pos, const std::string& what) {
  throw TraceStoreError("trace: " + what + " at byte " + std::to_string(pos));
}

/// Bounds-checked little-endian cursor over `len` bytes that sit at file
/// offset `base`: it reads both formats' fixed-width fields, and every error
/// names the file offset where reading stopped.
class Cursor {
 public:
  Cursor(const char* data, std::size_t len, std::uint64_t base)
      : data_(data), len_(len), base_(base) {}

  template <typename T>
  T get(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (len_ - pos_ < sizeof(T)) truncated(field, sizeof(T));
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  /// A u32 length of at most `max_len`, then that many bytes.
  std::string get_string(const char* field, std::uint32_t max_len) {
    const auto len = get<std::uint32_t>(field);
    if (len > max_len) {
      fail_at(pos() - 4, "absurd length " + std::to_string(len) + " for " +
                             field);
    }
    if (len_ - pos_ < len) fail_at(pos(), std::string("truncated ") + field);
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  /// File offset of the next byte.
  std::uint64_t pos() const { return base_ + pos_; }
  std::size_t remaining() const { return len_ - pos_; }

 private:
  // Out of line, so every get() inlines into the decode loops.
  [[noreturn, gnu::cold, gnu::noinline]] void truncated(
      const char* field, std::size_t need) const {
    fail_at(pos(), std::string("truncated input reading ") + field +
                       " (need " + std::to_string(need) + " bytes, " +
                       std::to_string(len_ - pos_) + " left)");
  }

  const char* data_;
  std::size_t len_;
  std::uint64_t base_;
  std::size_t pos_ = 0;
};

/// Widens [lo, hi] to a record's injection and arrival; an unset time
/// (kNoCycle) widens nothing.
void widen_cycles(Cycle& lo, Cycle& hi, Cycle inject, Cycle arrive) {
  if (inject != kNoCycle) lo = lo == kNoCycle ? inject : std::min(lo, inject);
  if (arrive != kNoCycle) hi = hi == kNoCycle ? arrive : std::max(hi, arrive);
}

/// v1's longest accepted app or network name, and so its longest header.
constexpr std::uint32_t kV1MaxName = 1u << 20;
constexpr std::size_t kV1MaxHeaderBytes = 2 * (4 + kV1MaxName) + 4 + 8 + 8 + 8;
/// Bytes the v1 scan reads at a time.
constexpr std::size_t kScanWindow = 64 << 10;

[[noreturn, gnu::cold, gnu::noinline]] void fail_class(std::uint64_t pos,
                                                     std::uint8_t cls,
                                                     std::uint64_t i) {
  fail_at(pos, "invalid message class " + std::to_string(cls) +
                   " in record " + std::to_string(i));
}

/// Reads v1 record i's fixed-width fields; the class byte must name a class.
/// Inlined into both the open-time scan and the chunk decode.
[[gnu::always_inline]] inline RecordFields read_v1_fields(Cursor& r,
                                                        std::uint64_t i) {
  RecordFields f;
  f.id = r.get<std::uint64_t>("record id");
  f.src = r.get<std::int32_t>("src");
  f.dst = r.get<std::int32_t>("dst");
  f.size_bytes = r.get<std::uint32_t>("size");
  const auto cls = r.get<std::uint8_t>("class");
  if (cls >= noc::kMsgClassCount) fail_class(r.pos() - 1, cls, i);
  f.cls = static_cast<noc::MsgClass>(cls);
  f.proto = r.get<std::uint8_t>("proto");
  f.inject_time = r.get<std::uint64_t>("inject time");
  f.arrive_time = r.get<std::uint64_t>("arrive time");
  f.dep_count = r.get<std::uint16_t>("dependency count");
  return f;
}

}  // namespace

// --- canonical content hashing ------------------------------------------
// The hash is over the *logical* trace (meta + records in v1 field order),
// not the container bytes, so a trace hashes identically in v1 and v2 form
// and `sctm_cli trace hash` is a format-independent identity. Declared in
// trace_store.hpp so core::ReplayTrace folds the same canonical field
// stream from its columns.

void hash_meta(Fnv1a64& h, const trace::TraceMeta& m) {
  h.update_scalar(static_cast<std::uint32_t>(m.app.size()));
  h.update(m.app.data(), m.app.size());
  h.update_scalar(static_cast<std::uint32_t>(m.capture_network.size()));
  h.update(m.capture_network.data(), m.capture_network.size());
  h.update_scalar(m.nodes);
  h.update_scalar(static_cast<std::uint64_t>(m.capture_runtime));
  h.update_scalar(m.seed);
}

void hash_records(Fnv1a64& h, const trace::Records& r, std::size_t begin,
                  std::size_t end) {
  const std::uint32_t* const parent = r.parent.data();
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t k0 = r.dep_offset[i];
    const std::uint32_t k1 = r.dep_offset[i + 1];
    hash_fields(h, {r.id[i], r.src[i], r.dst[i], r.size_bytes[i], r.cls[i],
                    r.proto[i], r.inject[i], r.arrive[i], k1 - k0});
    for (std::uint32_t k = k0; k < k1; ++k) {
      hash_dep(h, r.id[parent[k]], r.slack(i, parent[k]));
    }
  }
}

namespace {

// --- byte sources --------------------------------------------------------

class MemorySource final : public ByteSource {
 public:
  MemorySource(const char* data, std::size_t len) : data_(data), len_(len) {}
  std::uint64_t size() const override { return len_; }
  std::string name() const override { return "the input"; }
  void read_at(std::uint64_t off, void* dst, std::size_t n) override {
    std::memcpy(dst, view(off, n), n);
  }
  const char* view(std::uint64_t off, std::size_t n) override {
    if (off > len_ || len_ - off < n) {
      throw TraceStoreError("trace-store: read past end of buffer (offset " +
                            std::to_string(off) + ")");
    }
    return data_ + off;
  }

 private:
  const char* data_;
  std::size_t len_;
};

class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path)
      : in_(path, std::ios::binary), path_(path) {
    if (!in_) {
      throw TraceStoreError("trace-store: cannot open " + path);
    }
    in_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(in_.tellg());
  }
  std::uint64_t size() const override { return size_; }
  std::string name() const override { return path_; }
  void read_at(std::uint64_t off, void* dst, std::size_t n) override {
    // Serialized so parallel chunk decode can share the source; decode
    // itself (the expensive part) runs outside this lock.
    std::lock_guard<std::mutex> lock(mu_);
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(off));
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) {
      throw TraceStoreError("trace-store: short read from " + path_ +
                            " at offset " + std::to_string(off));
    }
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;
  std::mutex mu_;
};

/// The format whose magic `source` starts with.
TraceFormat magic_format(ByteSource& source) {
  char magic[8] = {};
  if (source.size() >= sizeof magic) {
    source.read_at(0, magic, sizeof magic);
    if (std::memcmp(magic, kMagicV1, sizeof magic) == 0) {
      return TraceFormat::kV1;
    }
    if (std::memcmp(magic, kMagicV2, sizeof magic) == 0) {
      return TraceFormat::kV2;
    }
  }
  throw TraceStoreError("trace: " + source.name() +
                        " starts with neither SCTMTRC1 nor SCTMTRC2");
}

}  // namespace

std::unique_ptr<ByteSource> open_file_source(const std::string& path) {
  return std::make_unique<FileSource>(path);
}

std::unique_ptr<ByteSource> memory_source(const char* data, std::size_t len) {
  return std::make_unique<MemorySource>(data, len);
}

std::string hash_hex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
    h >>= 4;
  }
  return s;
}

bool parse_hash_hex(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
  }
  if (out) *out = v;
  return true;
}

std::uint64_t content_hash(const trace::Trace& t) {
  Fnv1a64 h;
  hash_meta(h, t);
  hash_records(h, t.records, 0, t.records.size());
  return h.value();
}

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(std::ostream& out, const trace::TraceMeta& meta,
                         std::uint32_t chunk_records)
    : out_(out), chunk_records_(chunk_records) {
  if (chunk_records_ == 0) {
    throw std::invalid_argument(
        "trace-store: a chunk of 0 records; a chunk holds at least one");
  }
  std::vector<char> hdr;
  hdr.insert(hdr.end(), kMagicV2, kMagicV2 + sizeof kMagicV2);
  put<std::uint32_t>(hdr, 0);  // flags
  put<std::uint32_t>(hdr, chunk_records_);
  put<std::uint32_t>(hdr, static_cast<std::uint32_t>(meta.app.size()));
  hdr.insert(hdr.end(), meta.app.begin(), meta.app.end());
  put<std::uint32_t>(hdr,
                     static_cast<std::uint32_t>(meta.capture_network.size()));
  hdr.insert(hdr.end(), meta.capture_network.begin(),
             meta.capture_network.end());
  put<std::int32_t>(hdr, meta.nodes);
  put<std::uint64_t>(hdr, meta.capture_runtime);
  put<std::uint64_t>(hdr, meta.seed);
  put<std::uint32_t>(hdr, crc32(hdr.data(), hdr.size()));
  out_.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  if (!out_) throw TraceStoreError("trace-store: header write failed");
  offset_ = hdr.size();
  hash_meta(hash_, meta);
  encoder_.reset();
}

TraceWriter::~TraceWriter() = default;

void TraceWriter::append(RecordFields f, std::span<const FileDep> deps) {
  if (finished_) {
    throw std::logic_error("trace-store: append after finish");
  }
  f.dep_count = deps.size();
  encoder_.record(f);
  hash_fields(hash_, f);
  for (const FileDep& d : deps) {
    encoder_.dep(d.parent, d.slack);
    hash_dep(hash_, d.parent, d.slack);
  }
  widen_cycles(chunk_min_, chunk_max_, f.inject_time, f.arrive_time);
  ++records_;
  if (++in_chunk_ == chunk_records_) flush_chunk();
}

void TraceWriter::flush_chunk() {
  const auto& payload = encoder_.bytes();
  ChunkInfo info;
  info.file_offset = offset_;
  info.payload_len = static_cast<std::uint32_t>(payload.size());
  info.record_count = in_chunk_;
  info.first_record = records_ - in_chunk_;
  info.min_cycle = chunk_min_;
  info.max_cycle = chunk_max_;

  std::vector<char> hdr;
  hdr.reserve(kChunkHeaderBytes);
  put<std::uint32_t>(hdr, crc32(payload.data(), payload.size()));
  put<std::uint32_t>(hdr, info.payload_len);
  put<std::uint32_t>(hdr, info.record_count);
  put<std::uint64_t>(hdr, info.first_record);
  put<std::uint64_t>(hdr, info.min_cycle);
  put<std::uint64_t>(hdr, info.max_cycle);
  out_.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out_) throw TraceStoreError("trace-store: chunk write failed");
  offset_ += hdr.size() + payload.size();

  chunks_.push_back(info);
  encoder_.reset();
  in_chunk_ = 0;
  chunk_min_ = kNoCycle;
  chunk_max_ = kNoCycle;
}

void TraceWriter::finish() {
  if (finished_) {
    throw std::logic_error("trace-store: finish called twice");
  }
  if (in_chunk_ > 0) flush_chunk();
  finished_ = true;

  const std::uint64_t index_offset = offset_;
  std::vector<char> index;
  index.reserve(chunks_.size() * kIndexEntryBytes);
  for (const auto& c : chunks_) {
    put<std::uint64_t>(index, c.file_offset);
    put<std::uint32_t>(index, c.payload_len);
    put<std::uint32_t>(index, c.record_count);
    put<std::uint64_t>(index, c.first_record);
    put<std::uint64_t>(index, c.min_cycle);
    put<std::uint64_t>(index, c.max_cycle);
  }
  std::vector<char> tail;
  put<std::uint32_t>(tail, crc32(index.data(), index.size()));
  put<std::uint32_t>(tail, static_cast<std::uint32_t>(index.size()));
  tail.insert(tail.end(), index.begin(), index.end());

  std::vector<char> footer;
  put<std::uint64_t>(footer, index_offset);
  put<std::uint64_t>(footer, static_cast<std::uint64_t>(chunks_.size()));
  put<std::uint64_t>(footer, records_);
  put<std::uint64_t>(footer, hash_.value());
  put<std::uint32_t>(footer, crc32(footer.data(), footer.size()));
  footer.insert(footer.end(), kTrailerV2, kTrailerV2 + sizeof kTrailerV2);

  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out_) throw TraceStoreError("trace-store: footer write failed");
  offset_ += tail.size() + footer.size();
}

void write_v2(const trace::Trace& t, std::ostream& out,
              std::uint32_t chunk_records) {
  TraceWriter w(out, t, chunk_records);
  const trace::Records& r = t.records;
  std::vector<FileDep> deps;
  for (std::size_t i = 0; i < r.size(); ++i) {
    deps.clear();
    for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
      deps.push_back({r.id[r.parent[k]], r.slack(i, r.parent[k])});
    }
    w.append({r.id[i], r.src[i], r.dst[i], r.size_bytes[i], r.cls[i],
              r.proto[i], r.inject[i], r.arrive[i], deps.size()},
             deps);
  }
  w.finish();
}

void write_v2_file(const trace::Trace& t, const std::string& path,
                   std::uint32_t chunk_records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TraceStoreError("trace-store: cannot open " + path);
  write_v2(t, out, chunk_records);
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(std::unique_ptr<ByteSource> source)
    : source_(std::move(source)), format_(magic_format(*source_)) {
  if (format_ == TraceFormat::kV1) {
    open_v1();
  } else {
    open_v2();
  }
}

// The scan reads each record's fixed-width fields through a window of the
// source and skips its dependencies, so it holds one window of the file, not
// the file. It checks every field the decode would: the record count
// against the bytes, each class byte, each dependency count against the
// bytes left, and trailing bytes; so a v1 file fails here, at the byte
// offset where it is damaged, before any contract check.
void TraceReader::open_v1() {
  const std::uint64_t size = source_->size();
  // A memory source is scanned in place; any other through the window.
  const char* const image = source_->view(0, size);
  std::vector<char> window;
  std::uint64_t window_at = 0;
  // A cursor over the `n` bytes at `at`, or over the rest of the file when
  // fewer are left; `at` never moves back.
  const auto cursor = [&](std::uint64_t at, std::size_t n) {
    n = std::min<std::uint64_t>(n, size - at);
    if (image != nullptr) return Cursor(image + at, n, at);
    if (at + n > window_at + window.size()) {
      window.resize(std::max<std::uint64_t>(
          n, std::min<std::uint64_t>(kScanWindow, size - at)));
      if (!window.empty()) source_->read_at(at, window.data(), window.size());
      window_at = at;
    }
    return Cursor(window.data() + (at - window_at), n, at);
  };

  Cursor h = cursor(sizeof kMagicV1, kV1MaxHeaderBytes);
  meta_.app = h.get_string("app name", kV1MaxName);
  meta_.capture_network = h.get_string("capture network", kV1MaxName);
  meta_.nodes = h.get<std::int32_t>("node count");
  if (meta_.nodes < 0) fail_at(h.pos() - 4, "negative node count");
  meta_.capture_runtime = h.get<std::uint64_t>("capture runtime");
  meta_.seed = h.get<std::uint64_t>("seed");
  record_count_ = h.get<std::uint64_t>("record count");
  std::uint64_t at = h.pos();
  // A count beyond what the remaining bytes can hold is corruption, not a
  // large trace — reject it before reserving anything.
  if (record_count_ > (size - at) / kV1RecordBytes) {
    fail_at(at - 8, "record count " + std::to_string(record_count_) +
                        " exceeds remaining " + std::to_string(size - at) +
                        " bytes");
  }
  chunk_target_ = kDefaultChunkRecords;

  ChunkInfo c;  // the chunk being scanned
  for (std::uint64_t i = 0; i < record_count_; ++i) {
    Cursor r = cursor(at, kV1RecordBytes);
    const RecordFields f = read_v1_fields(r, i);
    const std::uint64_t left = size - r.pos();
    if (f.dep_count * kV1DepBytes > left) {
      fail_at(r.pos() - 2, "dependency count " + std::to_string(f.dep_count) +
                               " exceeds remaining " + std::to_string(left) +
                               " bytes in record " + std::to_string(i));
    }
    const std::uint64_t bytes = kV1RecordBytes + f.dep_count * kV1DepBytes;
    if (c.record_count == 0 || c.record_count == kDefaultChunkRecords ||
        c.payload_len + bytes > kV1ChunkBytes) {
      if (c.record_count > 0) chunks_.push_back(c);
      c = {.file_offset = at, .first_record = i};
    }
    c.payload_len += static_cast<std::uint32_t>(bytes);
    ++c.record_count;
    widen_cycles(c.min_cycle, c.max_cycle, f.inject_time, f.arrive_time);
    at += bytes;
  }
  if (c.record_count > 0) chunks_.push_back(c);
  if (at != size) {
    fail_at(at, std::to_string(size - at) +
                    " trailing bytes after the last record");
  }
}

void TraceReader::open_v2() {
  const std::uint64_t sz = source_->size();
  // Smallest valid file: 48-byte header (empty strings), empty index (8),
  // footer (44).
  constexpr std::uint64_t kMinHeader = 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4;
  if (sz < kMinHeader + 8 + kFooterBytes) {
    throw TraceStoreError("trace-store: file too small to be a v2 container (" +
                          std::to_string(sz) + " bytes)");
  }

  // Footer.
  char fbuf[kFooterBytes];
  source_->read_at(sz - kFooterBytes, fbuf, sizeof fbuf);
  if (std::memcmp(fbuf + 36, kTrailerV2, sizeof kTrailerV2) != 0) {
    throw TraceStoreError("trace-store: bad trailer magic (truncated file?)");
  }
  Cursor fr(fbuf, sizeof fbuf, sz - kFooterBytes);
  const auto index_offset = fr.get<std::uint64_t>("index offset");
  const auto chunk_count = fr.get<std::uint64_t>("chunk count");
  record_count_ = fr.get<std::uint64_t>("record count");
  content_hash_ = fr.get<std::uint64_t>("content hash");
  const auto footer_crc = fr.get<std::uint32_t>("footer checksum");
  if (crc32(fbuf, 32) != footer_crc) {
    throw TraceStoreError("trace-store: footer checksum mismatch");
  }
  if (chunk_count > (sz / kChunkHeaderBytes) + 1 ||
      index_offset + 8 + chunk_count * kIndexEntryBytes != sz - kFooterBytes) {
    throw TraceStoreError("trace-store: index span inconsistent with footer");
  }

  // Index.
  std::vector<char> ibuf(8 + chunk_count * kIndexEntryBytes);
  source_->read_at(index_offset, ibuf.data(), ibuf.size());
  Cursor ir(ibuf.data(), ibuf.size(), index_offset);
  const auto index_crc = ir.get<std::uint32_t>("index checksum");
  const auto index_len = ir.get<std::uint32_t>("index length");
  if (index_len != chunk_count * kIndexEntryBytes) {
    throw TraceStoreError("trace-store: index length field mismatch");
  }
  if (crc32(ibuf.data() + 8, index_len) != index_crc) {
    throw TraceStoreError("trace-store: index checksum mismatch");
  }
  chunks_.resize(chunk_count);
  std::uint64_t running_records = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    ChunkInfo& c = chunks_[i];
    c.file_offset = ir.get<std::uint64_t>("chunk offset");
    c.payload_len = ir.get<std::uint32_t>("payload length");
    c.record_count = ir.get<std::uint32_t>("record count");
    c.first_record = ir.get<std::uint64_t>("first record");
    c.min_cycle = ir.get<std::uint64_t>("min cycle");
    c.max_cycle = ir.get<std::uint64_t>("max cycle");
    if (c.first_record != running_records || c.record_count == 0) {
      throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                            " record range inconsistent");
    }
    // Readers reserve for the claimed count, so a count the payload cannot
    // hold must fail here rather than as an allocation of billions.
    if (c.record_count > c.payload_len / kMinRecordBytes) {
      throw TraceStoreError(
          "trace-store: chunk " + std::to_string(i) + " claims " +
              std::to_string(c.record_count) + " records in a " +
              std::to_string(c.payload_len) + "-byte payload",
          static_cast<std::int64_t>(i));
    }
    running_records += c.record_count;
    const std::uint64_t end = c.file_offset + kChunkHeaderBytes +
                              c.payload_len;
    if (end > index_offset) {
      throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                            " extends past the index");
    }
    if (i > 0) {
      const ChunkInfo& p = chunks_[i - 1];
      if (p.file_offset + kChunkHeaderBytes + p.payload_len !=
          c.file_offset) {
        throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " is not contiguous with its predecessor");
      }
    }
  }
  if (running_records != record_count_) {
    throw TraceStoreError("trace-store: chunk record counts do not sum to "
                          "the footer record count");
  }
  if (!chunks_.empty()) {
    const ChunkInfo& last = chunks_.back();
    if (last.file_offset + kChunkHeaderBytes + last.payload_len !=
        index_offset) {
      throw TraceStoreError(
          "trace-store: gap between the last chunk and the index");
    }
  }

  // Header (its exact length is the first chunk's offset).
  const std::uint64_t header_len =
      chunks_.empty() ? index_offset : chunks_.front().file_offset;
  if (header_len < kMinHeader || header_len > (1u << 22)) {
    throw TraceStoreError("trace-store: implausible header length " +
                          std::to_string(header_len));
  }
  std::vector<char> hbuf(header_len);
  source_->read_at(0, hbuf.data(), hbuf.size());
  Cursor hr(hbuf.data() + sizeof kMagicV2, hbuf.size() - sizeof kMagicV2,
            sizeof kMagicV2);
  const auto flags = hr.get<std::uint32_t>("header flags");
  if (flags != 0) {
    throw TraceStoreError("trace-store: unknown header flags " +
                          std::to_string(flags));
  }
  chunk_target_ = hr.get<std::uint32_t>("chunk target");
  meta_.app = hr.get_string("app name", UINT32_MAX);
  meta_.capture_network = hr.get_string("capture network", UINT32_MAX);
  meta_.nodes = hr.get<std::int32_t>("node count");
  meta_.capture_runtime = hr.get<std::uint64_t>("capture runtime");
  meta_.seed = hr.get<std::uint64_t>("seed");
  const std::size_t crc_pos = hr.pos();
  const auto header_crc = hr.get<std::uint32_t>("header checksum");
  if (hr.remaining() != 0) {
    throw TraceStoreError("trace-store: header length mismatch");
  }
  if (crc32(hbuf.data(), crc_pos) != header_crc) {
    throw TraceStoreError("trace-store: header checksum mismatch");
  }
}

const char* TraceReader::bytes_at(std::uint64_t off, std::size_t n,
                                  std::vector<char>& buf) const {
  if (const char* p = source_->view(off, n)) return p;
  buf.resize(n);
  source_->read_at(off, buf.data(), n);
  return buf.data();
}

const char* TraceReader::read_payload(std::size_t i,
                                      std::vector<char>& buf) const {
  const ChunkInfo& info = chunks_[i];
  char hdr[kChunkHeaderBytes];
  source_->read_at(info.file_offset, hdr, sizeof hdr);
  Cursor hr(hdr, sizeof hdr, info.file_offset);
  const auto payload_crc = hr.get<std::uint32_t>("payload checksum");
  const auto payload_len = hr.get<std::uint32_t>("payload length");
  const auto record_count = hr.get<std::uint32_t>("record count");
  const auto first_record = hr.get<std::uint64_t>("first record");
  const auto min_cycle = hr.get<std::uint64_t>("min cycle");
  const auto max_cycle = hr.get<std::uint64_t>("max cycle");
  if (payload_len != info.payload_len || record_count != info.record_count ||
      first_record != info.first_record || min_cycle != info.min_cycle ||
      max_cycle != info.max_cycle) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " header disagrees with the index",
                          static_cast<std::int64_t>(i));
  }
  const char* payload =
      bytes_at(info.file_offset + kChunkHeaderBytes, payload_len, buf);
  if (crc32(payload, payload_len) != payload_crc) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " payload checksum mismatch",
                          static_cast<std::int64_t>(i));
  }
  return payload;
}

void TraceReader::decode_chunk(std::size_t i, std::vector<char>& buf,
                               ColumnSink& sink) const {
  if (format_ == TraceFormat::kV1) {
    const ChunkInfo& c = chunks_[i];
    Cursor r(bytes_at(c.file_offset, c.payload_len, buf), c.payload_len,
             c.file_offset);
    for (std::uint64_t k = 0; k < c.record_count; ++k) {
      const RecordFields f = read_v1_fields(r, c.first_record + k);
      sink.record(f);
      for (std::uint64_t d = 0; d < f.dep_count; ++d) {
        const auto parent = r.get<std::uint64_t>("dependency parent");
        sink.dep(parent, r.get<std::uint64_t>("dependency slack"));
      }
    }
    return;
  }
  const char* payload = read_payload(i, buf);
  try {
    tracestore::decode_chunk(payload, chunks_[i].payload_len,
                             chunks_[i].record_count, sink);
  } catch (const std::runtime_error& e) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " decode failed: " + e.what(),
                          static_cast<std::int64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// verify

VerifyReport verify_file(const std::string& path, bool deep) {
  std::unique_ptr<ByteSource> source = open_file_source(path);
  VerifyReport rep;
  try {
    rep.format = magic_format(*source);
    const TraceReader reader(std::move(source));
    rep.chunks = reader.chunk_count();
    trace::Trace t;
    std::uint64_t hash = 0;
    const bool check_hash = deep && rep.format == TraceFormat::kV2;
    reader.ingest(t, nullptr, check_hash ? &hash : nullptr);
    rep.records = t.records.size();
    rep.hash_checked = check_hash;
    rep.ok = true;
  } catch (const TraceStoreError& e) {
    rep.error = e.what();
    rep.bad_chunk = e.chunk();
  } catch (const std::logic_error& e) {  // the trace contract
    rep.error = e.what();
  }
  return rep;
}

}  // namespace sctm::tracestore
