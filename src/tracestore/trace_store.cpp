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

/// Bounds-checked fixed-width cursor (header/index/footer parsing).
class SpanReader {
 public:
  SpanReader(const char* data, std::size_t len) : data_(data), len_(len) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (len_ - pos_ < sizeof(T)) {
      throw TraceStoreError("trace-store: truncated structure at byte " +
                            std::to_string(pos_));
    }
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::string get_string(std::uint32_t len) {
    if (len_ - pos_ < len) {
      throw TraceStoreError("trace-store: truncated string at byte " +
                            std::to_string(pos_));
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return len_ - pos_; }

 private:
  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

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
  void read_at(std::uint64_t off, void* dst, std::size_t n) override {
    if (off > len_ || len_ - off < n) {
      throw TraceStoreError("trace-store: read past end of buffer (offset " +
                            std::to_string(off) + ")");
    }
    std::memcpy(dst, data_ + off, n);
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

bool is_v2_magic(const char* data, std::size_t len) {
  return len >= sizeof kMagicV2 &&
         std::memcmp(data, kMagicV2, sizeof kMagicV2) == 0;
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
    : out_(out), chunk_records_(chunk_records == 0 ? 1 : chunk_records) {
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
  if (f.inject_time != kNoCycle) {
    chunk_min_ = (chunk_min_ == kNoCycle) ? f.inject_time
                                          : std::min(chunk_min_, f.inject_time);
  }
  if (f.arrive_time != kNoCycle) {
    chunk_max_ = (chunk_max_ == kNoCycle) ? f.arrive_time
                                          : std::max(chunk_max_, f.arrive_time);
  }
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
    : source_(std::move(source)) {
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
  SpanReader fr(fbuf, sizeof fbuf);
  const auto index_offset = fr.get<std::uint64_t>();
  const auto chunk_count = fr.get<std::uint64_t>();
  record_count_ = fr.get<std::uint64_t>();
  content_hash_ = fr.get<std::uint64_t>();
  const auto footer_crc = fr.get<std::uint32_t>();
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
  SpanReader ir(ibuf.data(), ibuf.size());
  const auto index_crc = ir.get<std::uint32_t>();
  const auto index_len = ir.get<std::uint32_t>();
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
    c.file_offset = ir.get<std::uint64_t>();
    c.payload_len = ir.get<std::uint32_t>();
    c.record_count = ir.get<std::uint32_t>();
    c.first_record = ir.get<std::uint64_t>();
    c.min_cycle = ir.get<std::uint64_t>();
    c.max_cycle = ir.get<std::uint64_t>();
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
  if (!is_v2_magic(hbuf.data(), hbuf.size())) {
    throw TraceStoreError("trace-store: bad magic (not an SCTMTRC2 file)");
  }
  SpanReader hr(hbuf.data(), hbuf.size());
  hr.get_string(sizeof kMagicV2);  // skip magic
  const auto flags = hr.get<std::uint32_t>();
  if (flags != 0) {
    throw TraceStoreError("trace-store: unknown header flags " +
                          std::to_string(flags));
  }
  chunk_target_ = hr.get<std::uint32_t>();
  const auto app_len = hr.get<std::uint32_t>();
  meta_.app = hr.get_string(app_len);
  const auto net_len = hr.get<std::uint32_t>();
  meta_.capture_network = hr.get_string(net_len);
  meta_.nodes = hr.get<std::int32_t>();
  meta_.capture_runtime = hr.get<std::uint64_t>();
  meta_.seed = hr.get<std::uint64_t>();
  const std::size_t crc_pos = hr.pos();
  const auto header_crc = hr.get<std::uint32_t>();
  if (hr.remaining() != 0) {
    throw TraceStoreError("trace-store: header length mismatch");
  }
  if (crc32(hbuf.data(), crc_pos) != header_crc) {
    throw TraceStoreError("trace-store: header checksum mismatch");
  }
}

void TraceReader::read_payload(std::size_t i, std::vector<char>& buf) const {
  const ChunkInfo& info = chunks_[i];
  char hdr[kChunkHeaderBytes];
  source_->read_at(info.file_offset, hdr, sizeof hdr);
  SpanReader hr(hdr, sizeof hdr);
  const auto payload_crc = hr.get<std::uint32_t>();
  const auto payload_len = hr.get<std::uint32_t>();
  const auto record_count = hr.get<std::uint32_t>();
  const auto first_record = hr.get<std::uint64_t>();
  const auto min_cycle = hr.get<std::uint64_t>();
  const auto max_cycle = hr.get<std::uint64_t>();
  if (payload_len != info.payload_len || record_count != info.record_count ||
      first_record != info.first_record || min_cycle != info.min_cycle ||
      max_cycle != info.max_cycle) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " header disagrees with the index",
                          static_cast<std::int64_t>(i));
  }
  buf.resize(payload_len);
  source_->read_at(info.file_offset + kChunkHeaderBytes, buf.data(),
                   payload_len);
  if (crc32(buf.data(), buf.size()) != payload_crc) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " payload checksum mismatch",
                          static_cast<std::int64_t>(i));
  }
}

void TraceReader::decode_chunk(std::size_t i, std::vector<char>& buf,
                               ColumnSink& sink) const {
  read_payload(i, buf);
  try {
    tracestore::decode_chunk(buf.data(), buf.size(), chunks_[i].record_count,
                             sink);
  } catch (const std::runtime_error& e) {
    throw TraceStoreError("trace-store: chunk " + std::to_string(i) +
                              " decode failed: " + e.what(),
                          static_cast<std::int64_t>(i));
  }
}

/// The chunks of a v2 container as ingest blocks; a chunk's payload is read
/// into the decode buffer.
class TraceReader::ChunkBlocks final : public RecordBlocks {
 public:
  explicit ChunkBlocks(const TraceReader& reader) : reader_(reader) {
    for (std::size_t b = 0; b < reader.chunk_count(); ++b) {
      const ChunkInfo& c = reader.chunk_info(b);
      first.push_back(c.first_record + c.record_count);
      buffer_bytes = std::max<std::size_t>(buffer_bytes, c.payload_len);
      // The reader checked at open that the payload holds kMinRecordBytes
      // per record; each dependency takes kMinDepBytes of the rest.
      dep_bound += (c.payload_len - kMinRecordBytes * c.record_count) /
                   kMinDepBytes;
    }
    // decode_chunk makes at most payload / kMinDepBytes dep() calls, even
    // on a corrupt chunk.
    block_dep_bound = buffer_bytes / kMinDepBytes;
  }

  void decode(std::size_t b, std::vector<char>& buffer,
              ColumnSink& sink) override {
    reader_.decode_chunk(b, buffer, sink);
  }

 private:
  const TraceReader& reader_;
};

void TraceReader::ingest(trace::Trace& t, Children* children,
                         std::uint64_t* hash) const {
  static_cast<trace::TraceMeta&>(t) = meta_;
  ChunkBlocks blocks(*this);
  tracestore::ingest(blocks, t, children, hash);
  if (hash && *hash != content_hash_) {
    throw TraceStoreError("trace-store: content hash mismatch: stored " +
                          hash_hex(content_hash_) + ", computed " +
                          hash_hex(*hash));
  }
}

// ---------------------------------------------------------------------------
// verify

VerifyReport verify_v2_file(const std::string& path, bool deep) {
  VerifyReport rep;
  try {
    const TraceReader reader(open_file_source(path));
    rep.chunks = reader.chunk_count();
    trace::Trace t;
    std::uint64_t hash = 0;
    reader.ingest(t, nullptr, deep ? &hash : nullptr);
    rep.records = t.records.size();
    rep.hash_checked = deep;
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
