// Trace files: the v2 container's streaming writer, the one reader of both
// formats, and whole-file helpers. See format.hpp for the byte layouts and
// DESIGN.md §8 for the rationale and compatibility policy.
//
// TraceWriter appends records with bounded memory (one encoded chunk plus
// the growing 40-byte-per-chunk index), so a capture farm can stream a
// multi-gigabyte trace to disk without ever materializing it. TraceReader
// opens either format by its magic: it parses a v2 file's header, index and
// footer eagerly (validating their checksums), and scans a v1 file's record
// boundaries into chunks. It then serves chunks on demand, in any order and
// from any thread: chunks are independent, so a whole-trace load decodes
// them in parallel through the one ingest (ingest.hpp), which proves the
// trace contract.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "tracestore/chunk_codec.hpp"
#include "tracestore/format.hpp"
#include "tracestore/ingest.hpp"

namespace sctm::tracestore {

/// Trace file error with an optional offending chunk index (-1 when the
/// damage is in a v2 header, index or footer, or in a v1 file).
class TraceStoreError : public std::runtime_error {
 public:
  TraceStoreError(std::string what, std::int64_t chunk = -1)
      : std::runtime_error(std::move(what)), chunk_(chunk) {}
  /// Offending v2 chunk, or -1.
  std::int64_t chunk() const { return chunk_; }

 private:
  std::int64_t chunk_;
};

/// One chunk as described by the (crc-protected) index of a v2 file, or as
/// the open-time scan of a v1 file found it.
struct ChunkInfo {
  /// Of the chunk header (its crc32 field) in v2, of the first record in v1.
  std::uint64_t file_offset = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t record_count = 0;
  std::uint64_t first_record = 0;
  Cycle min_cycle = kNoCycle;  // smallest inject_time in the chunk
  Cycle max_cycle = kNoCycle;  // largest arrive_time in the chunk
};

// ---------------------------------------------------------------------------
// Byte sources: random access over a file or a memory span.

class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::uint64_t size() const = 0;
  /// The source as errors name it: a file's path.
  virtual std::string name() const = 0;
  /// Reads exactly [off, off+n); throws TraceStoreError on a short read.
  /// Implementations are safe to call from one thread at a time; FileSource
  /// additionally serializes internally so parallel chunk decode can share
  /// one source.
  virtual void read_at(std::uint64_t off, void* dst, std::size_t n) = 0;
  /// [off, off+n) in place, valid while the source lives, when the source
  /// holds its bytes in memory; nullptr when it must read_at() them. A
  /// memory source throws TraceStoreError, as read_at() does, when the
  /// range runs past its end. Safe to call from any thread.
  virtual const char* view(std::uint64_t /*off*/, std::size_t /*n*/) {
    return nullptr;
  }
};

/// Opens `path` for random access (throws TraceStoreError when unreadable).
std::unique_ptr<ByteSource> open_file_source(const std::string& path);

/// Wraps caller-owned bytes (the caller keeps them alive). Readers decode
/// and check them in place (ByteSource::view), without copying.
std::unique_ptr<ByteSource> memory_source(const char* data, std::size_t len);

// ---------------------------------------------------------------------------
// Writer

class TraceWriter {
 public:
  /// Starts a container on `out` (header is written immediately). The
  /// stream must remain valid until finish(). Throws std::invalid_argument
  /// when `chunk_records` is 0.
  TraceWriter(std::ostream& out, const trace::TraceMeta& meta,
              std::uint32_t chunk_records = kDefaultChunkRecords);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one record in the file's form: its fields (dep_count is
  /// taken from `deps`) and its dependencies as (parent id, slack) pairs.
  void append(RecordFields fields, std::span<const FileDep> deps);

  /// Flushes the pending chunk and writes the index + footer. Must be
  /// called exactly once; append() is invalid afterwards.
  void finish();

  std::uint64_t records_written() const { return records_; }
  /// Content hash accumulated so far (final once finish() was called).
  std::uint64_t content_hash() const { return hash_.value(); }

 private:
  void flush_chunk();

  std::ostream& out_;
  std::uint32_t chunk_records_;
  ChunkEncoder encoder_;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t offset_ = 0;  // bytes written so far
  std::uint64_t records_ = 0;
  std::uint32_t in_chunk_ = 0;
  Cycle chunk_min_ = kNoCycle;
  Cycle chunk_max_ = kNoCycle;
  Fnv1a64 hash_;
  bool finished_ = false;
};

/// Serializes a whole in-memory trace as v2.
void write_v2(const trace::Trace& t, std::ostream& out,
              std::uint32_t chunk_records = kDefaultChunkRecords);
void write_v2_file(const trace::Trace& t, const std::string& path,
                   std::uint32_t chunk_records = kDefaultChunkRecords);

/// Content hash of a trace independent of container format: FNV-1a/64 over
/// the canonical little-endian field stream (meta, then every record in v1
/// field order, each dependency as its parent's id and the derived slack).
/// A v1 file and its v2 conversion hash identically.
std::uint64_t content_hash(const trace::Trace& t);

/// Incremental pieces of content_hash(): fold the meta first, then every
/// record in order, each as its fields followed by its dependencies.
void hash_meta(Fnv1a64& h, const trace::TraceMeta& m);

/// Folds records [begin, end) of `r`, whose earlier records are folded.
void hash_records(Fnv1a64& h, const trace::Records& r, std::size_t begin,
                  std::size_t end);

// ---------------------------------------------------------------------------
// Reader

/// The one way to open a trace file, v1 or v2.
class TraceReader {
 public:
  /// Reads the magic, then opens the file: a v2 file's header, index and
  /// footer are parsed and validated (checksums included), and a v1 file's
  /// header is parsed and its records scanned into chunks, checking every
  /// fixed-width field. Throws TraceStoreError on any inconsistency, and
  /// names the source when it starts with neither magic.
  explicit TraceReader(std::unique_ptr<ByteSource> source);

  static TraceReader open_file(const std::string& path) {
    return TraceReader(open_file_source(path));
  }

  TraceFormat format() const { return format_; }
  const trace::TraceMeta& meta() const { return meta_; }
  std::uint64_t record_count() const { return record_count_; }
  /// The footer's content hash; 0 for v1, which stores none.
  std::uint64_t stored_content_hash() const { return content_hash_; }
  /// The most records a chunk holds: the header's (v2) or the scan's (v1).
  std::uint32_t chunk_target() const { return chunk_target_; }
  std::uint64_t file_bytes() const { return source_->size(); }

  std::size_t chunk_count() const { return chunks_.size(); }
  const ChunkInfo& chunk_info(std::size_t i) const { return chunks_[i]; }

  /// Decodes every chunk into `t`, meta included, through the one ingest
  /// (ingest.hpp), which proves the trace contract. With `children`, also
  /// fills the children CSR. With `hash`, also recomputes the content hash
  /// into it, throwing TraceStoreError naming both hashes when a v2
  /// footer's differs.
  void ingest(trace::Trace& t, Children* children, std::uint64_t* hash) const;

  /// ingest() without the children or the hash check.
  trace::Trace read_all() const {
    trace::Trace t;
    ingest(t, nullptr, nullptr);
    return t;
  }

 private:
  void open_v1();
  void open_v2();
  /// [off, off+n) of the source: in place when it offers a view, else read
  /// into `buf`.
  const char* bytes_at(std::uint64_t off, std::size_t n,
                       std::vector<char>& buf) const;
  /// Chunk i's v2 payload (chunk_info(i).payload_len bytes), its header
  /// checked against the index and its checksum verified; in `buf` unless
  /// the source offers a view.
  const char* read_payload(std::size_t i, std::vector<char>& buf) const;
  /// Decodes chunk i into `sink`, reading it into `buf` unless the source
  /// offers a view; throws TraceStoreError on corruption, carrying `i` when
  /// a v2 chunk is bad.
  void decode_chunk(std::size_t i, std::vector<char>& buf,
                    ColumnSink& sink) const;

  std::unique_ptr<ByteSource> source_;
  TraceFormat format_ = TraceFormat::kV2;
  trace::TraceMeta meta_;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t record_count_ = 0;
  std::uint64_t content_hash_ = 0;
  std::uint32_t chunk_target_ = 0;
};

// ---------------------------------------------------------------------------
// Whole-file helpers

/// Outcome of an integrity scan.
struct VerifyReport {
  TraceFormat format = TraceFormat::kV2;  // as the magic says
  bool ok = false;
  std::string error;        // empty when ok
  /// Offending v2 chunk; -1 when the header, index or footer is damaged,
  /// the content hash differs, the records break the trace contract, or the
  /// file is v1.
  std::int64_t bad_chunk = -1;
  std::uint64_t records = 0;
  std::uint64_t chunks = 0;
  bool hash_checked = false;  // content hash recomputed and compared
};

/// Full integrity scan of a trace file: every record decoded and the trace
/// contract proved (TraceReader::ingest); for v2 also the header, index,
/// footer and chunk checksums and (with `deep`) the content hash against the
/// footer. Never throws on corruption or a contract violation — it reports;
/// throws TraceStoreError only when `path` cannot be opened.
VerifyReport verify_file(const std::string& path, bool deep = true);

}  // namespace sctm::tracestore
