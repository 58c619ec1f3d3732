// Content-addressed trace catalog: a directory of v2 containers keyed by
// their FNV-1a/64 content hash, each with a small JSON manifest recording
// provenance (app, capture network, seed, record count, chunk geometry,
// checksum) following the `sctm.run_metrics.v1` conventions — manifests are
// written with the shared JsonWriter and parsed back with json_parse.
//
// Layout of a catalog directory:
//   <dir>/<hash16>.trc2   the container (always v2, regardless of import
//                         format)
//   <dir>/<hash16>.json   the manifest (schema "sctm.trace_manifest.v1")
//
// The hash is over the logical trace content (trace_store.hpp), so the same
// workload captured twice — or imported once as v1 and once as v2 — lands
// on a single entry: adds are idempotent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::tracestore {

inline constexpr std::string_view kManifestSchema = "sctm.trace_manifest.v1";

struct CatalogEntry {
  std::string hash;  // 16 lowercase hex digits (the content address)
  std::string file;  // container path (absolute or catalog-relative)
  std::string created;  // caller-supplied timestamp (may be empty)
  std::string app;
  std::string capture_network;
  std::int32_t nodes = 0;
  Cycle capture_runtime = 0;
  std::uint64_t seed = 0;
  std::uint64_t records = 0;
  std::uint32_t chunk_target = 0;
  std::uint64_t chunks = 0;
  std::uint64_t file_bytes = 0;

  std::string manifest_json() const;
};

/// Parses a manifest document; throws std::runtime_error on schema
/// violations (wrong schema string, missing/mistyped fields).
CatalogEntry parse_manifest(const std::string& json);

class TraceCatalog {
 public:
  /// Opens (creating if needed) the catalog directory.
  explicit TraceCatalog(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Stores `t` as a v2 container plus manifest; returns the entry. When
  /// the content hash is already present the existing entry is returned
  /// untouched (content addressing makes adds idempotent).
  /// (Import of an on-disk file in either format is a caller composition:
  /// load with TraceReader::read_all, which reads both, then add(). The
  /// catalog itself only ever writes v2.)
  CatalogEntry add(const trace::Trace& t, const std::string& created,
                   std::uint32_t chunk_records = kDefaultChunkRecords);

  /// All entries, sorted by hash. Manifests that fail to parse are skipped
  /// (a catalog survives a half-written entry).
  std::vector<CatalogEntry> list() const;

  /// Unique entry whose hash starts with `hash_prefix` (case-insensitive);
  /// nullopt when absent or ambiguous.
  std::optional<CatalogEntry> find(const std::string& hash_prefix) const;

  /// Absolute path of an entry's container file.
  std::string container_path(const CatalogEntry& e) const;

 private:
  std::string dir_;
};

}  // namespace sctm::tracestore
