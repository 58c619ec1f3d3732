#include "tracestore/catalog.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace sctm::tracestore {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("catalog: cannot read " + p.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const JsonValue& require(const JsonValue& doc, const char* key,
                         JsonValue::Kind kind) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind != kind) {
    throw std::runtime_error(std::string("trace manifest: missing or "
                                         "mistyped field '") +
                             key + "'");
  }
  return *v;
}

std::uint64_t require_u64(const JsonValue& doc, const char* key) {
  const auto& v = require(doc, key, JsonValue::Kind::kNumber);
  if (v.number < 0) {
    throw std::runtime_error(std::string("trace manifest: negative '") + key +
                             "'");
  }
  return static_cast<std::uint64_t>(v.number);
}

}  // namespace

std::string CatalogEntry::manifest_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(kManifestSchema);
  w.key("hash");
  w.value(hash);
  w.key("file");
  w.value(file);
  w.key("created");
  w.value(created);
  w.key("app");
  w.value(app);
  w.key("capture_network");
  w.value(capture_network);
  w.key("nodes");
  w.value(nodes);
  w.key("capture_runtime");
  w.value(std::uint64_t{capture_runtime});
  w.key("seed");
  w.value(seed);
  w.key("records");
  w.value(records);
  w.key("chunk_target");
  w.value(chunk_target);
  w.key("chunks");
  w.value(chunks);
  w.key("file_bytes");
  w.value(file_bytes);
  w.end_object();
  return std::move(w).str();
}

CatalogEntry parse_manifest(const std::string& json) {
  JsonValue doc;
  std::string err;
  if (!json_parse(json, &doc, &err)) {
    throw std::runtime_error("trace manifest: parse error: " + err);
  }
  if (!doc.is_object()) {
    throw std::runtime_error("trace manifest: document is not an object");
  }
  const auto& schema = require(doc, "schema", JsonValue::Kind::kString);
  if (schema.string != kManifestSchema) {
    throw std::runtime_error("trace manifest: unknown schema '" +
                             schema.string + "'");
  }
  CatalogEntry e;
  e.hash = require(doc, "hash", JsonValue::Kind::kString).string;
  if (!parse_hash_hex(e.hash, nullptr) || e.hash.size() != 16) {
    throw std::runtime_error("trace manifest: malformed hash '" + e.hash +
                             "'");
  }
  e.file = require(doc, "file", JsonValue::Kind::kString).string;
  e.created = require(doc, "created", JsonValue::Kind::kString).string;
  e.app = require(doc, "app", JsonValue::Kind::kString).string;
  e.capture_network =
      require(doc, "capture_network", JsonValue::Kind::kString).string;
  e.nodes = static_cast<std::int32_t>(
      require(doc, "nodes", JsonValue::Kind::kNumber).number);
  e.capture_runtime = require_u64(doc, "capture_runtime");
  e.seed = require_u64(doc, "seed");
  e.records = require_u64(doc, "records");
  e.chunk_target = static_cast<std::uint32_t>(require_u64(doc, "chunk_target"));
  e.chunks = require_u64(doc, "chunks");
  e.file_bytes = require_u64(doc, "file_bytes");
  return e;
}

TraceCatalog::TraceCatalog(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("catalog: cannot create directory " + dir_ +
                             ": " + ec.message());
  }
}

CatalogEntry TraceCatalog::add(const trace::Trace& t,
                               const std::string& created) {
  const std::string hex = hash_hex(content_hash(t));
  if (auto existing = find(hex)) return *existing;

  const fs::path container = fs::path(dir_) / (hex + ".trc2");
  const fs::path manifest = fs::path(dir_) / (hex + ".json");
  write_file(t, container.string(), TraceFormat::kV2);

  CatalogEntry e;
  e.hash = hex;
  e.file = hex + ".trc2";
  e.created = created;
  e.app = t.app;
  e.capture_network = t.capture_network;
  e.nodes = t.nodes;
  e.capture_runtime = t.capture_runtime;
  e.seed = t.seed;
  e.records = t.records.size();
  e.chunk_target = kDefaultChunkRecords;
  e.chunks = e.records == 0 ? 0 : (e.records + e.chunk_target - 1) /
                                      e.chunk_target;
  std::error_code ec;
  e.file_bytes = fs::file_size(container, ec);

  std::ofstream out(manifest, std::ios::binary);
  if (!out) {
    throw std::runtime_error("catalog: cannot write " + manifest.string());
  }
  out << e.manifest_json() << '\n';
  out.close();  // writes what the stream still holds
  if (!out) {
    throw std::runtime_error("catalog: write failed for " +
                             manifest.string());
  }
  return e;
}

std::vector<CatalogEntry> TraceCatalog::list() const {
  std::vector<CatalogEntry> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    if (p.extension() != ".json") continue;
    try {
      out.push_back(parse_manifest(slurp(p)));
    } catch (const std::exception&) {
      // Half-written or foreign .json: skip, the catalog stays usable.
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.hash < b.hash;
            });
  return out;
}

std::optional<CatalogEntry> TraceCatalog::find(
    const std::string& hash_prefix) const {
  std::string needle = hash_prefix;
  std::transform(needle.begin(), needle.end(), needle.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (!parse_hash_hex(needle, nullptr)) return std::nullopt;
  std::optional<CatalogEntry> found;
  for (auto& e : list()) {
    if (e.hash.rfind(needle, 0) != 0) continue;
    if (found) return std::nullopt;  // ambiguous prefix
    found = std::move(e);
  }
  return found;
}

std::string TraceCatalog::container_path(const CatalogEntry& e) const {
  const fs::path f(e.file);
  return f.is_absolute() ? f.string() : (fs::path(dir_) / f).string();
}

}  // namespace sctm::tracestore
