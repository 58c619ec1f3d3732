#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tracestore/ingest.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::trace {
namespace {

constexpr char kMagic[8] = {'S', 'C', 'T', 'M', 'T', 'R', 'C', '1'};

// v1 serialization is fully buffered: the writer encodes the whole trace
// into one byte vector and issues a single ostream::write; the reader
// slurps the stream once and decodes from a memory cursor (the golden
// round-trip test pins the layout).
//
// The reader is strict: every length and count is validated against the
// bytes actually present before anything is allocated, and every error
// names the byte offset where decoding stopped — a truncated or corrupted
// file can never come back as a silently shorter Trace.

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw std::runtime_error("trace: " + what + " at byte " +
                           std::to_string(pos));
}

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t len) : data_(data), len_(len) {}

  template <typename T>
  T get(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (len_ - pos_ < sizeof(T)) {
      fail_at(pos_, std::string("truncated input reading ") + field +
                        " (need " + std::to_string(sizeof(T)) + " bytes, " +
                        std::to_string(len_ - pos_) + " left)");
    }
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  void skip(std::size_t n) {
    if (len_ - pos_ < n) fail_at(pos_, "truncated input");
    pos_ += n;
  }

  std::string get_string(const char* field) {
    const auto len = get<std::uint32_t>(field);
    if (len > (1u << 20)) {
      fail_at(pos_ - 4, std::string("absurd length ") + std::to_string(len) +
                            " for " + field);
    }
    if (len_ - pos_ < len) {
      fail_at(pos_, std::string("truncated ") + field);
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

/// Every record occupies at least 40 bytes, every dependency 16.
constexpr std::size_t kMinRecordBytes = 8 + 4 + 4 + 4 + 1 + 1 + 8 + 8 + 2;
constexpr std::size_t kDepBytes = 16;

/// Reads record i into `sink` (tracestore::decode_chunk's sink form),
/// checking every count against the bytes present.
template <typename Sink>
void read_v1_record(ByteReader& r, std::uint64_t i, Sink& sink) {
  tracestore::RecordFields f;
  f.id = r.get<std::uint64_t>("record id");
  f.src = r.get<std::int32_t>("src");
  f.dst = r.get<std::int32_t>("dst");
  f.size_bytes = r.get<std::uint32_t>("size");
  const auto cls = r.get<std::uint8_t>("class");
  if (cls >= noc::kMsgClassCount) {
    fail_at(r.pos() - 1, "invalid message class " + std::to_string(cls) +
                             " in record " + std::to_string(i));
  }
  f.cls = static_cast<noc::MsgClass>(cls);
  f.proto = r.get<std::uint8_t>("proto");
  f.inject_time = r.get<std::uint64_t>("inject time");
  f.arrive_time = r.get<std::uint64_t>("arrive time");
  const auto deps = r.get<std::uint16_t>("dependency count");
  if (deps * kDepBytes > r.remaining()) {
    fail_at(r.pos() - 2, "dependency count " + std::to_string(deps) +
                             " exceeds remaining " +
                             std::to_string(r.remaining()) +
                             " bytes in record " + std::to_string(i));
  }
  f.dep_count = deps;
  sink.record(f);
  for (int d = 0; d < deps; ++d) {
    const auto parent = r.get<std::uint64_t>("dependency parent");
    sink.dep(parent, r.get<std::uint64_t>("dependency slack"));
  }
}

/// A v1 byte image as one ingest block: v1 has no index to split it by, so
/// its records decode serially. The constructor reads the header into the
/// trace's meta; the decode frees the image once every dependency is in its
/// slot, before the check folder resolves them.
class V1Block final : public tracestore::RecordBlocks {
 public:
  V1Block(std::vector<char> bytes, Trace& t)
      : bytes_(std::move(bytes)), r_(bytes_.data(), bytes_.size()) {
    r_.skip(sizeof kMagic);
    t.app = r_.get_string("app name");
    t.capture_network = r_.get_string("capture network");
    t.nodes = r_.get<std::int32_t>("node count");
    if (t.nodes < 0) {
      fail_at(r_.pos() - 4, "negative node count");
    }
    t.capture_runtime = r_.get<std::uint64_t>("capture runtime");
    t.seed = r_.get<std::uint64_t>("seed");
    records_ = r_.get<std::uint64_t>("record count");
    // A count beyond what the remaining bytes can hold is corruption, not a
    // large trace — reject it before reserving anything.
    if (records_ > r_.remaining() / kMinRecordBytes) {
      fail_at(r_.pos() - 8, "record count " + std::to_string(records_) +
                                " exceeds remaining " +
                                std::to_string(r_.remaining()) + " bytes");
    }
    first.push_back(records_);
    // Each dependency read takes kDepBytes of what is left, even in a file
    // whose records do not fit the count.
    dep_bound = r_.remaining() / kDepBytes;
    block_dep_bound = dep_bound;
  }

  void decode(std::size_t /*b*/, std::vector<char>& /*buffer*/,
              tracestore::ColumnSink& sink) override {
    for (std::uint64_t i = 0; i < records_; ++i) read_v1_record(r_, i, sink);
    if (r_.remaining() != 0) {
      fail_at(r_.pos(), std::to_string(r_.remaining()) +
                            " trailing bytes after the last record");
    }
    std::vector<char>().swap(bytes_);
  }

 private:
  std::vector<char> bytes_;
  ByteReader r_;
  std::uint64_t records_ = 0;
};

/// Decodes a v1 byte image (post-magic validation happens in the caller).
Trace read_v1_bytes(std::vector<char> bytes) {
  Trace t;
  V1Block block(std::move(bytes), t);
  tracestore::ingest(block, t, nullptr, nullptr);
  return t;
}

/// The v1 bytes of `trace`; throws before encoding anything when a record
/// has more dependencies than v1's u16 count can say.
std::vector<char> encode_v1(const Trace& trace) {
  const Records& r = trace.records;
  // magic + 2 length-prefixed strings + nodes/runtime/seed/count header.
  std::size_t n = sizeof kMagic + 4 + trace.app.size() + 4 +
                  trace.capture_network.size() + 4 + 8 + 8 + 8;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r.dep_count(i) > UINT16_MAX) {
      throw std::length_error(
          "trace: record " + std::to_string(i) + " (id " +
          std::to_string(r.id[i]) + ") has " +
          std::to_string(r.dep_count(i)) +
          " dependencies; v1 stores at most 65535 per record (write v2)");
    }
    n += kMinRecordBytes + r.dep_count(i) * kDepBytes;
  }
  std::vector<char> out(n);
  char* at = out.data();
  const auto put = [&at](auto v) {
    std::memcpy(at, &v, sizeof v);
    at += sizeof v;
  };
  const auto put_string = [&](const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    at = std::copy(s.begin(), s.end(), at);
  };
  at = std::copy(kMagic, kMagic + sizeof kMagic, at);
  put_string(trace.app);
  put_string(trace.capture_network);
  put(std::int32_t{trace.nodes});
  put(std::uint64_t{trace.capture_runtime});
  put(std::uint64_t{trace.seed});
  put(std::uint64_t{r.size()});
  for (std::size_t i = 0; i < r.size(); ++i) {
    put(std::uint64_t{r.id[i]});
    put(std::int32_t{r.src[i]});
    put(std::int32_t{r.dst[i]});
    put(std::uint32_t{r.size_bytes[i]});
    put(static_cast<std::uint8_t>(r.cls[i]));
    put(std::uint8_t{r.proto[i]});
    put(std::uint64_t{r.inject[i]});
    put(std::uint64_t{r.arrive[i]});
    put(static_cast<std::uint16_t>(r.dep_count(i)));
    for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
      put(std::uint64_t{r.id[r.parent[k]]});
      put(std::uint64_t{r.slack(i, r.parent[k])});
    }
  }
  return out;
}

void write_bytes(const std::vector<char>& bytes, std::ostream& out) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("trace: write failed");
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  write_bytes(encode_v1(trace), out);
}

Trace read_binary(std::istream& in) {
  std::vector<char> bytes;
  {
    char chunk[1 << 16];
    while (in) {
      in.read(chunk, sizeof chunk);
      bytes.insert(bytes.end(), chunk, chunk + in.gcount());
    }
    if (in.bad()) throw std::runtime_error("trace: read failed");
  }
  if (bytes.size() >= sizeof kMagic &&
      tracestore::is_v2_magic(bytes.data(), bytes.size())) {
    tracestore::TraceReader reader(
        tracestore::memory_source(bytes.data(), bytes.size()));
    return reader.read_all();
  }
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("trace: bad magic (not an SCTM trace?)");
  }
  return read_v1_bytes(std::move(bytes));
}

void write_binary_file(const Trace& trace, const std::string& path) {
  const std::vector<char> bytes = encode_v1(trace);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_bytes(bytes, out);
}

Trace read_binary_file(const std::string& path) {
  if (sniff_format(path) == TraceFormat::kV2) {
    // Seeking reader + parallel chunk decode; no whole-file slurp.
    return tracestore::TraceReader::open_file(path).read_all();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return read_binary(in);
}

void write_file(const Trace& trace, const std::string& path, TraceFormat f) {
  if (f == TraceFormat::kV1) {
    write_binary_file(trace, path);
    return;
  }
  tracestore::write_v2_file(trace, path);
}

TraceFormat sniff_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() == sizeof magic) {
    if (std::memcmp(magic, kMagic, sizeof kMagic) == 0) {
      return TraceFormat::kV1;
    }
    if (tracestore::is_v2_magic(magic, sizeof magic)) {
      return TraceFormat::kV2;
    }
  }
  throw std::runtime_error("trace: " + path +
                           " starts with neither SCTMTRC1 nor SCTMTRC2");
}

std::string to_text(const Trace& trace) {
  const auto cyc = [](Cycle c) {
    return c == kNoCycle ? std::string("none") : std::to_string(c);
  };
  const Records& r = trace.records;
  std::ostringstream ss;
  ss << "# app=" << trace.app << " net=" << trace.capture_network
     << " nodes=" << trace.nodes << " runtime=" << cyc(trace.capture_runtime)
     << " records=" << r.size() << '\n';
  for (std::size_t i = 0; i < r.size(); ++i) {
    ss << r.id[i] << ' ' << r.src[i] << "->" << r.dst[i]
       << " bytes=" << r.size_bytes[i] << " cls=" << noc::to_string(r.cls[i])
       << " t=" << cyc(r.inject[i]) << ".." << cyc(r.arrive[i]) << " deps=[";
    for (std::uint32_t k = r.dep_offset[i]; k < r.dep_offset[i + 1]; ++k) {
      if (k != r.dep_offset[i]) ss << ',';
      ss << r.id[r.parent[k]] << '+' << r.slack(i, r.parent[k]);
    }
    ss << "]\n";
  }
  return ss.str();
}

}  // namespace sctm::trace
