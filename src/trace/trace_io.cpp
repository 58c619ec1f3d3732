#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tracestore/trace_store.hpp"

namespace sctm::trace {
namespace {

constexpr char kMagic[8] = {'S', 'C', 'T', 'M', 'T', 'R', 'C', '1'};

// v1 serialization is fully buffered: the writer encodes the whole trace
// into one byte vector and issues a single ostream::write; the reader
// slurps the stream once and decodes from a memory cursor. The encoded
// bytes are field-for-field identical to the original per-field stream I/O
// (the golden round-trip test pins the layout).
//
// The reader is strict: every length and count is validated against the
// bytes actually present before anything is allocated, and every error
// names the byte offset where decoding stopped — a truncated or corrupted
// file can never come back as a silently shorter Trace.

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = buf_.size();
    buf_.resize(n + sizeof v);
    std::memcpy(buf_.data() + n, &v, sizeof v);
  }

  void put_bytes(const char* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  void put_string(const std::string& s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

  const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
};

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

/// Decodes a v1 byte image (post-magic validation happens in the caller).
Trace read_v1_bytes(const char* data, std::size_t len) {
  ByteReader r(data, len);
  r.skip(sizeof kMagic);

  Trace t;
  t.app = r.get_string("app name");
  t.capture_network = r.get_string("capture network");
  t.nodes = r.get<std::int32_t>("node count");
  if (t.nodes < 0) {
    fail_at(r.pos() - 4, "negative node count");
  }
  t.capture_runtime = r.get<std::uint64_t>("capture runtime");
  t.seed = r.get<std::uint64_t>("seed");
  const auto count = r.get<std::uint64_t>("record count");
  // Every record occupies at least 40 bytes; a count beyond what the
  // remaining bytes can hold is corruption, not a large trace — reject it
  // before reserving anything.
  constexpr std::size_t kMinRecordBytes = 8 + 4 + 4 + 4 + 1 + 1 + 8 + 8 + 2;
  if (count > r.remaining() / kMinRecordBytes) {
    fail_at(r.pos() - 8, "record count " + std::to_string(count) +
                             " exceeds remaining " +
                             std::to_string(r.remaining()) + " bytes");
  }
  t.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord rec;
    rec.id = r.get<std::uint64_t>("record id");
    rec.src = r.get<std::int32_t>("src");
    rec.dst = r.get<std::int32_t>("dst");
    rec.size_bytes = r.get<std::uint32_t>("size");
    const auto cls = r.get<std::uint8_t>("class");
    if (cls >= noc::kMsgClassCount) {
      fail_at(r.pos() - 1, "invalid message class " + std::to_string(cls) +
                               " in record " + std::to_string(i));
    }
    rec.cls = static_cast<noc::MsgClass>(cls);
    rec.proto = r.get<std::uint8_t>("proto");
    rec.inject_time = r.get<std::uint64_t>("inject time");
    rec.arrive_time = r.get<std::uint64_t>("arrive time");
    const auto deps = r.get<std::uint16_t>("dependency count");
    if (deps * std::size_t{16} > r.remaining()) {
      fail_at(r.pos() - 2, "dependency count " + std::to_string(deps) +
                               " exceeds remaining " +
                               std::to_string(r.remaining()) +
                               " bytes in record " + std::to_string(i));
    }
    rec.deps.reserve(deps);
    for (int d = 0; d < deps; ++d) {
      TraceDep dep;
      dep.parent = r.get<std::uint64_t>("dependency parent");
      dep.slack = r.get<std::uint64_t>("dependency slack");
      rec.deps.push_back(dep);
    }
    t.records.push_back(std::move(rec));
  }
  if (r.remaining() != 0) {
    fail_at(r.pos(), std::to_string(r.remaining()) +
                         " trailing bytes after the last record");
  }
  return t;
}

std::size_t encoded_size(const Trace& trace) {
  // magic + 2 length-prefixed strings + nodes/runtime/seed/count header.
  std::size_t n = sizeof kMagic + 4 + trace.app.size() + 4 +
                  trace.capture_network.size() + 4 + 8 + 8 + 8;
  for (const auto& r : trace.records) {
    n += 8 + 4 + 4 + 4 + 1 + 1 + 8 + 8 + 2 + r.deps.size() * 16;
  }
  return n;
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  ByteWriter w;
  w.reserve(encoded_size(trace));
  w.put_bytes(kMagic, sizeof kMagic);
  w.put_string(trace.app);
  w.put_string(trace.capture_network);
  w.put<std::int32_t>(trace.nodes);
  w.put<std::uint64_t>(trace.capture_runtime);
  w.put<std::uint64_t>(trace.seed);
  w.put<std::uint64_t>(trace.records.size());
  for (const auto& r : trace.records) {
    w.put<std::uint64_t>(r.id);
    w.put<std::int32_t>(r.src);
    w.put<std::int32_t>(r.dst);
    w.put<std::uint32_t>(r.size_bytes);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(r.cls));
    w.put<std::uint8_t>(r.proto);
    w.put<std::uint64_t>(r.inject_time);
    w.put<std::uint64_t>(r.arrive_time);
    w.put<std::uint16_t>(static_cast<std::uint16_t>(r.deps.size()));
    for (const auto& d : r.deps) {
      w.put<std::uint64_t>(d.parent);
      w.put<std::uint64_t>(d.slack);
    }
  }
  out.write(w.bytes().data(),
            static_cast<std::streamsize>(w.bytes().size()));
  if (!out) throw std::runtime_error("trace: write failed");
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
  return read_v1_bytes(bytes.data(), bytes.size());
}

void write_binary_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_binary(trace, out);
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
  std::ostringstream ss;
  ss << "# app=" << trace.app << " net=" << trace.capture_network
     << " nodes=" << trace.nodes << " runtime=" << cyc(trace.capture_runtime)
     << " records=" << trace.records.size() << '\n';
  for (const auto& r : trace.records) {
    ss << r.id << ' ' << r.src << "->" << r.dst << " bytes=" << r.size_bytes
       << " cls=" << noc::to_string(r.cls) << " t=" << cyc(r.inject_time)
       << ".." << cyc(r.arrive_time) << " deps=[";
    for (std::size_t i = 0; i < r.deps.size(); ++i) {
      if (i) ss << ',';
      ss << r.deps[i].parent << '+' << r.deps[i].slack;
    }
    ss << "]\n";
  }
  return ss.str();
}

}  // namespace sctm::trace
