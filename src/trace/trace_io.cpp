#include "trace/trace_io.hpp"

#include <algorithm>
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

using tracestore::kV1DepBytes;
using tracestore::kV1RecordBytes;

/// Throws before anything is written when a record has more dependencies
/// than v1's u16 count can say.
void check_v1_dep_counts(const Trace& trace) {
  const Records& r = trace.records;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r.dep_count(i) > UINT16_MAX) {
      throw std::length_error(
          "trace: record " + std::to_string(i) + " (id " +
          std::to_string(r.id[i]) + ") has " +
          std::to_string(r.dep_count(i)) +
          " dependencies; v1 stores at most 65535 per record (write v2)");
    }
  }
}

/// Encodes `trace` as v1 onto `out` about 1 MiB at a time, so a write holds
/// one piece of the file, not all of it; check_v1_dep_counts() must have
/// passed.
void write_v1(const Trace& trace, std::ostream& out) {
  constexpr std::size_t kPieceBytes = std::size_t{1} << 20;
  std::vector<char> piece;
  std::size_t used = 0;
  const auto flush = [&] {
    out.write(piece.data(), static_cast<std::streamsize>(used));
    if (!out) throw std::runtime_error("trace: write failed");
    used = 0;
  };
  const auto room = [&](std::size_t n) {  // for n more bytes
    if (piece.size() - used >= n) return;
    flush();
    piece.resize(std::max(n, kPieceBytes));
  };
  const auto put_bytes = [&](const char* data, std::size_t n) {
    std::memcpy(piece.data() + used, data, n);
    used += n;
  };
  const auto put = [&](auto v) {
    put_bytes(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto put_string = [&](const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  };
  const Records& r = trace.records;
  room(sizeof tracestore::kMagicV1 + 4 + trace.app.size() + 4 +
       trace.capture_network.size() + 4 + 8 + 8 + 8);
  put_bytes(tracestore::kMagicV1, sizeof tracestore::kMagicV1);
  put_string(trace.app);
  put_string(trace.capture_network);
  put(std::int32_t{trace.nodes});
  put(std::uint64_t{trace.capture_runtime});
  put(std::uint64_t{trace.seed});
  put(std::uint64_t{r.size()});
  for (std::size_t i = 0; i < r.size(); ++i) {
    room(kV1RecordBytes + r.dep_count(i) * kV1DepBytes);
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
  flush();
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  check_v1_dep_counts(trace);
  write_v1(trace, out);
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
  return tracestore::TraceReader(
             tracestore::memory_source(bytes.data(), bytes.size()))
      .read_all();
}

void write_binary_file(const Trace& trace, const std::string& path) {
  check_v1_dep_counts(trace);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_v1(trace, out);
}

Trace read_binary_file(const std::string& path) {
  return tracestore::TraceReader::open_file(path).read_all();
}

void write_file(const Trace& trace, const std::string& path, TraceFormat f) {
  if (f == TraceFormat::kV1) {
    write_binary_file(trace, path);
    return;
  }
  tracestore::write_v2_file(trace, path);
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
