#include "trace/trace_io.hpp"

#include <istream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tracestore/trace_store.hpp"

namespace sctm::trace {

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

Trace read_binary_file(const std::string& path) {
  return tracestore::TraceReader::open_file(path).read_all();
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
