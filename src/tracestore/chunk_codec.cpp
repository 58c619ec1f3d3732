#include "tracestore/chunk_codec.hpp"

namespace sctm::tracestore {

namespace detail {

void bad_record(const char* what, std::uint32_t i) {
  throw std::runtime_error(std::string(what) + " in record " +
                           std::to_string(i));
}

}  // namespace detail

void ChunkEncoder::add(const trace::TraceRecord& r) {
  put_varint(buf_, zigzag(wrap_delta(r.id, prev_id_)));
  put_varint(buf_, zigzag(r.src));
  put_varint(buf_, zigzag(r.dst));
  put_varint(buf_, r.size_bytes);
  buf_.push_back(static_cast<char>(r.cls));
  buf_.push_back(static_cast<char>(r.proto));
  put_varint(buf_, zigzag(wrap_delta(r.inject_time, prev_inject_)));
  put_varint(buf_, zigzag(wrap_delta(r.arrive_time, r.inject_time)));
  put_varint(buf_, r.deps.size());
  for (const auto& d : r.deps) {
    put_varint(buf_, zigzag(wrap_delta(r.id, d.parent)));
    put_varint(buf_, d.slack);
  }
  prev_id_ = r.id;
  prev_inject_ = r.inject_time;
}

void AppendRecords::record(const RecordFields& f) {
  trace::TraceRecord& r = out.emplace_back();
  r.id = f.id;
  r.src = f.src;
  r.dst = f.dst;
  r.size_bytes = f.size_bytes;
  r.cls = f.cls;
  r.proto = f.proto;
  r.inject_time = f.inject_time;
  r.arrive_time = f.arrive_time;
  r.deps.reserve(f.dep_count);
}

}  // namespace sctm::tracestore
