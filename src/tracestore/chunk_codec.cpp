#include "tracestore/chunk_codec.hpp"

namespace sctm::tracestore {

namespace detail {

void bad_record(const char* what, std::uint32_t i) {
  throw std::runtime_error(std::string(what) + " in record " +
                           std::to_string(i));
}

}  // namespace detail

void ChunkEncoder::record(const RecordFields& f) {
  put_varint(buf_, zigzag(wrap_delta(f.id, prev_id_)));
  put_varint(buf_, zigzag(f.src));
  put_varint(buf_, zigzag(f.dst));
  put_varint(buf_, f.size_bytes);
  buf_.push_back(static_cast<char>(f.cls));
  buf_.push_back(static_cast<char>(f.proto));
  put_varint(buf_, zigzag(wrap_delta(f.inject_time, prev_inject_)));
  put_varint(buf_, zigzag(wrap_delta(f.arrive_time, f.inject_time)));
  put_varint(buf_, f.dep_count);
  prev_id_ = f.id;
  prev_inject_ = f.inject_time;
}

}  // namespace sctm::tracestore
