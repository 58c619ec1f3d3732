// Delta/varint codec for one chunk of trace records.
//
// Records inside a chunk are encoded relative to their predecessor
// (chunk-local state, so every chunk decodes standalone): ids and injection
// times are near-monotone per record.hpp, so their zigzagged deltas are
// 1-byte varints almost always; arrival is stored as latency relative to
// the record's own injection; dependency parents are stored as the (small,
// positive) distance below the record's own id. All deltas use wrapping
// u64 arithmetic, so the codec round-trips arbitrary field values exactly
// — including kNoCycle sentinels — it is merely *small* for well-formed
// traces.
//
// Per record:
//   vz(id - prev_id) vz(src) vz(dst) v(size_bytes) u8(cls) u8(proto)
//   vz(inject - prev_inject) vz(arrive - inject)
//   v(dep_count) { vz(id - parent) v(slack) } * dep_count
// where v = LEB128 varint, vz = varint of zigzag(delta).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "noc/message.hpp"
#include "tracestore/format.hpp"

namespace sctm::tracestore {

/// A record's scalar fields as the files store them, ahead of its
/// `dep_count` dependencies.
struct RecordFields {
  MsgId id = kInvalidMsg;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  noc::MsgClass cls = noc::MsgClass::kRequest;
  std::uint8_t proto = 0;
  Cycle inject_time = kNoCycle;
  Cycle arrive_time = kNoCycle;
  std::uint64_t dep_count = 0;
};

/// A dependency as the files store it: the parent's id and the slack.
/// Trivial, so that a load's decode slots stay untouched until used.
struct FileDep {
  MsgId parent;
  Cycle slack;

  bool operator==(const FileDep&) const = default;
};

/// Streaming chunk encoder, the mirror of decode_chunk's sink: record()
/// appends a record's fields, then dep() each of its `dep_count`
/// dependencies. reset() starts a new chunk.
class ChunkEncoder {
 public:
  void reset() {
    buf_.clear();
    prev_id_ = 0;
    prev_inject_ = 0;
  }

  void record(const RecordFields& f);
  void dep(MsgId parent, Cycle slack) {
    put_varint(buf_, zigzag(wrap_delta(prev_id_, parent)));
    put_varint(buf_, slack);
  }

  const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
  std::uint64_t prev_id_ = 0;  // of the record being encoded, once record() ran
  std::uint64_t prev_inject_ = 0;
};

namespace detail {

/// Bounds-checked LEB128 cursor for decode.
class VarintReader {
 public:
  VarintReader(const char* data, std::size_t len) : data_(data), len_(len) {}

  std::uint64_t get() {
    // Trace fields are almost all one to three bytes long: those decode
    // without a check per byte.
    if (len_ - pos_ >= 3) {
      const auto* p = reinterpret_cast<const unsigned char*>(data_ + pos_);
      if (p[0] < 0x80) {
        pos_ += 1;
        return p[0];
      }
      if (p[1] < 0x80) {
        pos_ += 2;
        return (p[0] & 0x7fu) | std::uint64_t{p[1]} << 7;
      }
      if (p[2] < 0x80) {
        pos_ += 3;
        return (p[0] & 0x7fu) | std::uint64_t{p[1] & 0x7fu} << 7 |
               std::uint64_t{p[2]} << 14;
      }
    }
    return get_checked();
  }

  std::uint8_t get_byte() {
    if (pos_ >= len_) truncated();
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::size_t remaining() const { return len_ - pos_; }

 private:
  std::uint64_t get_checked() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= len_) truncated();
      const auto b = static_cast<unsigned char>(data_[pos_++]);
      if (shift == 63 && b > 1) overlong();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) overlong();
    }
  }

  [[noreturn]] void truncated() const {
    throw std::runtime_error("chunk payload truncated at byte " +
                             std::to_string(pos_));
  }
  [[noreturn]] void overlong() const {
    throw std::runtime_error("overlong varint at byte " +
                             std::to_string(pos_ - 1));
  }

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

[[noreturn]] void bad_record(const char* what, std::uint32_t i);

}  // namespace detail

/// Decodes a chunk payload holding exactly `expect_count` records into
/// `sink`: for each record in order, sink.record(const RecordFields&), then
/// sink.dep(parent, slack) once per dependency. Throws std::runtime_error on
/// any malformation: truncated varint, overlong varint, a field out of its
/// type's range, a dependency count exceeding the remaining payload, or
/// trailing bytes after the last record; the sink may have received the
/// records before the bad one. Every dep() call follows at least
/// kMinDepBytes of payload, so a chunk of n bytes yields at most
/// n / kMinDepBytes of them.
template <typename Sink>
void decode_chunk(const char* data, std::size_t len,
                  std::uint32_t expect_count, Sink& sink) {
  detail::VarintReader in(data, len);
  std::uint64_t prev_id = 0;
  std::uint64_t prev_inject = 0;
  for (std::uint32_t i = 0; i < expect_count; ++i) {
    RecordFields r;
    r.id = prev_id + static_cast<std::uint64_t>(unzigzag(in.get()));
    const auto src = unzigzag(in.get());
    const auto dst = unzigzag(in.get());
    if (src < INT32_MIN || src > INT32_MAX || dst < INT32_MIN ||
        dst > INT32_MAX) {
      detail::bad_record("node id out of range", i);
    }
    r.src = static_cast<NodeId>(src);
    r.dst = static_cast<NodeId>(dst);
    const auto size = in.get();
    if (size > UINT32_MAX) detail::bad_record("message size out of range", i);
    r.size_bytes = static_cast<std::uint32_t>(size);
    const auto cls = in.get_byte();
    if (cls >= noc::kMsgClassCount) {
      detail::bad_record("invalid message class", i);
    }
    r.cls = static_cast<noc::MsgClass>(cls);
    r.proto = in.get_byte();
    r.inject_time =
        prev_inject + static_cast<std::uint64_t>(unzigzag(in.get()));
    r.arrive_time =
        r.inject_time + static_cast<std::uint64_t>(unzigzag(in.get()));
    r.dep_count = in.get();
    // Each dependency is at least kMinDepBytes; a count past the remaining
    // payload is corruption, not a large trace.
    if (r.dep_count > in.remaining() / kMinDepBytes + 1) {
      throw std::runtime_error("dependency count " +
                               std::to_string(r.dep_count) +
                               " exceeds remaining payload in record " +
                               std::to_string(i));
    }
    sink.record(r);
    for (std::uint64_t d = 0; d < r.dep_count; ++d) {
      const MsgId parent =
          r.id - static_cast<std::uint64_t>(unzigzag(in.get()));
      sink.dep(parent, Cycle{in.get()});
    }
    prev_id = r.id;
    prev_inject = r.inject_time;
  }
  if (in.remaining() != 0) {
    throw std::runtime_error(std::to_string(in.remaining()) +
                             " trailing bytes after last record in chunk");
  }
}

}  // namespace sctm::tracestore
