// In-memory span recording for the benchmark's traced mode.
//
// A span brackets one call from the benchmark into a library layer. It keeps
// its name ("<module>.<call>"), start and end (seconds on steady_clock since
// the recorder was built), the index of the enclosing span (-1 at top level)
// and an operation id: every top-level span opens a new operation and all of
// its descendants share that id. Spans stay in memory and are written out
// once, when the run ends, so recording costs two clock reads and a vector
// push. With recording disabled, Span is two branches and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

class Spans {
 public:
  Spans() : t0_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when recording is disabled.
  int open(std::string name);
  /// Closes span `id` (a no-op for -1). Spans close in LIFO order; closing
  /// any other span aborts.
  void close(int id) noexcept;

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  /// Seconds since the recorder was built.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
  std::uint64_t next_op_ = 0;
  bool enabled_ = false;
};

/// RAII bracket around one layer call.
class Span {
 public:
  Span(Spans& s, std::string name) : spans_(s), id_(s.open(std::move(name))) {}
  ~Span() { spans_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent and
/// overlaps between children counted once).
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

/// Self time summed per module, the span-name prefix before the first '.'.
std::map<std::string, double> self_by_module(
    const std::vector<SpanRecord>& spans);

/// Writes every span with its self time as one JSON document.
void write_spans_json(const std::vector<SpanRecord>& spans,
                      const std::string& path);

}  // namespace perfbench
