#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

int Spans::open(std::string name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  const std::uint64_t op =
      parent < 0 ? ++next_op_ : records_[static_cast<std::size_t>(parent)].op;
  records_.push_back({std::move(name), now(), 0.0, parent, op});
  const int id = static_cast<int>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) noexcept {
  if (id < 0) return;
  if (stack_.empty() || stack_.back() != id) {
    // Only Span's destructor closes spans, so this is a bug in the caller;
    // it must not throw out of a destructor.
    std::fputs("perfbench: span closed out of order\n", stderr);
    std::abort();
  }
  records_[static_cast<std::size_t>(id)].end = now();
  stack_.pop_back();
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans.at(static_cast<std::size_t>(s.parent));
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_a = 0;
    double run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    out[i] = (spans[i].end - spans[i].start) - covered;
  }
  return out;
}

std::map<std::string, double> self_by_module(
    const std::vector<SpanRecord>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

void write_spans_json(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  const auto self = self_times(spans);
  sctm::JsonWriter w;
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("start");
    w.value(s.start);
    w.key("end");
    w.value(s.end);
    w.key("parent");
    w.value(static_cast<std::int64_t>(s.parent));
    w.key("op");
    w.value(s.op);
    w.key("self");
    w.value(self[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << std::move(w).str() << '\n';
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

}  // namespace perfbench
