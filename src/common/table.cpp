#include "common/table.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sctm {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  assert(header_.empty() || row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(precision);
  ss << v;
  return ss.str();
}

std::string Table::fmt(std::uint64_t v) { return std::to_string(v); }
std::string Table::fmt(std::int64_t v) { return std::to_string(v); }

std::string Table::pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto line = [&](char fill, char sep) {
    std::string out = "+";
    for (const auto w : width) {
      out.append(w + 2, fill);
      out += sep;
    }
    out.back() = '+';
    out += '\n';
    return out;
  };
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out += ' ';
      out += cell;
      out.append(width[i] - cell.size() + 1, ' ');
      out += '|';
    }
    out += '\n';
    return out;
  };

  std::string out = "== " + title_ + " ==\n";
  out += line('-', '+');
  if (!header_.empty()) {
    out += render_row(header_);
    out += line('=', '+');
  }
  for (const auto& r : rows_) out += render_row(r);
  out += line('-', '+');
  return out;
}

std::string Table::to_csv() const {
  std::ostringstream ss;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      assert(row[i].find(',') == std::string::npos);
      if (i) ss << ',';
      ss << row[i];
    }
    ss << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& r : rows_) emit(r);
  return ss.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Table: cannot write " + path);
  out << to_csv();
  out.close();  // writes what the stream still holds
  if (!out) throw std::runtime_error("Table: write to " + path + " failed");
}

}  // namespace sctm
