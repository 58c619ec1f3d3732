#include "common/config.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sctm {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// The whole of `v` as a T; nullopt for junk or a value T cannot hold.
template <class T>
std::optional<T> parse_integer(const std::string& v) {
  T out{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size()) return std::nullopt;
  return out;
}

[[noreturn]] void fail(std::string_view what, std::string_view detail) {
  throw std::runtime_error("Config: " + std::string(what) + ": " +
                           std::string(detail));
}

}  // namespace

Config Config::from_string(std::string_view text) {
  Config cfg;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail("missing '=' on line " + std::to_string(line_no), line);
    }
    const auto key = trim(line.substr(0, eq));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) fail("empty key on line " + std::to_string(line_no), line);
    std::string k(key);
    if (const auto it = cfg.lines_.find(k); it != cfg.lines_.end()) {
      fail("key '" + k + "' assigned twice (line " + std::to_string(line_no) +
               ", first assigned on line " + std::to_string(it->second) + ")",
           line);
    }
    cfg.set(k, std::string(value));
    cfg.lines_.emplace(std::move(k), line_no);
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open file", path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_string(ss.str());
}

void Config::set(std::string key, std::string value) {
  // A programmatic overwrite invalidates source-line attribution.
  lines_.erase(key);
  values_[std::move(key)] = std::move(value);
}

void Config::set_int(std::string key, std::int64_t value) {
  set(std::move(key), std::to_string(value));
}

void Config::set_double(std::string key, double value) {
  std::ostringstream ss;
  ss.precision(17);
  ss << value;
  set(std::move(key), ss.str());
}

void Config::set_bool(std::string key, bool value) {
  set(std::move(key), value ? "true" : "false");
}

bool Config::contains(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::size_t> Config::source_line(std::string_view key) const {
  const auto it = lines_.find(key);
  if (it == lines_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Config::lookup(std::string_view key) const {
  asked_.emplace(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::where(std::string_view key) const {
  const auto line = source_line(key);
  return line ? " (line " + std::to_string(*line) + ")" : std::string();
}

void Config::reject(std::string_view key, const std::string& why) const {
  throw std::invalid_argument(std::string(key) + where(key) + ": " + why);
}

std::string Config::get_string(std::string_view key) const {
  if (auto v = lookup(key)) return *v;
  // A required key that is absent is most often a misspelt one: name the
  // unread keys that share its first segment.
  const std::string_view seg = key.substr(0, key.find('.'));
  std::string unread;
  for (const auto& [k, v] : values_) {
    if (std::string_view(k).substr(0, k.find('.')) != seg ||
        asked_.count(k) != 0) {
      continue;
    }
    unread += (unread.empty() ? " (unread: '" : ", '") + k + "'" + where(k);
  }
  fail("missing key", std::string(key) + unread + (unread.empty() ? "" : ")"));
}

std::string Config::get_string(std::string_view key, std::string_view def) const {
  auto v = lookup(key);
  return v ? *v : std::string(def);
}

std::int64_t Config::to_int(std::string_view key, const std::string& v) const {
  if (const auto n = parse_integer<std::int64_t>(v)) return *n;
  fail("not an integer at key '" + std::string(key) + "'" + where(key), v);
}

std::uint64_t Config::to_uint64(std::string_view key,
                                const std::string& v) const {
  if (const auto n = parse_integer<std::uint64_t>(v)) return *n;
  reject(key, std::to_string(to_int(key, v)) + " is out of range [0, " +
                  std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                  "]");
}

std::int64_t Config::get_int(std::string_view key) const {
  return to_int(key, get_string(key));
}

std::int64_t Config::get_int(std::string_view key, std::int64_t def) const {
  const auto v = lookup(key);
  return v ? to_int(key, *v) : def;
}

double Config::get_double(std::string_view key) const {
  const std::string v = get_string(key);
  double out = 0;
  try {
    std::size_t used = 0;
    out = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
  } catch (const std::exception&) {
    fail("not a double at key '" + std::string(key) + "'" + where(key), v);
  }
  // NaN passes no bound a validate() checks, and an infinity converts to no
  // cycle count: neither is a parameter.
  if (!std::isfinite(out)) reject(key, "'" + v + "' is not a finite number");
  return out;
}

double Config::get_double(std::string_view key, double def) const {
  return lookup(key) ? get_double(key) : def;
}

bool Config::get_bool(std::string_view key) const {
  const std::string v = get_string(key);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  fail("not a boolean at key '" + std::string(key) + "'" + where(key), v);
}

bool Config::get_bool(std::string_view key, bool def) const {
  return lookup(key) ? get_bool(key) : def;
}

void Config::reject_unread(std::string_view prefix) const {
  const std::string* first = nullptr;
  const auto order = [this](const std::string& k) {
    return source_line(k).value_or(std::numeric_limits<std::size_t>::max());
  };
  for (const auto& [k, v] : values_) {
    if (k.rfind(prefix, 0) != 0 || asked_.count(k) != 0) continue;
    if (first == nullptr || order(k) < order(*first)) first = &k;
  }
  if (first == nullptr) return;
  const std::string seg = first->substr(0, first->find('.'));
  std::string known;
  for (const auto& k : asked_) {
    if (k.substr(0, k.find('.')) != seg) continue;
    known += (known.empty() ? "" : ", ") + k;
  }
  throw UnreadKeyError(
      *first, "unknown key '" + *first + "'" + where(*first) + "; " +
                  (known.empty() ? "nothing reads " + seg + ".* keys"
                                 : "known " + seg + ".* keys: " + known));
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::string Config::consumed_dump() const {
  std::ostringstream ss;
  for (const auto& k : asked_) {
    const auto it = values_.find(k);
    if (it != values_.end()) ss << k << " = " << it->second << '\n';
  }
  return ss.str();
}

std::string Config::dump() const {
  std::ostringstream ss;
  for (const auto& [k, v] : values_) ss << k << " = " << v << '\n';
  return ss.str();
}

}  // namespace sctm
