// Flat key-value configuration store.
//
// All simulator parameters flow through a Config so that experiments are
// reproducible from a single text blob. Keys are dotted paths
// ("enoc.vc_count"), values are typed on read. Unknown keys are an error on
// read unless a default is supplied; reads are recorded so a run can dump the
// exact configuration it used (consumed_dump), which the bench harness prints
// for table R-T1.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sctm {

class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines. '#' starts a comment; blank lines ignored.
  /// Throws std::runtime_error on malformed lines and on a key assigned
  /// twice (the error names both lines): a silent first-or-last-wins would
  /// turn a copy-paste slip in an experiment file into a quietly different
  /// run. Programmatic overrides go through set()/merge(), which keep their
  /// last-wins semantics.
  static Config from_string(std::string_view text);

  /// Loads from a file; throws std::runtime_error when unreadable.
  static Config from_file(const std::string& path);

  void set(std::string key, std::string value);
  void set_int(std::string key, std::int64_t value);
  void set_double(std::string key, double value);
  void set_bool(std::string key, bool value);

  bool contains(std::string_view key) const;

  /// Typed getters. The no-default overloads throw std::runtime_error when
  /// the key is absent; all throw when the value fails to parse.
  std::string get_string(std::string_view key) const;
  std::string get_string(std::string_view key, std::string_view def) const;
  std::int64_t get_int(std::string_view key) const;
  std::int64_t get_int(std::string_view key, std::int64_t def) const;
  double get_double(std::string_view key) const;
  double get_double(std::string_view key, double def) const;
  bool get_bool(std::string_view key) const;
  bool get_bool(std::string_view key, bool def) const;

  /// Checked integer read, the one way to read an integer parameter into a
  /// type narrower than int64 or unsigned: a value `T` cannot hold throws
  /// std::invalid_argument naming the key — and its source line when this
  /// config was parsed from text — instead of wrapping (-1 read into a
  /// uint32 window would silently mean "full window").
  template <class T>
  T get_as(std::string_view key, T def) const {
    if (!contains(key)) return def;
    const std::int64_t v = get_int(key);
    if (!std::in_range<T>(v)) {
      reject_range(key, v,
                   "[" + std::to_string(std::numeric_limits<T>::min()) +
                       ", " + std::to_string(std::numeric_limits<T>::max()) +
                       "]");
    }
    return static_cast<T>(v);
  }

  /// Merges `other` on top of this config (other wins on conflicts).
  void merge(const Config& other);

  /// Validates every key under `prefix` ("fault.") against an allowed
  /// vocabulary (suffixes, without the prefix). Throws std::runtime_error
  /// naming the offending key — and its source line when this config was
  /// parsed from text — so a typo'd key hard-errors instead of silently
  /// meaning "use the default". No-op for configs with no such keys.
  void require_keys_in(std::string_view prefix,
                       std::initializer_list<std::string_view> allowed) const;

  /// Source line of `key` when this config was parsed from text (1-based);
  /// nullopt for keys set programmatically. Error attribution for consumers
  /// that validate whole namespaces (candidate lists, screen settings).
  std::optional<std::size_t> source_line(std::string_view key) const;

  /// All keys in sorted order.
  std::vector<std::string> keys() const;

  /// "key = value" lines for every key that has been *read* so far, sorted.
  std::string consumed_dump() const;

  /// Keys not read so far, sorted: once a parser has run, the keys it does
  /// not know.
  std::vector<std::string> unread_keys() const;

  /// "key = value" lines for every key, sorted.
  std::string dump() const;

 private:
  std::optional<std::string> lookup(std::string_view key) const;
  [[noreturn]] void reject_range(std::string_view key, std::int64_t v,
                                 const std::string& range) const;

  std::map<std::string, std::string, std::less<>> values_;
  /// Source line of each key parsed from text (error attribution). Keys set
  /// programmatically have no entry.
  std::map<std::string, std::size_t, std::less<>> lines_;
  mutable std::set<std::string, std::less<>> consumed_;
};

}  // namespace sctm
