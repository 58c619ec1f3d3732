// Flat key-value configuration store.
//
// All simulator parameters flow through a Config so that experiments are
// reproducible from a single text blob. Keys are dotted paths
// ("enoc.vc_count"), values are typed on read. A config records every key a
// getter asks for, present or not: consumed_dump() echoes the keys a run
// read (the bench harness prints it for table R-T1), and reject_unread()
// turns a key no parser asked for into an error, so the parsers themselves
// are the vocabulary.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace sctm {

/// An enum's spellings, written once: each configurable enum keeps one table
/// of {value, name} pairs that feeds both its to_string (spelling_of) and
/// its parser (Config::get_enum), so a spelling can never be printed one way
/// and parsed another.
template <class E>
struct Spelling {
  E value;
  const char* name;
};

/// `v`'s name in `names` ("?" for a value the table does not list).
template <class E, std::size_t N>
constexpr const char* spelling_of(const Spelling<E> (&names)[N], E v) {
  for (const auto& s : names) {
    if (s.value == v) return s.name;
  }
  return "?";
}

/// Thrown by Config::reject_unread. `key()` is the unread key, so a caller
/// that parsed a derived config (one explore candidate) can anchor the error
/// in its own source.
class UnreadKeyError : public std::runtime_error {
 public:
  UnreadKeyError(std::string key, const std::string& what)
      : std::runtime_error(what), key_(std::move(key)) {}
  const std::string& key() const { return key_; }

 private:
  std::string key_;
};

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
  /// the key is absent (naming any unread key beside it, the likely
  /// misspelling); all throw when the value fails to parse. A double must be
  /// finite: NaN and infinities throw std::invalid_argument.
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
  /// uint32 window would silently mean "full window"). uint64 reads take the
  /// full unsigned range.
  template <class T>
  T get_as(std::string_view key, T def) const {
    const auto v = lookup(key);
    if (!v) return def;
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      return to_uint64(key, *v);
    } else {
      const std::int64_t n = to_int(key, *v);
      if (!std::in_range<T>(n)) {
        reject(key, std::to_string(n) + " is out of range [" +
                        std::to_string(std::numeric_limits<T>::min()) + ", " +
                        std::to_string(std::numeric_limits<T>::max()) + "]");
      }
      return static_cast<T>(n);
    }
  }

  /// Enum read through the enum's one spelling table: nullopt when the key
  /// is absent; a value `names` does not list throws std::invalid_argument
  /// naming the key, its line and the known spellings.
  template <class E, std::size_t N>
  std::optional<E> get_enum(std::string_view key,
                            const Spelling<E> (&names)[N]) const {
    const auto v = lookup(key);
    if (!v) return std::nullopt;
    for (const auto& s : names) {
      if (*v == s.name) return s.value;
    }
    std::string known;
    for (const auto& s : names) {
      known += (known.empty() ? "" : ", ") + std::string(s.name);
    }
    reject(key, "unknown value '" + *v + "' (known: " + known + ")");
  }

  /// Throws std::invalid_argument "<key> (line N): <why>" (the line only
  /// when this config was parsed from text): the one error shape for a
  /// value its parser cannot use.
  [[noreturn]] void reject(std::string_view key, const std::string& why) const;

  /// Throws UnreadKeyError for the first key under `prefix` (empty = every
  /// key; first = lowest source line, then programmatic keys in key order)
  /// that no getter asked for. The error names the key, its line, and the
  /// asked keys sharing its first segment. Run once every parser has read
  /// its keys: a key nothing read would otherwise silently mean "the
  /// default".
  void reject_unread(std::string_view prefix) const;

  /// Merges `other` on top of this config (other wins on conflicts).
  void merge(const Config& other);

  /// Source line of `key` when this config was parsed from text (1-based);
  /// nullopt for keys set programmatically. Error attribution for consumers
  /// that validate whole namespaces (candidate lists, screen settings).
  std::optional<std::size_t> source_line(std::string_view key) const;

  /// All keys in sorted order.
  std::vector<std::string> keys() const;

  /// "key = value" lines for every key that is present and has been read,
  /// sorted.
  std::string consumed_dump() const;

  /// "key = value" lines for every key, sorted.
  std::string dump() const;

 private:
  /// The value of `key`, recording that a getter asked for it.
  std::optional<std::string> lookup(std::string_view key) const;
  std::int64_t to_int(std::string_view key, const std::string& v) const;
  std::uint64_t to_uint64(std::string_view key, const std::string& v) const;
  /// " (line N)" for a key parsed from text, "" otherwise.
  std::string where(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
  /// Source line of each key parsed from text (error attribution). Keys set
  /// programmatically have no entry.
  std::map<std::string, std::size_t, std::less<>> lines_;
  /// Every key a getter asked for, present or not.
  mutable std::set<std::string, std::less<>> asked_;
};

}  // namespace sctm
