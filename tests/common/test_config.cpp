#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace sctm {
namespace {

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::from_string("a = 1\nb.c = hello\n");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.get_string("b.c"), "hello");
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  const auto cfg = Config::from_string("# comment\n\n a = 2 # trailing\n");
  EXPECT_EQ(cfg.get_int("a"), 2);
}

TEST(Config, DuplicateKeyIsAHardError) {
  // A key assigned twice in one file is almost always a stale edit; silently
  // honoring the later line made the earlier one a lie. The error names both
  // lines.
  try {
    Config::from_string("a = 1\nb = 2\na = 3\n");
    FAIL() << "expected duplicate-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

TEST(Config, ProgrammaticSetStillOverwrites) {
  // set() (and merge(), below) keep last-wins semantics: sweeps patch parsed
  // configs programmatically, and that is not the stale-edit failure mode the
  // duplicate-line error guards against.
  auto cfg = Config::from_string("a = 1\n");
  cfg.set_int("a", 2);
  EXPECT_EQ(cfg.get_int("a"), 2);
}

// Asking for an absent key makes it known to reject_unread, but the dump
// echoes only keys that were present and read.
TEST(Config, ConsumedDumpSkipsAskedAbsentKeys) {
  const auto cfg = Config::from_string("a = 1\n");
  (void)cfg.get_int("a");
  (void)cfg.get_int("absent", 3);
  EXPECT_EQ(cfg.consumed_dump(), "a = 1\n");
}

TEST(Config, RejectUnreadAcceptsReadAndForeignKeys) {
  const auto cfg =
      Config::from_string("fault.seed = 3\nonoc.wavelengths = 64\n");
  (void)cfg.get_int("fault.seed");
  (void)cfg.get_int("fault.max_retries", 0);
  // Keys outside the prefix are someone else's vocabulary; read keys pass.
  EXPECT_NO_THROW(cfg.reject_unread("fault."));
  EXPECT_THROW(cfg.reject_unread(""), UnreadKeyError);
}

TEST(Config, RejectUnreadNamesUnknownKeyLineAndKnownKeys) {
  const auto cfg = Config::from_string("x = 1\nfault.sede = 3\n");
  // An asked key counts as known whether or not the config sets it.
  (void)cfg.get_as("fault.seed", std::uint64_t{1});
  try {
    cfg.reject_unread("fault.");
    FAIL() << "expected unknown-key error";
  } catch (const UnreadKeyError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.key(), "fault.sede");
    EXPECT_NE(what.find("fault.sede"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("fault.seed"), std::string::npos) << what;
  }
}

// "First" is the first unread key in the file, not in key order, so a
// misspelt key is reported before a key it left unread further down.
TEST(Config, RejectUnreadReportsTheEarliestLine) {
  const auto cfg = Config::from_string("b.late = 1\na.early = 2\n");
  try {
    cfg.reject_unread("");
    FAIL() << "expected unknown-key error";
  } catch (const UnreadKeyError& e) {
    EXPECT_EQ(e.key(), "b.late") << e.what();
    EXPECT_NE(std::string(e.what()).find("nothing reads b.* keys"),
              std::string::npos)
        << e.what();
  }
}

// A required key that is absent names the unread keys beside it: the
// likely misspelling, with its line.
TEST(Config, MissingKeyNamesUnreadKeysBesideIt) {
  const auto cfg = Config::from_string("net.topology.fil = a.topo\n");
  try {
    (void)cfg.get_string("net.topology.file");
    FAIL() << "expected missing-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("net.topology.file"), std::string::npos) << what;
    EXPECT_NE(what.find("'net.topology.fil' (line 1)"), std::string::npos)
        << what;
  }
}

TEST(Config, MissingKeyThrowsWithoutDefault) {
  const Config cfg;
  EXPECT_THROW(cfg.get_int("nope"), std::runtime_error);
  EXPECT_THROW(cfg.get_string("nope"), std::runtime_error);
}

TEST(Config, DefaultsUsedWhenAbsent) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("nope", 7), 7);
  EXPECT_EQ(cfg.get_string("nope", "x"), "x");
  EXPECT_TRUE(cfg.get_bool("nope", true));
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 1.5), 1.5);
}

TEST(Config, GetAsRejectsWhatTheTypeCannotHoldNamingKeyAndLine) {
  auto cfg = Config::from_string("a = 7\nwindow = -1\nbig = 4294967298\n");
  EXPECT_EQ(cfg.get_as("a", 0), 7);
  EXPECT_EQ(cfg.get_as("absent", std::uint32_t{5}), 5u);
  const auto expect_rejects = [&cfg](auto def, const std::string& key,
                                     const std::string& where) {
    try {
      (void)cfg.get_as(key, def);
      ADD_FAILURE() << key << " narrowed silently";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(where), std::string::npos) << what;
    }
  };
  expect_rejects(std::uint32_t{0}, "window", "(line 2)");
  expect_rejects(0, "big", "(line 3)");
  expect_rejects(std::uint64_t{0}, "window", "(line 2)");
  // A programmatic value has no line to name.
  cfg.set_int("big", std::int64_t{1} << 40);
  expect_rejects(0, "big", "big: 1099511627776 is out of range");
}

TEST(Config, TypeErrorsThrow) {
  const auto cfg = Config::from_string("a = zebra\n");
  EXPECT_THROW(cfg.get_int("a"), std::runtime_error);
  EXPECT_THROW(cfg.get_double("a"), std::runtime_error);
  EXPECT_THROW(cfg.get_bool("a"), std::runtime_error);
}

// Seeds are uint64: the whole range reads, and a negative value is out of
// range rather than "not an integer".
TEST(Config, GetAsUint64TakesTheFullRange) {
  const auto cfg = Config::from_string(
      "seed = 18446744073709551615\nneg = -1\nover = 18446744073709551616\n");
  EXPECT_EQ(cfg.get_as("seed", std::uint64_t{0}),
            std::numeric_limits<std::uint64_t>::max());
  try {
    (void)cfg.get_as("neg", std::uint64_t{0});
    FAIL() << "accepted -1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("neg (line 2): -1 is out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)cfg.get_as("over", std::uint64_t{0}), std::runtime_error);
}

// NaN passes no range check a validate() writes, and an infinity converts
// to no cycle count: a double parameter must be finite.
TEST(Config, GetDoubleRejectsNonFiniteNamingKeyAndLine) {
  const auto cfg = Config::from_string(
      "ok = 2.5\na = nan\nb = inf\nc = -inf\nd = 1e400\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("ok"), 2.5);
  for (const auto& [key, line] :
       {std::pair<std::string, std::string>{"a", "(line 2)"},
        {"b", "(line 3)"},
        {"c", "(line 4)"}}) {
    try {
      (void)cfg.get_double(key, 1.0);
      ADD_FAILURE() << key << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key + " " + line),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)cfg.get_double("d"), std::runtime_error);  // overflows
}

enum class Shade { kLight, kDark };
constexpr Spelling<Shade> kShadeNames[] = {{Shade::kLight, "light"},
                                           {Shade::kDark, "dark"}};

TEST(Config, GetEnumReadsOneSpellingTable) {
  const auto cfg = Config::from_string("a = dark\nb = grey\n");
  EXPECT_EQ(cfg.get_enum("a", kShadeNames), Shade::kDark);
  EXPECT_EQ(cfg.get_enum("absent", kShadeNames), std::nullopt);
  EXPECT_STREQ(spelling_of(kShadeNames, Shade::kLight), "light");
  try {
    (void)cfg.get_enum("b", kShadeNames);
    FAIL() << "accepted grey";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "b (line 2): unknown value 'grey' (known: light, dark)");
  }
}

TEST(Config, BoolSpellings) {
  const auto cfg =
      Config::from_string("a = true\nb = 0\nc = yes\nd = off\n");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::from_string("just a token\n"), std::runtime_error);
  EXPECT_THROW(Config::from_string("= value\n"), std::runtime_error);
}

TEST(Config, ConsumedDumpTracksReads) {
  const auto cfg = Config::from_string("a = 1\nb = 2\n");
  (void)cfg.get_int("a");
  const std::string dump = cfg.consumed_dump();
  EXPECT_NE(dump.find("a = 1"), std::string::npos);
  EXPECT_EQ(dump.find("b = 2"), std::string::npos);
}

TEST(Config, SettersRoundTrip) {
  Config cfg;
  cfg.set_int("i", -5);
  cfg.set_double("d", 0.25);
  cfg.set_bool("b", true);
  EXPECT_EQ(cfg.get_int("i"), -5);
  EXPECT_DOUBLE_EQ(cfg.get_double("d"), 0.25);
  EXPECT_TRUE(cfg.get_bool("b"));
}

TEST(Config, DumpListsAllKeysSorted) {
  const auto cfg = Config::from_string("b = 2\na = 1\n");
  EXPECT_EQ(cfg.dump(), "a = 1\nb = 2\n");
}

}  // namespace
}  // namespace sctm
