#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace sctm {
namespace {

TEST(Table, AsciiContainsTitleHeaderAndCells) {
  Table t("demo");
  t.set_header({"app", "latency"});
  t.add_row({"fft", "12.5"});
  const auto s = t.to_ascii();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("app"), std::string::npos);
  EXPECT_NE(s.find("fft"), std::string::npos);
  EXPECT_NE(s.find("12.5"), std::string::npos);
}

TEST(Table, CsvRoundTripShape) {
  Table t("x");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-3}), "-3");
  EXPECT_EQ(Table::pct(0.256, 1), "25.6%");
}

TEST(Table, RowCount) {
  Table t("x");
  t.set_header({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, WriteCsvCreatesFile) {
  Table t("x");
  t.set_header({"a"});
  t.add_row({"1"});
  const std::string path = "/tmp/sctm_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

// A device with no room takes the file's bytes into the stream's buffer;
// the write fails only when they go out, and that must throw.
TEST(Table, WriteCsvReportsAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Table t("x");
  t.set_header({"a"});
  t.add_row({"1"});
  try {
    t.write_csv("/dev/full");
    ADD_FAILURE() << "wrote a table to /dev/full";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(Table, AsciiAlignsColumns) {
  Table t("x");
  t.set_header({"long-header", "b"});
  t.add_row({"v", "w"});
  const auto s = t.to_ascii();
  // Every rendered row has equal width.
  std::size_t first_len = std::string::npos;
  std::size_t pos = 0;
  bool first_line = true;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    const std::string line = s.substr(pos, nl - pos);
    pos = nl + 1;
    if (first_line) {  // title line differs
      first_line = false;
      continue;
    }
    if (first_len == std::string::npos) first_len = line.size();
    EXPECT_EQ(line.size(), first_len) << line;
  }
}

}  // namespace
}  // namespace sctm
