// JSON layer schema tests: writer/parser round trips, escaping of
// pathological stat names, NaN/Inf handling, and validation of the
// run-metrics document every producer in the repo emits.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/run_metrics.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sctm {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, EmitsNestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("fft");
  w.key("rows");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.begin_object();
  w.key("ok");
  w.value(true);
  w.end_object();
  w.end_array();
  w.key("none");
  w.null();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(std::move(w).str(),
            R"({"name":"fft","rows":[1,2.5,{"ok":true}],"none":null})");
}

TEST(JsonWriter, QuoteEscapesPathologicalNames) {
  // Stat names can contain anything a Component chose to register.
  EXPECT_EQ(JsonWriter::quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(JsonWriter::quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonWriter::quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonWriter::quote(std::string_view("nul\0byte", 8)),
            "\"nul\\u0000byte\"");
  EXPECT_EQ(JsonWriter::quote("\x01"), "\"\\u0001\"");
  // Non-ASCII UTF-8 passes through untouched.
  EXPECT_EQ(JsonWriter::quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST(JsonWriter, PathologicalKeyRoundTripsThroughParser) {
  const std::string evil = "router[0].\"weird\\name\"\n\ttail";
  JsonWriter w;
  w.begin_object();
  w.key(evil);
  w.value(1);
  w.end_object();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(std::move(w).str(), &doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 1u);
  EXPECT_EQ(doc.object[0].first, evil);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  // A valid JSON document must never contain bare NaN/Infinity tokens.
  EXPECT_EQ(JsonWriter::format_double(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::format_double(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::format_double(-std::numeric_limits<double>::infinity()),
            "null");
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(std::move(w).str(), "[null]");
}

TEST(JsonWriter, DoublesRoundTripExactly) {
  for (const double d : {0.0, -0.0, 1.0 / 3.0, 0.1, 1e-300, 6.02214076e23,
                         -123456.789, 2.2250738585072014e-308}) {
    const std::string s = JsonWriter::format_double(d);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), d) << s;
  }
  // Integral doubles render without a decimal exponent blow-up.
  EXPECT_EQ(JsonWriter::format_double(42.0), "42");
}

// ---------------------------------------------------------------------------
// json_parse
// ---------------------------------------------------------------------------

TEST(JsonParse, ParsesScalarsAndContainers) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"a": [1, -2.5e2, "s", true, false, null]})",
                         &doc, &err))
      << err;
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 6u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -250.0);
  EXPECT_EQ(a->array[2].string, "s");
  EXPECT_TRUE(a->array[3].boolean);
  EXPECT_EQ(a->array[5].kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, DecodesEscapes) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(R"(["a\"b\\c\n\t\u0041\u00e9"])", &doc, &err)) << err;
  EXPECT_EQ(doc.array[0].string, "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput) {
  JsonValue doc;
  for (const char* bad : {
           "",                  // empty
           "{",                 // unterminated
           "[1,]",              // trailing comma
           "{\"a\":1,}",        // trailing comma in object
           "{\"a\":1} tail",    // trailing garbage
           "NaN",               // bare NaN is not JSON
           "[Infinity]",        // neither is Infinity
           "[-Infinity]",       //
           "[nan]",             //
           "{'a':1}",           // single quotes
           "[01]",              // leading zero
           "[1.]",              // digitless fraction
           "[\"\x01\"]",        // raw control char inside string
           "{\"a\":1,\"a\":2}"  // duplicate key
       }) {
    std::string err;
    EXPECT_FALSE(json_parse(bad, &doc, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Run-metrics document schema
// ---------------------------------------------------------------------------

/// Representative document: stats with a hostile name, phases, histogram.
RunMetrics sample_metrics() {
  RunMetrics m;
  m.manifest.tool = "test_json";
  m.manifest.created = "2026-01-01T00:00:00Z";
  m.manifest.set("app", std::string("fft"));
  m.manifest.set("seed", std::uint64_t{42});
  m.add_phase("build", 0.25, 0);
  m.add_phase("execute", 1.5, 1234);
  StatRegistry reg;
  reg.counter("net.flits") = 7;
  reg.counter("weird\"name\n") = 1;
  reg.accumulator("lat\tacc").add(3.0);
  m.set_stats(reg);
  Histogram h;
  h.add(1);
  h.add(100);
  m.add_histogram("latency", h, /*with_buckets=*/true);
  JsonWriter results;
  results.begin_object();
  results.key("runtime_cycles");
  results.value(std::uint64_t{99});
  results.end_object();
  m.set_results_json(std::move(results).str());
  return m;
}

TEST(RunMetricsDoc, SerializesRequiredKeysAndValidates) {
  const std::string doc_text = sample_metrics().to_json();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(doc_text, &doc, &err)) << err;

  const JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, kMetricsSchema);

  const JsonValue* manifest = doc.find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("tool")->string, "test_json");
  const JsonValue* config = manifest->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("app")->string, "fft");
  EXPECT_EQ(config->find("seed")->string, "42");

  const JsonValue* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 2u);
  EXPECT_EQ(phases->array[1].find("name")->string, "execute");
  EXPECT_DOUBLE_EQ(phases->array[1].find("wall_seconds")->number, 1.5);
  EXPECT_DOUBLE_EQ(phases->array[1].find("events")->number, 1234.0);

  const JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("net.flits")->number, 7.0);
  // The hostile counter name survives escaping + parsing intact.
  EXPECT_NE(counters->find("weird\"name\n"), nullptr);
  const JsonValue* acc = stats->find("accumulators")->find("lat\tacc");
  ASSERT_NE(acc, nullptr);
  EXPECT_DOUBLE_EQ(acc->find("mean")->number, 3.0);
  const JsonValue* hist = stats->find("histograms")->find("latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(hist->find("p99")->number, 100.0);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[1].number, 1.0);

  EXPECT_DOUBLE_EQ(doc.find("results")->find("runtime_cycles")->number, 99.0);

  EXPECT_TRUE(validate_metrics_doc(doc, &err)) << err;
  EXPECT_TRUE(validate_metrics_json(doc_text, &err)) << err;
}

TEST(RunMetricsDoc, EmptyDocumentStillValidates) {
  RunMetrics m;
  m.manifest.tool = "bare";
  std::string err;
  EXPECT_TRUE(validate_metrics_json(m.to_json(), &err)) << err;
}

// The document fits in the stream's buffer, so a device with no room fails
// only when fclose writes it out, and that must throw.
TEST(RunMetricsDoc, WriteFileReportsAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    sample_metrics().write_file("/dev/full");
    ADD_FAILURE() << "wrote a run-metrics document to /dev/full";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(RunMetricsDoc, ValidatorRejectsBrokenDocuments) {
  std::string err;
  EXPECT_FALSE(validate_metrics_json("not json", &err));
  EXPECT_FALSE(validate_metrics_json("[]", &err));
  EXPECT_FALSE(validate_metrics_json(R"({"schema":"other.v1"})", &err));
  // Right schema string but missing sections.
  EXPECT_FALSE(
      validate_metrics_json(R"({"schema":"sctm.run_metrics.v1"})", &err));
  // Empty manifest.tool.
  EXPECT_FALSE(validate_metrics_json(
      R"({"schema":"sctm.run_metrics.v1","manifest":{"tool":"","created":"",)"
      R"("config":{}},"phases":[],"stats":{"counters":{},"accumulators":{},)"
      R"("histograms":{}},"results":{}})",
      &err));
  // Phase with negative wall time.
  EXPECT_FALSE(validate_metrics_json(
      R"({"schema":"sctm.run_metrics.v1","manifest":{"tool":"t","created":"",)"
      R"("config":{}},"phases":[{"name":"x","wall_seconds":-1,"events":0}],)"
      R"("stats":{"counters":{},"accumulators":{},"histograms":{}},)"
      R"("results":{}})",
      &err));
  // Non-numeric counter.
  EXPECT_FALSE(validate_metrics_json(
      R"({"schema":"sctm.run_metrics.v1","manifest":{"tool":"t","created":"",)"
      R"("config":{}},"phases":[],"stats":{"counters":{"c":"oops"},)"
      R"("accumulators":{},"histograms":{}},"results":{}})",
      &err));
}

TEST(RunMetricsDoc, TableJsonEmbedsHeaderAndRows) {
  Table t("demo");
  t.set_header({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  JsonWriter w;
  write_table_json(w, t);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(std::move(w).str(), &doc, &err)) << err;
  EXPECT_EQ(doc.find("title")->string, "demo");
  ASSERT_EQ(doc.find("header")->array.size(), 2u);
  ASSERT_EQ(doc.find("rows")->array.size(), 2u);
  EXPECT_EQ(doc.find("rows")->array[1].array[1].string, "y");
}

}  // namespace
}  // namespace sctm
