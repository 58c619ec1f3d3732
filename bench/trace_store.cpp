// Trace-store bench: v1 monolith vs v2 chunked container.
//
// Measures encode/decode throughput of both on-disk formats (all in memory,
// so the numbers are codec-bound, not filesystem-bound; both decodes run the
// one ingest, which checks the trace contract) on two traces: a real
// workload capture (where id/time locality makes the delta codec shine) and
// a synthetic uniform-traffic trace (the adversarial-ish case: random
// src/dst, jittered timestamps).
// The captured-trace compression ratio v1/v2 is the headline number and
// carries the floor. The v1 and v2 encodes, and the v1 and v2 decodes, run
// as interleaved pairs (bench::interleaved_pairs): rates are at each side's
// median time, and v2/v1 is the median per-pair time ratio. Replay's own
// load (core::load_replay_trace) is timed by perfbench's load_s.
//
// Emits bench_results/BENCH_trace_store.json and exits non-zero if any
// round-trip is not bit-identical or the captured-trace compression ratio
// falls below the 1.5x floor. `--smoke` runs a reduced configuration for CI.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/run_metrics.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm {
namespace {

double mrec_per_s(std::size_t records, double s) {
  return s > 0 ? static_cast<double>(records) / s / 1e6 : 0.0;
}

/// Uniform random traffic with jittered timestamps and 0-2 deps/record:
/// none of the capture-time locality, so it shows the codec's worst side.
/// As in a capture, a record's parents are recent records that arrived by
/// its injection, so the trace keeps the contract every reader checks.
trace::Trace synthetic_trace(std::size_t records) {
  Rng rng(42);
  trace::Trace t;
  t.app = "synthetic-uniform";
  t.capture_network = "none";
  t.nodes = 64;
  t.seed = 42;
  trace::Records& r = t.records;
  MsgId id = 0;
  Cycle now = 0;
  for (std::size_t i = 0; i < records; ++i) {
    id += 1 + rng.next_below(9);
    now += rng.next_below(200);
    r.append(id, static_cast<NodeId>(rng.next_below(64)),
             static_cast<NodeId>(rng.next_below(64)),
             8u << rng.next_below(7),
             rng.next_bool(0.5) ? noc::MsgClass::kData
                                : noc::MsgClass::kReply,
             0, now, now + 10 + rng.next_below(500));
    // Up to 2 of the latest 16 records that had arrived by `now`.
    std::size_t ndeps = rng.next_below(3);
    for (std::size_t p = i; p-- > 0 && p + 16 >= i && ndeps > 0;) {
      if (r.arrive[p] <= now) {
        r.add_parent(static_cast<std::uint32_t>(p));
        --ndeps;
      }
    }
  }
  t.capture_runtime = now + 1000;
  return t;
}

struct PathResult {
  std::string name;
  std::size_t bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
};

struct TraceResults {
  std::string label;
  std::size_t records = 0;
  std::vector<PathResult> paths;  // v1, v2
  double ratio = 0;
  double encode_v2_over_v1 = 0;  // median per-pair v2/v1 time
  double decode_v2_over_v1 = 0;
  bool round_trips_ok = false;
  bool hash_ok = false;
};

TraceResults measure(const std::string& label, const trace::Trace& t,
                     int pairs) {
  TraceResults out;
  out.label = label;
  out.records = t.records.size();

  std::string v1_bytes, v2_bytes;
  const bench::PairTiming encode = bench::interleaved_pairs(
      pairs,
      [&] {
        return bench::seconds_of([&] {
          std::ostringstream os;
          tracestore::write_v1(t, os);
          v1_bytes = std::move(os).str();
        });
      },
      [&] {
        return bench::seconds_of([&] {
          std::ostringstream os;
          tracestore::write_v2(t, os);
          v2_bytes = std::move(os).str();
        });
      });
  trace::Trace v1_back, v2_back;
  const bench::PairTiming decode = bench::interleaved_pairs(
      pairs,
      [&] {
        return bench::seconds_of([&] {
          std::istringstream is(v1_bytes);
          v1_back = trace::read_binary(is);
        });
      },
      [&] {
        return bench::seconds_of([&] {
          tracestore::TraceReader reader(
              tracestore::memory_source(v2_bytes.data(), v2_bytes.size()));
          v2_back = reader.read_all();
        });
      });

  const PathResult v1{"v1 monolith", v1_bytes.size(), encode.a_s,
                      decode.a_s};
  const PathResult v2{"v2 chunked", v2_bytes.size(), encode.b_s, decode.b_s};
  out.paths = {v1, v2};
  out.encode_v2_over_v1 = encode.ratio;
  out.decode_v2_over_v1 = decode.ratio;
  out.ratio = v2.bytes > 0 ? static_cast<double>(v1.bytes) / v2.bytes : 0.0;
  out.round_trips_ok = v1_back == t && v2_back == t;
  out.hash_ok =
      tracestore::content_hash(t) ==
      tracestore::TraceReader(
          tracestore::memory_source(v2_bytes.data(), v2_bytes.size()))
          .stored_content_hash();
  return out;
}

void results_json(JsonWriter& w, const TraceResults& r) {
  w.begin_object();
  w.key("trace");
  w.value(r.label);
  w.key("records");
  w.value(static_cast<std::uint64_t>(r.records));
  w.key("v1_bytes");
  w.value(static_cast<std::uint64_t>(r.paths[0].bytes));
  w.key("v2_bytes");
  w.value(static_cast<std::uint64_t>(r.paths[1].bytes));
  w.key("compression_ratio");
  w.value(r.ratio);
  w.key("v1_encode_mrec_s");
  w.value(mrec_per_s(r.records, r.paths[0].encode_s));
  w.key("v1_decode_mrec_s");
  w.value(mrec_per_s(r.records, r.paths[0].decode_s));
  w.key("v2_encode_mrec_s");
  w.value(mrec_per_s(r.records, r.paths[1].encode_s));
  w.key("v2_decode_mrec_s");
  w.value(mrec_per_s(r.records, r.paths[1].decode_s));
  w.key("encode_time_v2_over_v1");
  w.value(r.encode_v2_over_v1);
  w.key("decode_time_v2_over_v1");
  w.value(r.decode_v2_over_v1);
  w.end_object();
}

int run(bool smoke) {
  fullsys::AppParams app;
  app.name = "fft";
  app.cores = 16;
  app.lines_per_core = 16;
  app.iterations = smoke ? 1 : 6;
  const auto exec = core::run_execution(app, bench::enoc_spec(), {});
  const int pairs = smoke ? 5 : 11;

  const TraceResults captured =
      measure("captured (fft @ enoc 4x4)", exec.trace, pairs);
  const TraceResults synthetic = measure(
      "synthetic uniform", synthetic_trace(smoke ? 4000 : 50000), pairs);

  Table table("trace container formats: v1 monolith vs v2 chunked");
  table.set_header(
      {"trace", "path", "bytes", "B/record", "enc Mrec/s", "dec Mrec/s"});
  for (const TraceResults* r : {&captured, &synthetic}) {
    for (const PathResult& p : r->paths) {
      table.add_row(
          {r->label, p.name, std::to_string(p.bytes),
           Table::fmt(r->records
                          ? static_cast<double>(p.bytes) / r->records
                          : 0.0,
                      2),
           Table::fmt(mrec_per_s(r->records, p.encode_s), 2),
           Table::fmt(mrec_per_s(r->records, p.decode_s), 2)});
    }
  }

  RunMetrics m = bench::bench_metrics(table, "BENCH_trace_store");
  m.manifest.set("pairs", pairs);
  {
    JsonWriter results;
    results.begin_object();
    results.key("table");
    write_table_json(results, table);
    results.key("traces");
    results.begin_array();
    results_json(results, captured);
    results_json(results, synthetic);
    results.end_array();
    results.key("bars");
    results.begin_array();
    results.begin_object();
    results.key("name");
    results.value("captured_compression_ratio_v1_over_v2");
    results.key("value");
    results.value(captured.ratio);
    results.key("floor");
    results.value(1.5);
    results.end_object();
    results.end_array();
    results.end_object();
    m.set_results_json(std::move(results).str());
  }
  bench::emit(table, "BENCH_trace_store", m);

  std::printf("\ncompression ratio v1/v2: captured %.2fx, synthetic %.2fx\n",
              captured.ratio, synthetic.ratio);
  for (const TraceResults* r : {&captured, &synthetic}) {
    std::printf("%s: v2/v1 time, median of %d interleaved pairs: encode "
                "%.2f, decode %.2f\n",
                r->label.c_str(), pairs, r->encode_v2_over_v1,
                r->decode_v2_over_v1);
  }

  int rc = 0;
  rc |= bench::verdict(captured.round_trips_ok,
                       "captured trace: all round-trips bit-identical");
  rc |= bench::verdict(synthetic.round_trips_ok,
                       "synthetic trace: all round-trips bit-identical");
  rc |= bench::verdict(captured.hash_ok && synthetic.hash_ok,
                       "stored content hashes match recomputation");
  rc |= bench::verdict(captured.ratio >= 1.5,
                       "captured compression ratio >= 1.5x floor");
  return rc;
}

}  // namespace
}  // namespace sctm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sctm::run(smoke);
}
