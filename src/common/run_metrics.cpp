#include "common/run_metrics.hpp"

#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "common/json.hpp"
#include "common/table.hpp"

namespace sctm {

void write_table_json(JsonWriter& w, const Table& t) {
  w.begin_object();
  w.key("title");
  w.value(t.title());
  w.key("header");
  w.begin_array();
  for (const auto& h : t.header()) w.value(h);
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& row : t.rows()) {
    w.begin_array();
    for (const auto& cell : row) w.value(cell);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

std::string now_iso8601() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void RunManifest::set(std::string_view key, std::string value) {
  for (auto& [k, v] : config) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  config.emplace_back(std::string(key), std::move(value));
}

void RunManifest::set(std::string_view key, std::uint64_t value) {
  set(key, std::to_string(value));
}

void RunManifest::set(std::string_view key, std::int64_t value) {
  set(key, std::to_string(value));
}

void RunMetrics::add_phase(std::string name, double wall_seconds,
                           std::uint64_t events) {
  phases_.push_back({std::move(name), wall_seconds, events});
}

void RunMetrics::add_phases(const std::vector<PhaseMetrics>& phases) {
  phases_.insert(phases_.end(), phases.begin(), phases.end());
}

void RunMetrics::add_histogram(std::string name, const Histogram& h,
                               bool with_buckets) {
  histograms_.push_back({std::move(name), h, with_buckets});
}

std::string RunMetrics::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(kMetricsSchema);

  w.key("manifest");
  w.begin_object();
  w.key("tool");
  w.value(manifest.tool);
  w.key("created");
  w.value(manifest.created);
  w.key("config");
  w.begin_object();
  for (const auto& [k, v] : manifest.config) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.end_object();

  w.key("phases");
  w.begin_array();
  for (const auto& p : phases_) {
    w.begin_object();
    w.key("name");
    w.value(p.name);
    w.key("wall_seconds");
    w.value(p.wall_seconds);
    w.key("events");
    w.value(p.events);
    w.end_object();
  }
  w.end_array();

  w.key("stats");
  w.begin_object();
  w.key("counters");
  stats_.write_counters_json(w);
  w.key("accumulators");
  stats_.write_accumulators_json(w);
  w.key("histograms");
  w.begin_object();
  for (const auto& h : histograms_) {
    w.key(h.name);
    h.hist.write_json(w, h.with_buckets);
  }
  w.end_object();
  w.end_object();

  w.key("results");
  if (results_json_.empty()) {
    w.begin_object();
    w.end_object();
  } else {
    w.raw(results_json_);
  }
  w.end_object();
  return std::move(w).str();
}

void RunMetrics::write_file(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("RunMetrics: cannot write " + path);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) throw std::runtime_error("RunMetrics: short write to " + path);
}

namespace {

bool check(bool cond, const char* what, std::string* err) {
  if (!cond && err) *err = what;
  return cond;
}

}  // namespace

bool validate_metrics_doc(const JsonValue& doc, std::string* err) {
  if (!check(doc.is_object(), "document is not an object", err)) return false;

  const JsonValue* schema = doc.find("schema");
  if (!check(schema && schema->is_string(), "missing string 'schema'", err)) {
    return false;
  }
  if (!check(schema->string == kMetricsSchema, "unknown schema identifier",
             err)) {
    return false;
  }

  const JsonValue* manifest = doc.find("manifest");
  if (!check(manifest && manifest->is_object(), "missing object 'manifest'",
             err)) {
    return false;
  }
  const JsonValue* tool = manifest->find("tool");
  if (!check(tool && tool->is_string() && !tool->string.empty(),
             "manifest.tool must be a non-empty string", err)) {
    return false;
  }
  const JsonValue* config = manifest->find("config");
  if (!check(config && config->is_object(), "manifest.config must be an object",
             err)) {
    return false;
  }

  const JsonValue* phases = doc.find("phases");
  if (!check(phases && phases->is_array(), "missing array 'phases'", err)) {
    return false;
  }
  for (const JsonValue& p : phases->array) {
    if (!check(p.is_object(), "phase entry is not an object", err)) {
      return false;
    }
    const JsonValue* name = p.find("name");
    const JsonValue* wall = p.find("wall_seconds");
    if (!check(name && name->is_string(), "phase missing string 'name'", err)) {
      return false;
    }
    if (!check(wall && wall->is_number() && wall->number >= 0.0,
               "phase missing non-negative number 'wall_seconds'", err)) {
      return false;
    }
  }

  const JsonValue* stats = doc.find("stats");
  if (!check(stats && stats->is_object(), "missing object 'stats'", err)) {
    return false;
  }
  for (const char* section : {"counters", "accumulators", "histograms"}) {
    const JsonValue* s = stats->find(section);
    if (!check(s && s->is_object(),
               "stats section missing or not an object", err)) {
      if (err) *err = std::string("stats.") + section + ": " + *err;
      return false;
    }
  }
  for (const auto& [k, v] : stats->find("counters")->object) {
    (void)k;
    if (!check(v.is_number(), "counter value is not a number", err)) {
      return false;
    }
  }

  const JsonValue* results = doc.find("results");
  if (!check(results && results->is_object(), "missing object 'results'",
             err)) {
    return false;
  }
  return true;
}

bool validate_metrics_json(std::string_view text, std::string* err) {
  JsonValue doc;
  if (!json_parse(text, &doc, err)) {
    if (err) *err = "parse error: " + *err;
    return false;
  }
  return validate_metrics_doc(doc, err);
}

}  // namespace sctm
