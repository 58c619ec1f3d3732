#include "core/replay_input.hpp"

#include "tracestore/trace_store.hpp"

namespace sctm::core {

ReplayTrace::ReplayTrace(trace::Trace t) : trace_(std::move(t)) {
  tracestore::index_trace(trace_, children_, content_hash_);
  finalized_ = true;
}

ReplayTrace ReplayTrace::from_store(const tracestore::TraceReader& reader) {
  ReplayTrace rt;
  reader.ingest(rt.trace_, &rt.children_, &rt.content_hash_);
  rt.finalized_ = true;
  return rt;
}

}  // namespace sctm::core
