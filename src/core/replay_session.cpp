#include "core/replay_session.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace sctm::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string node_mismatch(int net_nodes, const ReplayTrace& rt) {
  return "replay: network has " + std::to_string(net_nodes) +
         " nodes, trace has " + std::to_string(rt.nodes()) +
         " (captured on " + rt.capture_network() + ")";
}

}  // namespace

ReplaySession::ReplaySession(const ReplayTrace& rt, NetworkFactory factory,
                             const ReplayConfig& config)
    : rt_(rt),
      config_(config),
      naive_(config.mode == ReplayMode::kNaive),
      factory_(std::move(factory)) {
  if (!rt_.finalized()) {
    throw std::logic_error("replay: ReplayTrace not finalized");
  }
  kept_ = build_kept_deps(rt_, config_);
  const std::uint32_t n = rt_.size();
  pending_.assign(n, 0);
  ready_.assign(n, 0);
  bound_.assign(n, 0);
  prev_inject_.assign(n, 0);
  result_.inject_time.reserve(n);
  result_.arrive_time.reserve(n);
  build_network();
}

ReplaySession::ReplaySession(const ReplayTrace& rt, const NetSpec& spec,
                             const ReplayConfig& config)
    : ReplaySession(rt, make_factory(spec), config) {}

void ReplaySession::build_network() {
  // Destroy the old network before erasing the stat entries its components
  // hold references into; the kernel then rewinds for the fresh build.
  net_.reset();
  sim_.reset();
  std::unique_ptr<noc::Network> net = factory_(sim_);
  if (!net) throw std::logic_error("replay: factory returned null network");
  if (net->node_count() != rt_.nodes()) {
    throw std::invalid_argument(node_mismatch(net->node_count(), rt_));
  }
  auto cb = [this](const noc::Message& msg) { on_deliver(msg); };
  static_assert(noc::Network::DeliverFn::fits_inline<decltype(cb)>(),
                "delivery callback must stay within the SBO budget");
  net->set_deliver_callback(std::move(cb));
  net_ = std::move(net);
}

noc::Network& ReplaySession::bound_network() const {
  if (!net_) {
    throw std::logic_error("replay: no network bound; the rebind to " +
                           rebind_target_ + " failed");
  }
  return *net_;
}

void ReplaySession::rebind(const NetSpec& spec) {
  // Reject what cannot replay this trace before tearing anything down, so
  // the session stays bound to its old factory and network.
  if (spec.topo.node_count() != rt_.nodes()) {
    throw std::invalid_argument(node_mismatch(spec.topo.node_count(), rt_));
  }
  factory_ = make_factory(spec);
  rebind_target_ = spec.describe();  // named by bound_network() on failure
  build_network();
}

void ReplaySession::inject_record(std::uint32_t idx) {
  noc::Message m;
  m.id = rt_.id(idx);
  m.src = rt_.src(idx);
  m.dst = rt_.dst(idx);
  m.size_bytes = rt_.size_bytes(idx);
  m.cls = rt_.cls(idx);
  m.tag = idx;
  result_.inject_time[idx] = sim_.now();
  net_->inject(m);
}

// Same-cycle injections must enter the network in capture order (record ids
// increase with capture event order), or arbitration ties resolve
// differently and the fixed-point property breaks. Eligible records are
// therefore batched per cycle, and the batch that opens a cycle schedules
// that cycle's late-band flush, which injects it sorted. Every delivery of
// cycle t runs in the normal band, before the flush, so a child that a
// same-cycle delivery unlocks lands in the same sorted batch as its
// cycle-mates. A delivery made from inside the flush (a zero-latency network)
// opens a fresh batch with its own flush; the late band keeps draining until
// empty, so nothing waits a cycle.
void ReplaySession::mark_eligible(std::uint32_t idx, Cycle t) {
  if (!eligible_.add(t, idx)) return;
  auto flush = [this, t] {
    eligible_.flush(t, [this](std::uint32_t i) { inject_record(i); });
  };
  static_assert(InlineFn::fits_inline<decltype(flush)>());
  sim_.schedule_late(t, std::move(flush));
}

// Resolves the delivered record's kept edges: max-fold its arrival + slack
// into each child's ready time, and mark a child eligible once its last kept
// parent has arrived. Which delivery unlocks a child does not depend on the
// delivery order, because a pending count only reaches zero once every kept
// parent has been applied.
void ReplaySession::on_deliver(const noc::Message& msg) {
  const auto idx = static_cast<std::uint32_t>(msg.tag);
  const Cycle arrive = msg.arrive_time;
  result_.arrive_time[idx] = arrive;
  if (naive_) return;
  for (std::uint32_t e = rt_.edge_begin(idx); e < rt_.edge_end(idx); ++e) {
    if (!kept_[e]) continue;
    const std::uint32_t c = rt_.child(e);
    ready_[c] = std::max(ready_[c], arrive + rt_.slack(c, idx));
    if (--pending_[c] == 0) {
      mark_eligible(c, std::max({ready_[c], bound_[c], sim_.now()}));
    }
  }
}

std::uint32_t ReplaySession::kept_count(std::uint32_t i) const {
  return naive_ ? 0 : std::min(rt_.dep_count(i), config_.dependency_window);
}

void ReplaySession::run_pass_prepared() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t n = rt_.size();

  bound_network();  // throws after a failed rebind
  build_network();

  result_.inject_time.assign(n, kNoCycle);
  result_.arrive_time.assign(n, kNoCycle);

  // Seed: fill the pending counts; everything without pending kept deps
  // starts at its bound, marked in ascending record order.
  for (std::uint32_t i = 0; i < n; ++i) {
    pending_[i] = kept_count(i);
    ready_[i] = 0;
    if (pending_[i] == 0) mark_eligible(i, bound_[i]);
  }

  sim_.run();

  for (std::uint32_t i = 0; i < n; ++i) {
    if (result_.arrive_time[i] == kNoCycle) {
      throw std::logic_error(
          "replay: record never delivered (dependency cycle or lost "
          "message), id=" + std::to_string(rt_.id(i)));
    }
  }
  result_.runtime =
      n == 0 ? 0
             : *std::max_element(result_.arrive_time.begin(),
                                 result_.arrive_time.end());
  result_.events = sim_.events_executed();
  pass_wall_ = seconds_since(t0);
}

const ReplayResult& ReplaySession::run_pass() {
  const std::uint32_t n = rt_.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    bound_[i] = kept_count(i) == 0 ? rt_.inject_time(i) : 0;
  }
  run_pass_prepared();
  result_.iterations = 1;
  result_.residual = 0.0;
  result_.iteration_log.clear();
  result_.iteration_log.push_back({1, 0.0, result_.events, pass_wall_});
  return result_;
}

const ReplayResult& ReplaySession::run() {
  const std::uint32_t n = rt_.size();
  std::uint32_t max_deps = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    max_deps = std::max(max_deps, rt_.dep_count(i));
  }
  const bool single_pass = naive_ || config_.dependency_window >= max_deps;

  run_pass();
  log_ = result_.iteration_log;
  std::uint64_t total_events = result_.events;

  if (!single_pass) {
    // Iterative self-correction for truncated windows: re-derive each
    // record's lower bound from its *full* dependency list evaluated against
    // the previous pass's arrival times, then replay again, until injection
    // times stop moving.
    //
    // A record injects at I = max(B, X): its bound B, and X, its kept
    // parents' arrivals plus slack and the cycle the last of them landed. A
    // pass is a deterministic function of its bounds (it builds its network
    // afresh), so by induction over simulated time X repeats in the next
    // pass as long as every injection does. A record whose bound stays put
    // (B' = B) then injects at I again, and so does one whose bound did not
    // bind (B < I, so X = I) and still does not (B' <= I). When every record
    // is one of the two, the next pass would repeat this one event for
    // event: the loop stops without simulating it, at residual 0. (B' <= I
    // alone is not enough: where B binds, X may lie below it.)
    for (int iter = 2; iter <= config_.max_iterations; ++iter) {
      bool repeats = true;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t dc = rt_.dep_count(i);
        if (dc == 0) {
          bound_[i] = rt_.inject_time(i);  // anchors never move
          continue;
        }
        Cycle b = 0;
        for (std::uint32_t k = 0; k < dc; ++k) {
          // Parents were resolved to record indices at load — no id
          // lookup in the iteration hot loop.
          const std::uint32_t p = rt_.dep_parent_index(i, k);
          b = std::max(b, result_.arrive_time[p] + rt_.slack(i, p));
        }
        const Cycle inject = result_.inject_time[i];
        repeats = repeats &&
                  (b == bound_[i] || (bound_[i] < inject && b <= inject));
        bound_[i] = b;
      }
      if (repeats) {
        result_.residual = 0.0;
        break;
      }
      prev_inject_.swap(result_.inject_time);
      run_pass_prepared();
      total_events += result_.events;

      double shift = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto a = result_.inject_time[i];
        const auto b = prev_inject_[i];
        shift += static_cast<double>(a > b ? a - b : b - a);
      }
      shift /= static_cast<double>(n);
      log_.push_back({iter, shift, result_.events, pass_wall_});
      result_.iterations = iter;
      result_.residual = shift;
      if (shift < ReplayConfig::convergence_threshold) break;
    }
  }
  result_.events = total_events;
  result_.iteration_log = log_;
  snapshot_stats();
  return result_;
}

void ReplaySession::snapshot_stats() { result_.stats = sim_.stats(); }

ReplayResult ReplaySession::take_result() {
  ReplayResult out = std::move(result_);
  result_ = ReplayResult{};
  return out;
}

}  // namespace sctm::core
