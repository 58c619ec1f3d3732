#include "fault/fault_model.hpp"

namespace sctm::fault {
namespace {

// splitmix64 finalizer over (seed, stream id): distinct, decorrelated child
// seeds for the per-class and per-channel streams. Stream ids are stable
// constants, so the same spec always derives the same stream family.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kStreamEnoc = 0;
constexpr std::uint64_t kStreamResv = 1;
constexpr std::uint64_t kStreamOpt = 2;
constexpr std::uint64_t kStreamChanBase = 16;

}  // namespace

FaultModel::FaultModel(const FaultSpec& spec, StatRegistry& stats,
                       const std::string& stat_prefix, int channels)
    : spec_(spec),
      enoc_rng_(derive_seed(spec.seed, kStreamEnoc)),
      resv_rng_(derive_seed(spec.seed, kStreamResv)),
      opt_rng_(derive_seed(spec.seed, kStreamOpt)),
      stat_flit_corrupt_(stats.counter(stat_prefix + ".flit_corrupt")),
      stat_flit_drop_(stats.counter(stat_prefix + ".flit_drop")),
      stat_link_stuck_(stats.counter(stat_prefix + ".link_stuck")),
      stat_token_loss_(stats.counter(stat_prefix + ".token_loss")),
      stat_reservation_loss_(stats.counter(stat_prefix + ".reservation_loss")),
      stat_optical_corrupt_(stats.counter(stat_prefix + ".optical_corrupt")),
      stat_retransmissions_(stats.counter(stat_prefix + ".retransmissions")),
      stat_messages_lost_(stats.counter(stat_prefix + ".messages_lost")),
      stat_messages_recovered_(
          stats.counter(stat_prefix + ".messages_recovered")),
      stat_recovery_penalty_(
          stats.accumulator(stat_prefix + ".recovery_penalty_cycles")) {
  spec_.validate();
  chan_rng_.reserve(static_cast<std::size_t>(channels > 0 ? channels : 0));
  for (int c = 0; c < channels; ++c) {
    chan_rng_.emplace_back(
        derive_seed(spec_.seed, kStreamChanBase + static_cast<std::uint64_t>(c)));
  }
  retries_.reserve(16);
}

bool FaultModel::draw_flit_corrupt() {
  if (spec_.enoc_flit_corrupt_rate <= 0) return false;
  if (!enoc_rng_.next_bool(spec_.enoc_flit_corrupt_rate)) return false;
  ++stat_flit_corrupt_;
  return true;
}

bool FaultModel::draw_flit_drop() {
  if (spec_.enoc_flit_drop_rate <= 0) return false;
  if (!enoc_rng_.next_bool(spec_.enoc_flit_drop_rate)) return false;
  ++stat_flit_drop_;
  return true;
}

bool FaultModel::draw_link_stuck_onset() {
  if (spec_.enoc_link_stuck_rate <= 0) return false;
  if (!enoc_rng_.next_bool(spec_.enoc_link_stuck_rate)) return false;
  ++stat_link_stuck_;
  return true;
}

void FaultModel::note_stuck_hit() { ++stat_flit_corrupt_; }

bool FaultModel::draw_token_loss(int channel) {
  if (spec_.onoc_token_loss_rate <= 0) return false;
  if (!chan_rng_[static_cast<std::size_t>(channel)].next_bool(
          spec_.onoc_token_loss_rate)) {
    return false;
  }
  ++stat_token_loss_;
  return true;
}

bool FaultModel::draw_reservation_loss() {
  if (spec_.onoc_reservation_loss_rate <= 0) return false;
  if (!resv_rng_.next_bool(spec_.onoc_reservation_loss_rate)) return false;
  ++stat_reservation_loss_;
  return true;
}

bool FaultModel::draw_optical_corrupt(double p) {
  if (p <= 0) return false;
  if (!opt_rng_.next_bool(p)) return false;
  ++stat_optical_corrupt_;
  return true;
}

FaultModel::Action FaultModel::on_corrupt_message(MsgId id, Cycle now) {
  RetryState* st = retries_.find(id);
  if (st == nullptr) st = &retries_.insert(id, RetryState{0, now});
  ++st->attempts;
  if (st->attempts > spec_.max_retries) {
    ++stat_messages_lost_;
    stat_recovery_penalty_.add(static_cast<double>(now - st->first_detect));
    retries_.erase(id);
    return Action::kGiveUp;
  }
  ++stat_retransmissions_;
  return Action::kRetransmit;
}

void FaultModel::on_clean_delivery(MsgId id, Cycle now) {
  const RetryState* st = retries_.find(id);
  if (st == nullptr) return;
  ++stat_messages_recovered_;
  stat_recovery_penalty_.add(static_cast<double>(now - st->first_detect));
  retries_.erase(id);
}

}  // namespace sctm::fault
