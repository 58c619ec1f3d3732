#include "fullsys/core_model.hpp"

#include <stdexcept>

namespace sctm::fullsys {

Core::Core(Simulator& sim, std::string name, NodeId id, std::vector<Op> stream,
           const FullSysParams& params, Fabric& fabric)
    : Component(sim, std::move(name)),
      id_(id),
      stream_(std::move(stream)),
      params_(params),
      fabric_(fabric),
      l1_(params.l1_sets, params.l1_ways),
      stat_loads_(counter("loads")),
      stat_stores_(counter("stores")),
      stat_writebacks_(counter("writebacks")),
      stat_barriers_(counter("barriers")) {}

void Core::start() {
  sim().schedule_in(0, [this] { step(); });
}

void Core::step() {
  // Fold hits and computes into one pass; schedule only at blocking points.
  // In per-cycle mode, re-enter per hit and per compute cycle instead of
  // folding: the cycle-level schedule is identical, but the kernel pays an
  // event per instruction the way an interpreting front end would (see
  // FullSysParams::core_detail).
  Cycle acc = 0;
  while (pc_ < stream_.size()) {
    const Op& op = stream_[pc_];
    switch (op.kind) {
      case OpKind::kCompute:
        if (params_.core_detail == CoreDetail::kPerCycle && op.arg > 1) {
          if (compute_remaining_ == 0) compute_remaining_ = op.arg;
          if (--compute_remaining_ == 0) ++pc_;
          sim().schedule_in(acc + 1, [this] { step(); });
          return;
        }
        acc += op.arg;
        ++pc_;
        break;
      case OpKind::kLoad:
      case OpKind::kStore: {
        // Cache state changes underneath us (Inv/Recall) while compute time
        // accrues, so a lookup is only valid at its actual simulated time:
        // re-enter at now+acc before touching the cache.
        if (acc > 0) {
          sim().schedule_in(acc, [this] { step(); });
          return;
        }
        const bool is_write = (op.kind == OpKind::kStore);
        (is_write ? stat_stores_ : stat_loads_)++;
        const LineState st = l1_.lookup(op.arg);
        const bool hit =
            (st == LineState::kM) || (st == LineState::kS && !is_write);
        if (hit) {
          if (params_.core_detail == CoreDetail::kPerCycle) {
            ++pc_;
            sim().schedule_in(params_.l1_hit_latency, [this] { step(); });
            return;
          }
          acc += params_.l1_hit_latency;
          ++pc_;
          break;
        }
        // Miss (including S->M upgrade): block and issue after the accrued
        // compute time plus miss-detect latency.
        miss_line_ = op.arg;
        miss_is_write_ = is_write;
        acc += params_.l1_hit_latency + params_.l1_miss_detect;
        sim().schedule_in(acc, [this] { issue_miss(); });
        return;
      }
      case OpKind::kBarrier: {
        ++stat_barriers_;
        blocked_ = Blocked::kBarrier;
        const MsgId cause = last_unblock_;
        sim().schedule_in(acc, [this, cause] {
          fabric_.send(ProtoMsg::kBarArrive, id_, params_.barrier_home, 0,
                       cause == kInvalidMsg ? std::vector<MsgId>{}
                                            : std::vector<MsgId>{cause});
        });
        ++pc_;
        return;
      }
      case OpKind::kDone:
        done_ = true;
        finish_time_ = now() + acc;
        return;
    }
  }
  done_ = true;
  finish_time_ = now() + acc;
}

void Core::issue_miss() {
  const std::vector<MsgId> causes =
      last_unblock_ == kInvalidMsg ? std::vector<MsgId>{}
                                   : std::vector<MsgId>{last_unblock_};
  // Upgrade misses keep the S line in place (no victim needed). Cold misses
  // may need a victim way; dirty victims write back first.
  const LineState have = l1_.probe(miss_line_);
  if (have == LineState::kI) {
    const auto victim = l1_.victim_for(miss_line_);
    if (victim && victim->state == LineState::kM) {
      ++stat_writebacks_;
      l1_.invalidate(victim->line_no);  // stale Recalls get RecallStale
      blocked_ = Blocked::kWriteback;
      fabric_.send(ProtoMsg::kPutM, id_, fabric_.home_of(victim->line_no),
                   victim->line_no, causes);
      return;
    }
    if (victim) l1_.invalidate(victim->line_no);  // silent clean eviction
  }
  blocked_ = Blocked::kMiss;
  fabric_.send(miss_is_write_ ? ProtoMsg::kGetM : ProtoMsg::kGetS, id_,
               fabric_.home_of(miss_line_), miss_line_, causes);
}

void Core::on_message(ProtoMsg type, std::uint64_t line, MsgId msg_id) {
  switch (type) {
    case ProtoMsg::kInv: {
      // Unblock-closed transactions guarantee an Inv never chases a data
      // grant; an Inv while we wait on this very line targets our *stale*
      // sharer registration (we hold nothing) and is acked immediately.
      l1_.invalidate(line);  // may be absent after a silent eviction
      fabric_.send(ProtoMsg::kInvAck, id_, fabric_.home_of(line), line,
                   {msg_id});
      return;
    }
    case ProtoMsg::kRecall: {
      if (l1_.probe(line) == LineState::kM) {
        l1_.invalidate(line);
        fabric_.send(ProtoMsg::kRecallData, id_, fabric_.home_of(line), line,
                     {msg_id});
      } else {
        fabric_.send(ProtoMsg::kRecallStale, id_, fabric_.home_of(line), line,
                     {msg_id});
      }
      return;
    }
    case ProtoMsg::kWbAck: {
      if (blocked_ != Blocked::kWriteback) {
        throw std::logic_error(name() + ": unexpected WbAck");
      }
      // The victim way is free; issue the demand request now.
      last_unblock_ = msg_id;
      blocked_ = Blocked::kNone;
      issue_miss();
      return;
    }
    case ProtoMsg::kData:
    case ProtoMsg::kDataM: {
      if (blocked_ != Blocked::kMiss || line != miss_line_) {
        throw std::logic_error(name() + ": unexpected data reply");
      }
      const auto evicted = l1_.insert(
          line, type == ProtoMsg::kDataM ? LineState::kM : LineState::kS);
      if (evicted && evicted->state == LineState::kM) {
        // Cannot happen: the victim way was cleared at issue_miss().
        throw std::logic_error(name() + ": fill evicted a dirty line");
      }
      blocked_ = Blocked::kNone;
      last_unblock_ = msg_id;
      ++pc_;  // the memory op completes
      // Confirm receipt so the directory can close the transaction and
      // start the next one for this line.
      fabric_.send(ProtoMsg::kUnblock, id_, fabric_.home_of(line), line,
                   {msg_id});
      sim().schedule_in(params_.fill_latency, [this] { step(); });
      return;
    }
    case ProtoMsg::kBarRelease: {
      if (blocked_ != Blocked::kBarrier) {
        throw std::logic_error(name() + ": unexpected barrier release");
      }
      blocked_ = Blocked::kNone;
      last_unblock_ = msg_id;
      sim().schedule_in(0, [this] { step(); });
      return;
    }
    default:
      throw std::logic_error(name() + ": unexpected message " +
                             std::string(to_string(type)));
  }
}

}  // namespace sctm::fullsys
