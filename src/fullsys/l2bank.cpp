#include "fullsys/l2bank.hpp"

#include <stdexcept>

namespace sctm::fullsys {

L2Bank::L2Bank(Simulator& sim, std::string name, NodeId id,
               const FullSysParams& params, Fabric& fabric)
    : Component(sim, std::move(name)),
      id_(id),
      params_(params),
      fabric_(fabric),
      data_(params.l2_sets, params.l2_ways),
      stat_requests_(counter("requests")),
      stat_recalls_(counter("recalls")),
      stat_invs_(counter("invalidations")),
      stat_mem_reads_(counter("mem_reads")),
      stat_mem_writes_(counter("mem_writes")) {}

void L2Bank::send_after(Cycle delay, ProtoMsg type, NodeId dst,
                        std::uint64_t line, std::vector<MsgId> causes) {
  auto ev = [this, type, dst, line, causes = std::move(causes)] {
    fabric_.send(type, id_, dst, line, causes);
  };
  static_assert(InlineFn::fits_inline<decltype(ev)>(),
                "coherence send closure must stay within the event SBO budget");
  sim().schedule_in(delay, std::move(ev));
}

void L2Bank::data_insert(std::uint64_t line, bool dirty, MsgId cause) {
  const auto evicted =
      data_.insert(line, dirty ? LineState::kM : LineState::kS);
  if (evicted && evicted->state == LineState::kM) {
    ++stat_mem_writes_;
    send_after(params_.l2_latency, ProtoMsg::kMemWrite,
               fabric_.mc_for(evicted->line_no), evicted->line_no,
               cause == kInvalidMsg ? std::vector<MsgId>{}
                                    : std::vector<MsgId>{cause});
  }
}

void L2Bank::on_message(ProtoMsg type, NodeId src, std::uint64_t line,
                        MsgId msg_id) {
  switch (type) {
    case ProtoMsg::kGetS:
    case ProtoMsg::kGetM:
    case ProtoMsg::kPutM:
      handle_request(type, src, line, msg_id);
      return;
    case ProtoMsg::kInvAck: {
      auto it = busy_.find(line);
      if (it == busy_.end() || it->second.phase != Phase::kWaitInv) {
        throw std::logic_error(name() + ": stray InvAck");
      }
      Txn& txn = it->second;
      txn.ack_causes.push_back(msg_id);
      if (--txn.pending_acks == 0) {
        DirEntry& e = dir_[line];
        e.state = LineState::kM;
        e.owner = txn.requester;
        e.sharers.clear();
        send_after(params_.dir_latency, ProtoMsg::kDataM, txn.requester, line,
                   txn.ack_causes);
        txn.phase = Phase::kWaitUnblock;
      }
      return;
    }
    case ProtoMsg::kUnblock: {
      auto it = busy_.find(line);
      if (it == busy_.end() || it->second.phase != Phase::kWaitUnblock ||
          it->second.requester != src) {
        throw std::logic_error(name() + ": stray Unblock");
      }
      complete(line);
      return;
    }
    case ProtoMsg::kRecallData: {
      auto it = busy_.find(line);
      if (it == busy_.end() || it->second.phase != Phase::kWaitRecall) {
        throw std::logic_error(name() + ": stray RecallData");
      }
      it->second.last_cause = msg_id;
      data_insert(line, /*dirty=*/true, msg_id);
      grant(line, it->second);
      return;
    }
    case ProtoMsg::kRecallStale: {
      auto it = busy_.find(line);
      if (it != busy_.end() && it->second.phase == Phase::kWaitRecall) {
        // The PutM that crossed our Recall has not arrived yet; remember
        // that the stale answer came first and finish when the PutM lands.
        it->second.expect_stale = false;  // consumed
        it->second.phase = Phase::kWaitRecall;
        return;
      }
      // Stale answer after the crossing PutM already completed the recall.
      return;
    }
    case ProtoMsg::kMemData: {
      auto it = busy_.find(line);
      if (it == busy_.end() || it->second.phase != Phase::kWaitMem) {
        throw std::logic_error(name() + ": stray MemData");
      }
      it->second.last_cause = msg_id;
      data_insert(line, /*dirty=*/false, msg_id);
      Txn& txn = it->second;
      if (txn.is_getm) {
        // Data present now; invalidate sharers if any remain.
        DirEntry& e = dir_[line];
        std::vector<NodeId> to_inv(e.sharers.begin(), e.sharers.end());
        std::erase(to_inv, txn.requester);
        if (!to_inv.empty()) {
          txn.phase = Phase::kWaitInv;
          txn.pending_acks = static_cast<int>(to_inv.size());
          for (const NodeId s : to_inv) {
            ++stat_invs_;
            send_after(params_.dir_latency, ProtoMsg::kInv, s, line, {msg_id});
          }
          return;
        }
      }
      grant(line, txn);
      return;
    }
    default:
      throw std::logic_error(name() + ": unexpected message " +
                             std::string(to_string(type)));
  }
}

void L2Bank::handle_request(ProtoMsg type, NodeId src, std::uint64_t line,
                            MsgId msg_id) {
  ++stat_requests_;
  const auto it = busy_.find(line);
  if (it != busy_.end()) {
    if (type == ProtoMsg::kPutM && it->second.phase == Phase::kWaitRecall) {
      // PutM crossed our Recall: treat it as the recall data and ack the
      // writeback; the RecallStale answer (before or after) is dropped.
      Txn& txn = it->second;
      txn.expect_stale = true;
      txn.last_cause = msg_id;
      send_after(params_.dir_latency, ProtoMsg::kWbAck, src, line, {msg_id});
      data_insert(line, /*dirty=*/true, msg_id);
      grant(line, txn);
      return;
    }
    deferred_[line].push_back(Deferred{type, src, msg_id});
    return;
  }
  switch (type) {
    case ProtoMsg::kGetS: handle_gets(src, line, msg_id); return;
    case ProtoMsg::kGetM: handle_getm(src, line, msg_id); return;
    case ProtoMsg::kPutM: handle_putm_idle(src, line, msg_id); return;
    default: throw std::logic_error(name() + ": bad request type");
  }
}

void L2Bank::handle_gets(NodeId src, std::uint64_t line, MsgId cause) {
  DirEntry& e = dir_[line];
  if (e.state == LineState::kM) {
    ++stat_recalls_;
    Txn txn;
    txn.phase = Phase::kWaitRecall;
    txn.requester = src;
    txn.is_getm = false;
    busy_.emplace(line, txn);
    send_after(params_.dir_latency, ProtoMsg::kRecall, e.owner, line, {cause});
    return;
  }
  if (data_.lookup(line) == LineState::kI) {
    ++stat_mem_reads_;
    Txn txn;
    txn.phase = Phase::kWaitMem;
    txn.requester = src;
    txn.is_getm = false;
    busy_.emplace(line, txn);
    send_after(params_.l2_latency, ProtoMsg::kMemRead, fabric_.mc_for(line),
               line, {cause});
    return;
  }
  e.state = LineState::kS;
  e.sharers.insert(src);
  Txn txn;
  txn.phase = Phase::kWaitUnblock;
  txn.requester = src;
  txn.is_getm = false;
  busy_.emplace(line, txn);
  send_after(params_.l2_latency, ProtoMsg::kData, src, line, {cause});
}

void L2Bank::handle_getm(NodeId src, std::uint64_t line, MsgId cause) {
  DirEntry& e = dir_[line];
  if (e.state == LineState::kM) {
    if (e.owner == src) {
      throw std::logic_error(name() + ": owner re-requesting M");
    }
    ++stat_recalls_;
    Txn txn;
    txn.phase = Phase::kWaitRecall;
    txn.requester = src;
    txn.is_getm = true;
    busy_.emplace(line, txn);
    send_after(params_.dir_latency, ProtoMsg::kRecall, e.owner, line, {cause});
    return;
  }
  if (data_.lookup(line) == LineState::kI) {
    ++stat_mem_reads_;
    Txn txn;
    txn.phase = Phase::kWaitMem;
    txn.requester = src;
    txn.is_getm = true;
    busy_.emplace(line, txn);
    send_after(params_.l2_latency, ProtoMsg::kMemRead, fabric_.mc_for(line),
               line, {cause});
    return;
  }
  std::vector<NodeId> to_inv(e.sharers.begin(), e.sharers.end());
  std::erase(to_inv, src);
  if (!to_inv.empty()) {
    Txn txn;
    txn.phase = Phase::kWaitInv;
    txn.requester = src;
    txn.is_getm = true;
    txn.pending_acks = static_cast<int>(to_inv.size());
    busy_.emplace(line, txn);
    for (const NodeId s : to_inv) {
      ++stat_invs_;
      send_after(params_.dir_latency, ProtoMsg::kInv, s, line, {cause});
    }
    return;
  }
  e.state = LineState::kM;
  e.owner = src;
  e.sharers.clear();
  Txn txn;
  txn.phase = Phase::kWaitUnblock;
  txn.requester = src;
  txn.is_getm = true;
  busy_.emplace(line, txn);
  send_after(params_.l2_latency, ProtoMsg::kDataM, src, line, {cause});
}

void L2Bank::handle_putm_idle(NodeId src, std::uint64_t line, MsgId cause) {
  DirEntry& e = dir_[line];
  if (e.state != LineState::kM || e.owner != src) {
    throw std::logic_error(name() + ": PutM from non-owner");
  }
  e.state = LineState::kI;
  e.owner = kInvalidNode;
  e.sharers.clear();
  data_insert(line, /*dirty=*/true, cause);
  send_after(params_.dir_latency, ProtoMsg::kWbAck, src, line, {cause});
}

void L2Bank::grant(std::uint64_t line, Txn& txn) {
  DirEntry& e = dir_[line];
  const MsgId cause = txn.last_cause;
  if (txn.is_getm) {
    e.state = LineState::kM;
    e.owner = txn.requester;
    e.sharers.clear();
    send_after(params_.l2_latency, ProtoMsg::kDataM, txn.requester, line,
               cause == kInvalidMsg ? std::vector<MsgId>{}
                                    : std::vector<MsgId>{cause});
  } else {
    e.state = LineState::kS;
    e.owner = kInvalidNode;
    if (txn.phase == Phase::kWaitRecall) {
      // The old owner's copy was just recalled; the requester is the only
      // sharer now.
      e.sharers = {txn.requester};
    } else {
      // Memory refetch after a silent L2 data eviction: existing S copies
      // remain valid, so keep them registered.
      e.sharers.insert(txn.requester);
    }
    send_after(params_.l2_latency, ProtoMsg::kData, txn.requester, line,
               cause == kInvalidMsg ? std::vector<MsgId>{}
                                    : std::vector<MsgId>{cause});
  }
  txn.phase = Phase::kWaitUnblock;
}

void L2Bank::complete(std::uint64_t line) {
  busy_.erase(line);
  // Drain deferred requests until one makes the line busy again (or the
  // queue empties). Requests that are served immediately (e.g. a GetS
  // hitting present data) must not strand the rest of the queue.
  while (busy_.find(line) == busy_.end()) {
    const auto it = deferred_.find(line);
    if (it == deferred_.end() || it->second.empty()) {
      if (it != deferred_.end()) deferred_.erase(it);
      return;
    }
    const Deferred d = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) deferred_.erase(it);
    handle_request(d.type, d.src, line, d.msg_id);
  }
}

}  // namespace sctm::fullsys
