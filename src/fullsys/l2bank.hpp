// Shared L2 bank with an in-bank full-map MSI directory.
//
// Blocking directory: one transaction per line at a time; requests that hit
// a busy line are deferred FIFO and replayed on completion. The data array
// is finite (presence/dirty only — dataless protocol); the directory map is
// unbounded ("perfect directory", a documented simplification). Dirty L2
// victims are written back to memory (MemWrite, no reply).
//
// Transaction phases:
//   WaitMem     - line fetched from the memory controller
//   WaitRecall  - dirty owner recalled (GetS/GetM vs. M); a crossing PutM is
//                 accepted as the recall data and the later RecallStale is
//                 dropped
//   WaitInv     - sharers invalidated before granting M
//   WaitUnblock - data sent; the transaction closes only on the requester's
//                 Unblock receipt, so no later Inv/Recall can overtake the
//                 grant it would chase (the race the protocol fuzzer found)
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>

#include "fullsys/cache.hpp"
#include "fullsys/fabric.hpp"
#include "fullsys/params.hpp"
#include "sim/component.hpp"

namespace sctm::fullsys {

class L2Bank : public Component {
 public:
  L2Bank(Simulator& sim, std::string name, NodeId id,
         const FullSysParams& params, Fabric& fabric);

  /// Protocol messages addressed to this bank.
  void on_message(ProtoMsg type, NodeId src, std::uint64_t line, MsgId msg_id);

  bool quiescent() const { return busy_.empty(); }

  /// Calls `fn(line, state, owner, sharers)` for each directory entry
  /// (audit; only meaningful when quiescent()).
  template <typename Fn>
  void for_each_dir_entry(Fn&& fn) const {
    for (const auto& [line, e] : dir_) fn(line, e.state, e.owner, e.sharers);
  }

 private:
  struct DirEntry {
    LineState state = LineState::kI;  // kS: sharers valid; kM: owner valid
    std::set<NodeId> sharers;
    NodeId owner = kInvalidNode;
  };
  enum class Phase : std::uint8_t {
    kWaitMem,
    kWaitRecall,
    kWaitInv,
    kWaitUnblock,  // data sent; waiting for the requester's receipt
  };
  struct Txn {
    Phase phase = Phase::kWaitMem;
    NodeId requester = kInvalidNode;
    bool is_getm = false;
    int pending_acks = 0;
    bool expect_stale = false;  // PutM crossed the Recall
    MsgId last_cause = kInvalidMsg;
    std::vector<MsgId> ack_causes;
  };
  struct Deferred {
    ProtoMsg type;
    NodeId src;
    MsgId msg_id;
  };

  void handle_request(ProtoMsg type, NodeId src, std::uint64_t line,
                      MsgId msg_id);
  void handle_gets(NodeId src, std::uint64_t line, MsgId cause);
  void handle_getm(NodeId src, std::uint64_t line, MsgId cause);
  void handle_putm_idle(NodeId src, std::uint64_t line, MsgId cause);
  /// After data is guaranteed present: finish a GetS/GetM transaction.
  void grant(std::uint64_t line, Txn& txn);
  void complete(std::uint64_t line);
  /// Inserts into the data array, writing dirty victims back to memory.
  void data_insert(std::uint64_t line, bool dirty, MsgId cause);
  void send_after(Cycle delay, ProtoMsg type, NodeId dst, std::uint64_t line,
                  std::vector<MsgId> causes);

  NodeId id_;
  FullSysParams params_;
  Fabric& fabric_;
  Cache data_;  // kS = clean present, kM = dirty present
  std::unordered_map<std::uint64_t, DirEntry> dir_;
  std::unordered_map<std::uint64_t, Txn> busy_;
  std::unordered_map<std::uint64_t, std::deque<Deferred>> deferred_;

  std::uint64_t& stat_requests_;
  std::uint64_t& stat_recalls_;
  std::uint64_t& stat_invs_;
  std::uint64_t& stat_mem_reads_;
  std::uint64_t& stat_mem_writes_;
};

}  // namespace sctm::fullsys
