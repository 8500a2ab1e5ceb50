// Point-to-point network link timing model, used by the distributed
// LightRW simulation (the paper's future-work InfiniBand/100G-Ethernet
// deployment). Same accounting style as DramChannel: a message occupies
// the link's serializer for its wire time and arrives one propagation
// latency later.

#ifndef LIGHTRW_HWSIM_LINK_H_
#define LIGHTRW_HWSIM_LINK_H_

#include <algorithm>
#include <cstdint>

#include "common/bits.h"
#include "common/check.h"
#include "hwsim/dram.h"
#include "reliability/fault_injector.h"

namespace lightrw::hwsim {

struct LinkConfig {
  // Wire bandwidth in bytes per kernel cycle. 100 Gb/s at a 300 MHz
  // kernel clock is ~41.7 B/cycle.
  double bytes_per_cycle = 41.7;
  // One-way latency in cycles (NIC + switch + propagation; ~2 us at
  // 300 MHz is 600 cycles).
  uint32_t latency_cycles = 600;
  // Fixed per-message serialization overhead in bytes (headers).
  uint32_t header_bytes = 32;
};

struct LinkStats {
  uint64_t messages = 0;  // wire transmissions, including retransmissions
  uint64_t payload_bytes = 0;
  Cycle busy_cycles = 0;

  void Accumulate(const LinkStats& part) {
    messages += part.messages;
    payload_bytes += part.payload_bytes;
    busy_cycles += part.busy_cycles;
  }
};

// Outcome of one reliable send (timeout + retransmission protocol).
struct LinkDelivery {
  Cycle arrival = 0;       // delivery cycle, or give-up cycle if !delivered
  bool delivered = true;
  uint32_t attempts = 1;   // wire transmissions used
};

// One directional link (a board's egress port). Deterministic accounting.
class NetworkLink {
 public:
  explicit NetworkLink(const LinkConfig& config) : config_(config) {
    LIGHTRW_CHECK(config.bytes_per_cycle > 0.0);
  }

  // Sends a message of `payload_bytes` at time >= ready; returns the
  // arrival cycle at the destination.
  Cycle Send(Cycle ready, uint32_t payload_bytes) {
    const Cycle start = ready > busy_until_ ? ready : busy_until_;
    const double wire_bytes =
        static_cast<double>(payload_bytes) + config_.header_bytes;
    const Cycle occupancy = static_cast<Cycle>(
        CeilDiv(static_cast<uint64_t>(wire_bytes * 1024.0),
                static_cast<uint64_t>(config_.bytes_per_cycle * 1024.0)));
    busy_until_ = start + (occupancy == 0 ? 1 : occupancy);
    ++stats_.messages;
    stats_.payload_bytes += payload_bytes;
    stats_.busy_cycles += busy_until_ - start;
    return busy_until_ + config_.latency_cycles;
  }

  // Reliable send: transmits the message and consults the attached fault
  // stream. A dropped frame is detected by ack timeout, a corrupted one
  // by receiver NACK; both trigger a retransmission after a backoff that
  // doubles `retransmit_backoff_shift` bits per attempt, bounded by
  // `max_retransmissions`. With no fault stream attached this is exactly
  // Send. When the budget is exhausted, delivered == false and `arrival`
  // is the cycle the sender gave up (the caller recovers the walker from
  // its checkpoint).
  LinkDelivery SendReliable(Cycle ready, uint32_t payload_bytes) {
    LinkDelivery out;
    if (faults_ == nullptr || !faults_->enabled()) {
      out.arrival = Send(ready, payload_bytes);
      return out;
    }
    const reliability::FaultConfig& fc = faults_->config();
    Cycle t = ready;
    for (uint32_t attempt = 0;; ++attempt) {
      const Cycle arrival = Send(t, payload_bytes);
      const Cycle serialized = busy_until_;  // ack timer starts here
      const reliability::LinkFault fault = faults_->NextLinkFault();
      if (fault == reliability::LinkFault::kNone) {
        out.arrival = arrival;
        out.attempts = attempt + 1;
        return out;
      }
      if (reliability_ != nullptr) {
        if (fault == reliability::LinkFault::kDropped) {
          ++reliability_->link_dropped;
        } else {
          ++reliability_->link_corrupted;
        }
      }
      const uint32_t backoff_bits = std::min<uint32_t>(
          attempt * fc.retransmit_backoff_shift, 20u);
      const Cycle timeout =
          static_cast<Cycle>(fc.retransmit_timeout_cycles) << backoff_bits;
      if (attempt >= fc.max_retransmissions) {
        if (reliability_ != nullptr) {
          ++reliability_->link_failed_sends;
        }
        out.delivered = false;
        out.arrival = serialized + timeout;
        out.attempts = attempt + 1;
        return out;
      }
      if (reliability_ != nullptr) {
        ++reliability_->retransmissions;
      }
      t = serialized + timeout;
    }
  }

  // Fault stream (message loss/corruption schedule) and its event
  // counters; not owned, may be null (detaches), must outlive use.
  void AttachFaults(reliability::FaultStream* faults,
                    reliability::ReliabilityStats* reliability) {
    faults_ = faults;
    reliability_ = reliability;
  }

  const LinkStats& stats() const { return stats_; }
  Cycle busy_until() const { return busy_until_; }

 private:
  LinkConfig config_;
  Cycle busy_until_ = 0;
  LinkStats stats_;
  reliability::FaultStream* faults_ = nullptr;
  reliability::ReliabilityStats* reliability_ = nullptr;
};

}  // namespace lightrw::hwsim

#endif  // LIGHTRW_HWSIM_LINK_H_
