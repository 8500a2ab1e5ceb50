#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hwsim/dram.h"
#include "hwsim/fifo.h"
#include "obs/trace.h"
#include "reliability/fault_injector.h"

namespace lightrw::hwsim {
namespace {

TEST(FifoTest, PushPopOrder) {
  Fifo<int> fifo(4);
  fifo.Push(1);
  fifo.Push(2);
  fifo.Push(3);
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_EQ(fifo.Pop(), 2);
  EXPECT_EQ(fifo.Front(), 3);
  EXPECT_EQ(fifo.Pop(), 3);
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, CapacityLimits) {
  Fifo<int> fifo(2);
  EXPECT_TRUE(fifo.CanPush());
  fifo.Push(1);
  fifo.Push(2);
  EXPECT_FALSE(fifo.CanPush());
  EXPECT_TRUE(fifo.full());
  fifo.Pop();
  EXPECT_TRUE(fifo.CanPush());
}

TEST(FifoTest, OccupancyStats) {
  Fifo<int> fifo(8);
  for (int i = 0; i < 5; ++i) {
    fifo.Push(i);
  }
  fifo.Pop();
  fifo.Push(9);
  EXPECT_EQ(fifo.total_pushed(), 6u);
  EXPECT_EQ(fifo.max_occupancy(), 5u);
}

TEST(FifoTest, MoveOnlyPayload) {
  Fifo<std::unique_ptr<int>> fifo(1);
  fifo.Push(std::make_unique<int>(42));
  const auto p = fifo.Pop();
  EXPECT_EQ(*p, 42);
}

DramConfig TestConfig() {
  DramConfig config;
  config.clock_hz = 300e6;
  config.bus_bytes = 64;
  config.issue_gap_cycles = 16;
  config.access_latency_cycles = 128;
  config.efficiency = 1.0;  // exact arithmetic in unit tests
  return config;
}

TEST(DramChannelTest, OccupancyShortBurstPaysIssueGap) {
  DramChannel channel(TestConfig());
  EXPECT_EQ(channel.RequestOccupancy(1), 16u);
  EXPECT_EQ(channel.RequestOccupancy(8), 16u);
  EXPECT_EQ(channel.RequestOccupancy(16), 16u);
  EXPECT_EQ(channel.RequestOccupancy(32), 32u);
}

TEST(DramChannelTest, BandwidthMonotonicInBurstLength) {
  DramChannel channel(TestConfig());
  double prev = 0.0;
  for (uint32_t beats = 1; beats <= 64; beats *= 2) {
    const double bw = channel.SteadyStateBandwidth(beats);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
  // Long bursts saturate the bus: 64 B * 300 MHz.
  EXPECT_NEAR(prev, 64.0 * 300e6, 1e-6);
}

TEST(DramChannelTest, PeakBandwidthMatchesPaperWithEfficiency) {
  DramConfig config = TestConfig();
  config.efficiency = 0.915;
  DramChannel channel(config);
  // 0.915 * 64 B * 300 MHz = 17.57 GB/s, the measured peak in Fig. 6.
  EXPECT_NEAR(channel.PeakBandwidth() / 1e9, 17.57, 0.02);
}

TEST(DramChannelTest, AccessReturnsDataAfterLatency) {
  DramChannel channel(TestConfig());
  const Cycle done = channel.Access(/*ready=*/100, /*burst_beats=*/1);
  // issue 100..116, transfer 116..117, +128 latency.
  EXPECT_EQ(done, 100u + 16 + 1 + 128);
}

TEST(DramChannelTest, BackToBackRequestsSerialize) {
  // One bank: the second request's issue waits for the first's issue gap
  // and its transfer waits for the bus.
  DramChannel channel(TestConfig());
  const Cycle first = channel.Access(0, 32);   // issue 0..16, bus 16..48
  const Cycle second = channel.Access(0, 32);  // issue 16..32, bus 48..80
  EXPECT_EQ(first, 48u + 128);
  EXPECT_EQ(second, 80u + 128);
  EXPECT_EQ(channel.busy_until(), 80u);
}

TEST(DramChannelTest, BanksOverlapIssueGaps) {
  DramConfig config = TestConfig();
  config.num_banks = 4;
  DramChannel banked(config);
  DramChannel serial(TestConfig());
  // Four single-beat requests: banked issues them concurrently and is
  // bus-bound; serial pays four full issue gaps.
  Cycle banked_done = 0, serial_done = 0;
  for (int i = 0; i < 4; ++i) {
    banked_done = std::max(banked_done, banked.Access(0, 1));
    serial_done = std::max(serial_done, serial.Access(0, 1));
  }
  EXPECT_LT(banked_done, serial_done);
  EXPECT_EQ(banked_done, 16u + 4 + 128);   // shared bus: 4 beats after gap
  EXPECT_EQ(serial_done, 3u * 16 + 16 + 1 + 128);
}

TEST(DramChannelTest, IdleGapAdvancesStart) {
  DramChannel channel(TestConfig());
  channel.Access(0, 16);  // issue 0..16, bus 16..32
  const Cycle done = channel.Access(1000, 16);
  EXPECT_EQ(done, 1000u + 16 + 16 + 128);
}

TEST(DramChannelTest, StatsAccumulate) {
  DramChannel channel(TestConfig());
  channel.Access(0, 4);
  channel.Access(0, 8);
  channel.ReportUseful(100);
  const DramStats& stats = channel.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.beats, 12u);
  EXPECT_EQ(stats.bytes, 12u * 64);
  EXPECT_EQ(stats.busy_cycles, 12u);  // bus transfer cycles (4 + 8 beats)
  EXPECT_EQ(stats.useful_bytes, 100u);
  channel.ResetStats();
  EXPECT_EQ(channel.stats().requests, 0u);
}

TEST(DramChannelTest, EfficiencyDeratesOccupancy) {
  DramConfig config = TestConfig();
  config.efficiency = 0.5;
  DramChannel channel(config);
  // 32 beats at 50% efficiency occupy 64 cycles.
  EXPECT_EQ(channel.RequestOccupancy(32), 64u);
}

// Unsorted-bank model of one channel without faults or trace: the least
// loaded bank by min_element, transfer cycles recomputed per request. It
// is the oracle for the channel's sorted bank ring and transfer table.
class ReferenceChannel {
 public:
  explicit ReferenceChannel(const DramConfig& config)
      : config_(config), banks_(config.num_banks, 0) {}

  Cycle Access(Cycle ready, uint32_t beats) {
    auto bank = std::min_element(banks_.begin(), banks_.end());
    *bank = std::max(ready, *bank) + config_.issue_gap_cycles;
    const Cycle transfer = static_cast<Cycle>(std::llround(
        std::ceil(static_cast<double>(beats) / config_.efficiency)));
    bus_ = std::max(*bank, bus_) + transfer;
    ++stats_.requests;
    stats_.beats += beats;
    stats_.bytes += static_cast<uint64_t>(beats) * config_.bus_bytes;
    stats_.busy_cycles += transfer;
    return bus_ + config_.access_latency_cycles;
  }

  const std::vector<Cycle>& banks() const { return banks_; }
  Cycle bus() const { return bus_; }
  const DramStats& stats() const { return stats_; }

 private:
  DramConfig config_;
  std::vector<Cycle> banks_;
  Cycle bus_ = 0;
  DramStats stats_;
};

void ExpectSameStats(const DramStats& a, const DramStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.beats, b.beats);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_EQ(a.useful_bytes, b.useful_bytes);
}

// A ready time before, inside or past the bank and bus horizons.
Cycle PickReady(std::mt19937_64& gen, const ReferenceChannel& ref) {
  const auto [lo, hi] =
      std::minmax_element(ref.banks().begin(), ref.banks().end());
  const Cycle anchors[] = {0, *lo, *hi, ref.bus(),
                           ref.banks()[gen() % ref.banks().size()]};
  const Cycle anchor = anchors[gen() % std::size(anchors)];
  const Cycle delta = gen() % 80;
  switch (gen() % 3) {
    case 0:
      return anchor > delta ? anchor - delta : 0;
    case 1:
      return anchor + delta;
    default:
      return anchor + 1000 + gen() % 5000;  // past every horizon
  }
}

TEST(DramChannelTest, AccessGroupMatchesPerBurstAccessFuzz) {
  const uint32_t bank_counts[] = {1, 2, 3, 8, 16};
  // 1.0 and 0.5 make every beats / efficiency an exact integer.
  const double efficiencies[] = {1.0, 0.5, 0.915, 0.8, 0.37};
  std::mt19937_64 gen(20230612);
  for (const uint32_t banks : bank_counts) {
    for (const double efficiency : efficiencies) {
      for (int trial = 0; trial < 8; ++trial) {
        DramConfig config = TestConfig();
        config.num_banks = banks;
        config.efficiency = efficiency;
        config.issue_gap_cycles = 1 + static_cast<uint32_t>(gen() % 64);
        config.access_latency_cycles = static_cast<uint32_t>(gen() % 200);
        SCOPED_TRACE(testing::Message()
                     << "banks " << banks << " efficiency " << efficiency
                     << " gap " << config.issue_gap_cycles << " trial "
                     << trial);
        DramChannel grouped(config);
        DramChannel single(config);
        ReferenceChannel ref(config);
        for (int group = 0; group < 40; ++group) {
          const Cycle ready = PickReady(gen, ref);
          // Short bursts, b32-style long bursts and lengths past the
          // channel's transfer table.
          const uint32_t beat_choices[] = {
              1, 32, 1 + static_cast<uint32_t>(gen() % 100)};
          const uint32_t beats = beat_choices[gen() % 3];
          const uint32_t count = static_cast<uint32_t>(gen() % 41);

          const Cycle got = grouped.AccessGroup(ready, beats, count);
          Cycle want = ready;
          Cycle ref_want = ready;
          for (uint32_t i = 0; i < count; ++i) {
            want = std::max(want, single.Access(ready, beats));
            ref_want = std::max(ref_want, ref.Access(ready, beats));
          }
          ASSERT_EQ(got, want) << "group " << group;
          ASSERT_EQ(want, ref_want) << "group " << group;
          ASSERT_EQ(grouped.busy_until(), single.busy_until());
          ASSERT_EQ(single.busy_until(), ref.bus());
          ExpectSameStats(grouped.stats(), single.stats());
          ExpectSameStats(single.stats(), ref.stats());
        }
        // Equal answers to 16 more single requests mean the bank
        // horizons left behind are the same multiset.
        for (int probe = 0; probe < 16; ++probe) {
          const Cycle ready = PickReady(gen, ref);
          const uint32_t beats = 1 + static_cast<uint32_t>(gen() % 40);
          const Cycle want = ref.Access(ready, beats);
          ASSERT_EQ(grouped.Access(ready, beats), want) << "probe " << probe;
          ASSERT_EQ(single.Access(ready, beats), want) << "probe " << probe;
        }
        ExpectSameStats(grouped.stats(), ref.stats());
      }
    }
  }
}

TEST(DramChannelTest, AccessGroupKeepsPerBurstTraceAndFaultOrder) {
  DramConfig config = TestConfig();
  config.num_banks = 8;
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.dram_correctable_rate = 0.3;
  faults.dram_uncorrectable_rate = 0.1;
  reliability::FaultStream grouped_stream(faults, 3);
  reliability::FaultStream single_stream(faults, 3);
  reliability::ReliabilityStats grouped_rel, single_rel;
  obs::TraceRecorder grouped_trace, single_trace;
  DramChannel grouped(config), single(config);
  grouped.AttachFaults(&grouped_stream, &grouped_rel);
  single.AttachFaults(&single_stream, &single_rel);
  grouped.AttachTrace(&grouped_trace, 0, 0);
  single.AttachTrace(&single_trace, 0, 0);
  for (Cycle ready = 0; ready < 2000; ready += 97) {
    const uint32_t count = static_cast<uint32_t>(ready % 13);
    Cycle want = ready;
    for (uint32_t i = 0; i < count; ++i) {
      want = std::max(want, single.Access(ready, 3));
    }
    EXPECT_EQ(grouped.AccessGroup(ready, 3, count), want);
    EXPECT_EQ(grouped.TakeAccessFailure(), single.TakeAccessFailure());
  }
  ExpectSameStats(grouped.stats(), single.stats());
  EXPECT_EQ(grouped_rel.dram_retries, single_rel.dram_retries);
  EXPECT_EQ(grouped_rel.dram_failed_accesses,
            single_rel.dram_failed_accesses);
  EXPECT_GT(single_rel.dram_retries, 0u);
  EXPECT_EQ(grouped_stream.draws(), single_stream.draws());
  const std::string trace = single_trace.ToJsonString();
  EXPECT_NE(trace.find("ecc_correctable"), std::string::npos);
  EXPECT_EQ(grouped_trace.ToJsonString(), trace);
}

}  // namespace
}  // namespace lightrw::hwsim
