// Radio / network model.
//
// The paper's evaluation ran on a congested campus 802.11n WiFi network;
// transfer time dominated migration cost (Figure 13), and the Nexus 7
// (2012), limited to the crowded 2.4 GHz band, saw the slowest transfers.
// The model captures exactly those effects: each device has a radio profile
// (supported bands, peak PHY rate), a shared WiFi network applies a
// congestion-derived efficiency factor per band, and a transfer between two
// devices is paced by the weaker endpoint.
#ifndef FLUX_SRC_NET_NETWORK_H_
#define FLUX_SRC_NET_NETWORK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/net/frame.h"
#include "src/flux/flight_recorder.h"
#include "src/flux/trace.h"

namespace flux {

enum class WifiBand : uint8_t {
  k2_4GHz = 0,
  k5GHz,
};

enum class WifiStandard : uint8_t {
  k80211n = 0,
  k80211ac,
};

struct RadioProfile {
  WifiStandard standard = WifiStandard::k80211n;
  bool supports_5ghz = true;
  // Peak achievable PHY rate in bits/sec on the best supported band.
  uint64_t peak_phy_bps = 150'000'000;
};

// Conditions on the shared WiFi network (per band).
struct BandConditions {
  // Fraction of PHY rate actually achievable as goodput (MAC overhead plus
  // contention). Congested urban 2.4 GHz sits far below clean 5 GHz.
  double efficiency = 0.25;
  SimDuration base_latency = Millis(8);
};

struct EffectiveLink {
  WifiBand band = WifiBand::k2_4GHz;
  uint64_t goodput_bps = 0;
  SimDuration latency = 0;
};

// ----- hostile-network profiles (DESIGN.md §13) -----
//
// A NetProfile parameterizes everything a flaky last-hop link does to a
// migration: independent and bursty frame loss (a two-state Gilbert-
// Elliott process), a fraction of losses that arrive corrupted (caught by
// the frame CRC instead of vanishing), log-normal per-chunk jitter, rate
// dips (the AP momentarily dropping to a fraction of its goodput), and
// recurring outage windows the link recovers from. The default-constructed
// profile is `clean`: every knob off, and every code path that consumes a
// clean profile is byte-identical to the pre-profile model — the figure
// benches pin that.
struct NetProfile {
  std::string_view name = "clean";
  // Independent per-frame loss probability, always on.
  double loss_rate = 0.0;
  // Gilbert-Elliott burst layer: per-frame probability of entering a burst,
  // of leaving it, and the extra loss probability while inside one.
  double burst_enter = 0.0;
  double burst_exit = 1.0;
  double burst_loss = 0.0;
  // Fraction of lost frames that arrive corrupted (CRC32C catches them and
  // they surface as net.frame.crc_error events) rather than vanishing.
  double corrupt_fraction = 0.0;
  // Per-chunk extra latency: log-normal with this mean; sigma 0 pins the
  // draw to the mean.
  SimDuration jitter_mean = 0;
  double jitter_sigma = 0.0;
  // Rate dips: with probability `rate_dip_duty` a chunk transfers at
  // `rate_dip_factor` of the link goodput.
  double rate_dip_factor = 1.0;
  double rate_dip_duty = 0.0;
  // Recurring outages: the link goes down for `outage_duration` once per
  // `outage_every` (phase seeded per network), and comes back up — unlike
  // ScheduleOutageAt, which is permanent until set_up(true).
  SimDuration outage_every = 0;
  SimDuration outage_duration = 0;

  bool IsClean() const {
    return loss_rate == 0.0 && burst_enter == 0.0 && jitter_mean == 0 &&
           rate_dip_duty == 0.0 && outage_every == 0;
  }
  // Steady-state loss probability: the independent rate plus the burst
  // layer's stationary share.
  double MeanLossRate() const;
  // Expected goodput multiplier from the dip schedule.
  double MeanRateFactor() const;

  // Named presets: clean, campus, home, lte, hostile.
  static Result<NetProfile> Named(std::string_view name);
  static const std::vector<std::string_view>& PresetNames();
};

// Per-link stochastic processes of a profile, seeded so runs reproduce
// bit-for-bit. One shaper per migration (or per fabric link): the draw
// sequence is part of the deterministic simulation contract.
class LinkShaper {
 public:
  LinkShaper(const NetProfile& profile, uint64_t seed)
      : profile_(profile), rng_(seed) {}

  const NetProfile& profile() const { return profile_; }

  // Advances the Gilbert-Elliott chain one frame and draws its fate.
  bool NextFrameLost();
  // For a frame that was lost: did it arrive corrupted (CRC error)?
  bool NextLossIsCorrupt() { return rng_.NextBool(profile_.corrupt_fraction); }
  // Per-chunk goodput multiplier in (0, 1].
  double NextRateFactor();
  // Per-chunk extra latency.
  SimDuration NextJitter();

 private:
  NetProfile profile_;
  Rng rng_;
  bool in_burst_ = false;
};

// One chunk pushed through the frame codec under a shaper's loss process:
// encode -> lose/corrupt -> FEC-reconstruct -> retransmit until delivered,
// with the reassembled bytes checked against the input (a codec bug fails
// loudly instead of corrupting the restore). Every byte count includes
// frame headers.
struct ChunkTransmission {
  uint64_t wire_bytes = 0;        // everything that hit the air
  uint64_t lost_bytes = 0;        // transmissions that never arrived
  uint64_t retransmit_bytes = 0;  // re-sends of previously sent frames
  uint64_t frames_sent = 0;
  uint64_t data_frames = 0;
  uint64_t parity_frames = 0;
  uint64_t frames_lost = 0;
  uint64_t crc_errors = 0;        // losses that arrived corrupt
  uint64_t frames_recovered = 0;  // rebuilt from parity, no retransmit
  uint64_t frames_retransmitted = 0;
  uint32_t next_seq = 0;          // first data seq after this chunk
  uint32_t next_group = 0;        // first FEC group after this chunk
};

// Runs the real codec over `chunk` under `shaper`'s loss process. Corrupt
// arrivals are counted (and surfaced as net.frame.crc_error events on
// `recorder`) and retransmitted like vanished frames. kUnavailable if a
// frame stays undeliverable after many retransmit rounds (a loss storm).
Result<ChunkTransmission> TransmitFramedChunk(ByteSpan chunk,
                                              LinkShaper& shaper,
                                              const FrameStreamOptions& options,
                                              uint32_t base_seq,
                                              uint32_t base_group,
                                              FlightRecorder* recorder);

class WifiNetwork {
 public:
  WifiNetwork();

  void SetBandConditions(WifiBand band, BandConditions conditions);
  const BandConditions& conditions(WifiBand band) const;

  // Best link between two radios: picks the best band both support; the
  // goodput is limited by the slower endpoint.
  EffectiveLink LinkBetween(const RadioProfile& a, const RadioProfile& b) const;

  // Time for `bytes` over `link` including per-transfer handshake latency.
  SimDuration TransferTime(uint64_t bytes, const EffectiveLink& link) const;

  // Advances `clock` by TransferTime and accounts the traffic.
  void Transfer(SimClock& clock, uint64_t bytes, const EffectiveLink& link);

  // Accounts a completed transfer without advancing any clock (migrations
  // pace the clock themselves, MigrationManager::AdvanceWithTicks): bytes
  // and transfer counters, plus a net.transfer flight event.
  void AccountTraffic(uint64_t bytes, const EffectiveLink& link);

  // Counts one world-tick slice of a migration's clock advance into
  // net.transfer_ticks and the net.tick_us histogram.
  void CountTick(SimDuration slice) {
    FLUX_TRACE_COUNTER_ADD(trace_ticks_, 1);
    FLUX_TRACE_HIST_RECORD(hist_tick_, static_cast<uint64_t>(slice));
  }

  uint64_t total_bytes_carried() const { return total_bytes_; }

  // Mirrors traffic accounting into net.* trace counters and the
  // net.tick_us slice-duration histogram (null detaches).
  void set_tracer(Tracer* tracer);

  // Flight-recorder events: net.transfer on each completed transfer,
  // net.outage the moment a scheduled outage takes the network down.
  // Migrations point this at the *home* device's recorder for their
  // duration (the network itself is shared and has no device).
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  // Fault injection: while the network is down, migrations cannot transfer
  // (devices would fall back to ad-hoc networking in a full deployment, §1).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  // Fault injection: take the network down at a future instant. Transfers
  // in progress observe the outage at their next slice boundary (UpAt).
  void ScheduleOutageAt(SimTime t) { outage_at_ = t; has_outage_ = true; }
  // Recoverable fault injection: down during [at, at + duration), up again
  // after — the outage shape resumable transfers are built for.
  void ScheduleOutageWindow(SimTime at, SimDuration duration);
  // Applies a due outage, then reports whether the network is up at `now`.
  bool UpAt(SimTime now);
  // Earliest instant >= now at which the network is (or comes back) up.
  // False when it never recovers (a permanent ScheduleOutageAt outage).
  bool NextUpAt(SimTime now, SimTime* when) const;

  // Installs a hostile-network profile; `seed` phases the recurring outage
  // schedule. A clean profile (the default) leaves every path untouched.
  void ApplyProfile(const NetProfile& profile, uint64_t seed);
  const NetProfile& profile() const { return profile_; }

 private:
  // Non-recoverable outage state due at `now`, applied lazily.
  bool InOutageWindow(SimTime now, SimTime* until, uint64_t* id) const;

  BandConditions band_2_4_;
  BandConditions band_5_;
  uint64_t total_bytes_ = 0;
  bool up_ = true;
  bool has_outage_ = false;
  SimTime outage_at_ = 0;
  struct OutageWindow {
    SimTime at = 0;
    SimDuration duration = 0;
  };
  std::vector<OutageWindow> windows_;
  NetProfile profile_;
  SimTime profile_outage_phase_ = 0;
  // Last outage window reported to the flight recorder (one event per
  // window, not per UpAt probe).
  uint64_t last_outage_reported_ = 0;
  TraceCounter* trace_bytes_ = nullptr;
  TraceCounter* trace_transfers_ = nullptr;
  TraceCounter* trace_ticks_ = nullptr;
  TraceHistogram* hist_tick_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
};

// Device-observed connectivity state (what ConnectivityManagerService
// reports to apps; Flux signals a loss + reconnect after migration, §3.1).
struct ConnectivityState {
  bool connected = true;
  std::string network_name = "campus-wifi";
};

}  // namespace flux

#endif  // FLUX_SRC_NET_NETWORK_H_
