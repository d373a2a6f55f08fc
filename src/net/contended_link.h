// Contended access-point bandwidth model for concurrent migrations.
//
// The single-migration WifiNetwork hands each transfer the whole link: fine
// when migrations run one at a time, wrong the moment a coordinator admits
// several — transfers sharing an AP must stretch each other's wire phases.
// ContendedFabric models that: a set of APs, each with an airtime capacity,
// and flows that each cross one or two APs (home's and guest's). Rates
// follow 802.11 airtime fairness: every active flow on an AP is entitled to
// an equal share of its capacity, and a flow's rate is the minimum of its
// own station peak and its share on every AP it crosses:
//
//   rate(f) = min(peak_f, cap_A / n_A  for each AP A that f crosses)
//
// (A station that cannot fill its share wastes the airtime, which is how
// contended 2.4 GHz actually behaves — and it keeps the contention math
// exactly pinnable by tests: two equal flows through one AP each run at
// cap/2, doubling the wire phase.)
//
// The fabric is a pure rate/progress model for a discrete-event loop:
// Settle(now) accrues progress at the rates fixed since the last membership
// change, StartFlow and finishing flows change membership and re-rate, and
// NextCompletion() tells the scheduler when the earliest flow will finish —
// the coordinator's "transfer complete" wake-ups come from exactly that.
// Each event costs one settle pass and at most one re-rate pass over the
// live flows (DESIGN.md §11): all flows share one settle point, every AP
// keeps its equal share current as its membership changes, and whichever
// pass ran last leaves behind the earliest drain time, so NextCompletion is
// O(1).
#ifndef FLUX_SRC_NET_CONTENDED_LINK_H_
#define FLUX_SRC_NET_CONTENDED_LINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/sim_clock.h"

namespace flux {

struct NetProfile;

class ContendedFabric {
 public:
  using ApId = uint32_t;
  using FlowId = uint64_t;
  static constexpr FlowId kInvalidFlow = 0;

  struct FinishedFlow {
    FlowId id = kInvalidFlow;
    SimTime finished_at = 0;
    uint64_t bytes = 0;
  };

  ApId AddAp(std::string name, uint64_t capacity_bps);
  size_t ap_count() const { return aps_.size(); }
  // Live flows currently crossing `ap` (placement uses this as a load
  // tiebreak).
  int ActiveFlows(ApId ap) const;

  // Starts a flow of `bytes` between stations on `home_ap` and `guest_ap`
  // (equal ids = one AP), limited to `peak_bps` (the slower endpoint's
  // station rate). Settles other flows to `now` first, then re-rates
  // every flow. Zero-byte flows complete at `now` + nothing: they are
  // finished immediately and never enter the fabric.
  FlowId StartFlow(SimTime now, uint64_t bytes, uint64_t peak_bps, ApId home_ap,
                   ApId guest_ap);

  // Earliest instant any active flow completes at current rates; `now` must
  // be the last settle point. Returns false when no flows are active.
  bool NextCompletion(SimTime now, SimTime* when) const;

  // Accrues progress to `now` and removes flows that have finished,
  // appending them to `out` (completion order: finish time, then id).
  // Re-rates when membership changed or a profile was applied since the
  // last re-rate.
  void Settle(SimTime now, std::vector<FinishedFlow>* out);

  size_t active_flows() const { return flows_.size(); }
  uint64_t bytes_carried() const { return bytes_carried_; }

  // Installs a hostile-network profile on every AP. The fabric is a mean-
  // rate model (it settles continuous progress, not per-frame events), so a
  // profile lands as two deterministic factors: every AP capacity is scaled
  // by the profile's MeanRateFactor, and every flow's byte count is
  // inflated by the framing overhead plus expected-loss retransmissions
  // (FramedWireBytes / (1 - MeanLossRate)). Untouched — bit for bit — when
  // never called or when the profile is clean. Live flows keep their rates
  // until the next StartFlow or Settle re-rates them.
  void ApplyProfile(const NetProfile& profile);
  // The wire-byte multiplier ApplyProfile charges on new flows (1.0 when
  // unprofiled).
  double byte_overhead() const { return byte_overhead_; }

 private:
  struct Ap {
    std::string name;
    uint64_t capacity_bps = 0;
    int active = 0;
    double share_bps = 0;  // (profiled) capacity / active, while active > 0
  };
  struct Flow {
    FlowId id = kInvalidFlow;
    ApId home_ap = 0;
    ApId guest_ap = 0;
    uint64_t peak_bps = 0;
    uint64_t total_bytes = 0;
    double remaining_bytes = 0;
    double rate_bps = 0;
  };

  void RefreshShare(Ap& ap) const;
  // Adds `delta` to the membership of every AP `flow` crosses.
  void AdjustMembership(const Flow& flow, int delta);
  // Accrues every flow's progress to `now` at its current rate.
  void SettleProgress(SimTime now);
  // Hands every flow its fresh rate and finds the earliest completion.
  void Rerate();
  // Seconds until `flow` drains at its current rate.
  static double DrainSeconds(const Flow& flow);

  std::vector<Ap> aps_;
  std::vector<Flow> flows_;  // in start (= id) order
  SimTime settled_at_ = 0;   // every flow's progress is accrued to here
  // Seconds from settled_at_ to the earliest completion at current rates
  // (valid while flows_ is non-empty).
  double next_done_s_ = 0;
  bool rates_stale_ = false;  // a profile changed the AP shares
  FlowId next_flow_ = 1;
  uint64_t bytes_carried_ = 0;
  // Hostile-profile factors; identity until ApplyProfile installs a
  // non-clean profile.
  bool profiled_ = false;
  double capacity_factor_ = 1.0;
  double byte_overhead_ = 1.0;
};

}  // namespace flux

#endif  // FLUX_SRC_NET_CONTENDED_LINK_H_
