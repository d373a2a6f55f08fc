#include "src/net/contended_link.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/net/network.h"

namespace flux {

void ContendedFabric::ApplyProfile(const NetProfile& profile) {
  if (profile.IsClean()) {
    profiled_ = false;
    capacity_factor_ = 1.0;
    byte_overhead_ = 1.0;
  } else {
    profiled_ = true;
    capacity_factor_ = std::clamp(profile.MeanRateFactor(), 0.05, 1.0);
    // Framing overhead at the pipeline chunk size, then expected-loss
    // retransmissions on top.
    constexpr uint64_t kRepresentativeChunk = 256 * 1024;
    const FrameStreamOptions options;
    const double framed =
        static_cast<double>(FramedWireBytes(kRepresentativeChunk, options)) /
        static_cast<double>(kRepresentativeChunk);
    const double delivery = 1.0 - std::min(0.9, profile.MeanLossRate());
    byte_overhead_ = framed / delivery;
  }
  // Flows keep their current rates until the next membership change or
  // Settle re-rates them with the new capacities.
  for (Ap& ap : aps_) {
    RefreshShare(ap);
  }
  rates_stale_ = true;
}

ContendedFabric::ApId ContendedFabric::AddAp(std::string name,
                                             uint64_t capacity_bps) {
  Ap ap;
  ap.name = std::move(name);
  ap.capacity_bps = capacity_bps;
  aps_.push_back(std::move(ap));
  return static_cast<ApId>(aps_.size() - 1);
}

int ContendedFabric::ActiveFlows(ApId ap) const {
  return ap < aps_.size() ? aps_[ap].active : 0;
}

void ContendedFabric::RefreshShare(Ap& ap) const {
  if (ap.active > 0) {
    double cap = static_cast<double>(ap.capacity_bps);
    if (profiled_) {
      cap *= capacity_factor_;
    }
    ap.share_bps = cap / ap.active;
  }
}

void ContendedFabric::AdjustMembership(const Flow& flow, int delta) {
  if (flow.home_ap < aps_.size()) {
    aps_[flow.home_ap].active += delta;
    RefreshShare(aps_[flow.home_ap]);
  }
  if (flow.guest_ap < aps_.size() && flow.guest_ap != flow.home_ap) {
    aps_[flow.guest_ap].active += delta;
    RefreshShare(aps_[flow.guest_ap]);
  }
}

ContendedFabric::FlowId ContendedFabric::StartFlow(SimTime now, uint64_t bytes,
                                                   uint64_t peak_bps,
                                                   ApId home_ap,
                                                   ApId guest_ap) {
  if (bytes == 0) {
    return kInvalidFlow;
  }
  if (profiled_) {
    bytes = static_cast<uint64_t>(
        std::ceil(static_cast<double>(bytes) * byte_overhead_));
  }
  // Fix everyone's progress at the old rates before membership changes.
  SettleProgress(now);
  Flow flow;
  flow.id = next_flow_++;
  flow.home_ap = home_ap;
  flow.guest_ap = guest_ap;
  flow.peak_bps = std::max<uint64_t>(peak_bps, 1);
  flow.total_bytes = bytes;
  flow.remaining_bytes = static_cast<double>(bytes);
  flows_.push_back(flow);
  AdjustMembership(flow, +1);
  Rerate();
  return flow.id;
}

void ContendedFabric::SettleProgress(SimTime now) {
  // Every pass settles every flow, so all of them share one settle point.
  if (now > settled_at_) {
    const double elapsed_s =
        ToSecondsF(static_cast<SimDuration>(now - settled_at_));
    for (Flow& flow : flows_) {
      flow.remaining_bytes =
          std::max(0.0, flow.remaining_bytes - flow.rate_bps / 8.0 * elapsed_s);
    }
  }
  settled_at_ = now;
}

double ContendedFabric::DrainSeconds(const Flow& flow) {
  return flow.remaining_bytes / (flow.rate_bps / 8.0);
}

void ContendedFabric::Rerate() {
  // Airtime fairness: a flow gets the tightest of its station peak and its
  // equal share on every AP it crosses.
  rates_stale_ = false;
  double earliest = std::numeric_limits<double>::infinity();
  for (Flow& flow : flows_) {
    double rate = static_cast<double>(flow.peak_bps);
    const ApId crossed[2] = {flow.home_ap, flow.guest_ap};
    for (int i = 0; i < (flow.home_ap == flow.guest_ap ? 1 : 2); ++i) {
      if (crossed[i] < aps_.size() && aps_[crossed[i]].active > 0) {
        rate = std::min(rate, aps_[crossed[i]].share_bps);
      }
    }
    flow.rate_bps = std::max(rate, 1.0);
    earliest = std::min(earliest, DrainSeconds(flow));
  }
  next_done_s_ = earliest;
}

bool ContendedFabric::NextCompletion(SimTime now, SimTime* when) const {
  if (flows_.empty()) {
    return false;
  }
  // ceil to a whole microsecond so Settle at the reported instant always
  // sees the flow drained. Rounding is monotone, so rounding the earliest
  // drain time equals the earliest of the rounded ones.
  *when = now + static_cast<SimTime>(std::ceil(next_done_s_ * 1e6));
  return true;
}

void ContendedFabric::Settle(SimTime now, std::vector<FinishedFlow>* out) {
  SettleProgress(now);
  // Sub-byte residue is wire rounding, not payload: a flow is done once
  // less than a byte remains. flows_ stays in start (= id) order, so the
  // finished ones come out in (finish time, id) order.
  size_t kept = 0;
  double earliest = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = flows_[i];
    if (flow.remaining_bytes < 1.0) {
      FinishedFlow fin;
      fin.id = flow.id;
      fin.finished_at = now;
      fin.bytes = flow.total_bytes;
      out->push_back(fin);
      bytes_carried_ += flow.total_bytes;
      AdjustMembership(flow, -1);
      continue;
    }
    if (kept != i) {
      flows_[kept] = flow;
    }
    ++kept;
    earliest = std::min(earliest, DrainSeconds(flow));
  }
  next_done_s_ = earliest;
  if (kept != flows_.size() || rates_stale_) {
    flows_.resize(kept);
    Rerate();
  }
}

}  // namespace flux
