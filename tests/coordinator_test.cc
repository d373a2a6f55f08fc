// Migration coordinator tests: admission/queue ordering, per-AP contention
// math (pinned bit for bit against a reference copy of the original
// settle-and-re-rate-everything fabric), cache-aware placement and its
// independence from pairing order, pairing storms, dirty bursts, refusal
// semantics, and a 1k-device smoke run (also exercised under ASan/UBSan in
// CI's sanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/base/event_queue.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/flux/coordinator.h"
#include "src/flux/trace.h"
#include "src/net/contended_link.h"
#include "src/net/network.h"

namespace flux {
namespace {

constexpr SimTime kForever = ~SimTime{0} >> 1;

// Small harness: one clock, one sharded scheduler, one fabric, one tracer.
// A non-null `pool` installs the parallel staged-event driver; results must
// not depend on it (ThreadCountDoesNotChangeAnyObservable).
struct Fleet {
  explicit Fleet(CoordinatorConfig cfg = {}, int shards = 4,
                 ThreadPool* pool = nullptr)
      : sched(&clock, shards), tracer(&clock) {
    sched.SetParallelDriver({pool, Millis(20)});
    cfg.trace = &tracer;
    coord = std::make_unique<MigrationCoordinator>(&sched, &fabric, cfg);
  }

  FleetDeviceId Dev(ContendedFabric::ApId ap, uint64_t peak_bps = 30'000'000) {
    FleetDeviceSpec spec;
    spec.name = "d" + std::to_string(coord->device_count());
    spec.ap = ap;
    spec.link_peak_bps = peak_bps;
    return coord->AddDevice(spec);
  }

  FleetAppId App(FleetDeviceId home, uint64_t image_bytes = 1 << 20,
                 uint64_t dirty_bytes_per_s = 0) {
    FleetAppSpec spec;
    spec.name = "app" + std::to_string(home);
    spec.home = home;
    spec.image_bytes = image_bytes;
    spec.dirty_bytes_per_s = dirty_bytes_per_s;
    return coord->AddApp(spec);
  }

  uint64_t Counter(std::string_view name) {
    return tracer.counter(name)->value();
  }

  SimClock clock;
  EventScheduler sched;
  ContendedFabric fabric;
  Tracer tracer;
  std::unique_ptr<MigrationCoordinator> coord;
};

TEST(ContendedFabricTest, EqualFlowsThroughOneApSplitItsCapacity) {
  ContendedFabric fabric;
  const auto ap = fabric.AddAp("ap0", 8'000'000);  // 8 Mbps airtime
  // Two 1 MB flows with ample station peaks: each gets cap/2 = 4 Mbps, so
  // both drain their 8 Mbit in exactly 2 simulated seconds.
  auto f1 = fabric.StartFlow(0, 1'000'000, 100'000'000, ap, ap);
  auto f2 = fabric.StartFlow(0, 1'000'000, 100'000'000, ap, ap);
  ASSERT_NE(f1, ContendedFabric::kInvalidFlow);
  ASSERT_NE(f2, ContendedFabric::kInvalidFlow);
  EXPECT_EQ(fabric.ActiveFlows(ap), 2);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(2)));
  std::vector<ContendedFabric::FinishedFlow> done;
  fabric.Settle(when, &done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, f1);
  EXPECT_EQ(done[1].id, f2);
  EXPECT_EQ(fabric.ActiveFlows(ap), 0);
}

TEST(ContendedFabricTest, StationPeakCapsAnIdleAp) {
  ContendedFabric fabric;
  const auto ap = fabric.AddAp("ap0", 8'000'000);
  // One flow with a 2 Mbps station: the AP is idle but the station can't
  // fill its share, so 1 MB takes 4 s.
  fabric.StartFlow(0, 1'000'000, 2'000'000, ap, ap);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(4)));
}

TEST(ContendedFabricTest, CrossApFlowTakesTheTighterShare) {
  ContendedFabric fabric;
  const auto ap_a = fabric.AddAp("a", 8'000'000);
  const auto ap_b = fabric.AddAp("b", 2'000'000);
  // The cross flow is limited by its share on BOTH APs: b's 2 Mbps is the
  // bottleneck even though a is idle.
  fabric.StartFlow(0, 1'000'000, 100'000'000, ap_a, ap_b);
  EXPECT_EQ(fabric.ActiveFlows(ap_a), 1);
  EXPECT_EQ(fabric.ActiveFlows(ap_b), 1);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(4)));
}

TEST(ContendedFabricTest, NextCompletionSeesAFlowStartedAtTheSameInstant) {
  ContendedFabric fabric;
  const auto ap = fabric.AddAp("ap0", 8'000'000);
  // 1 MB alone at 8 Mbps: done at 1 s.
  fabric.StartFlow(0, 1'000'000, 100'000'000, ap, ap);
  SimTime when = 0;
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Seconds(1)));
  // A 250 kB flow joins at t=0: each runs at 4 Mbps, so the newcomer
  // finishes first, at 0.5 s.
  fabric.StartFlow(0, 250'000, 100'000'000, ap, ap);
  ASSERT_TRUE(fabric.NextCompletion(0, &when));
  EXPECT_EQ(when, static_cast<SimTime>(Millis(500)));
  // Mid-flight: at 0.25 s the small flow has 125 kB left; a third equal
  // flow makes every share 8/3 Mbps, so it needs 0.375 s more.
  const SimTime t = static_cast<SimTime>(Millis(250));
  fabric.StartFlow(t, 1'000'000, 100'000'000, ap, ap);
  ASSERT_TRUE(fabric.NextCompletion(t, &when));
  EXPECT_EQ(when, t + static_cast<SimTime>(Millis(375)));
}

// The fabric as first written: every StartFlow and Settle settles and
// re-rates every flow (twice when membership changes), and NextCompletion
// scans. Kept here as the reference the incremental fabric must match bit
// for bit.
class ReferenceFabric {
 public:
  using ApId = ContendedFabric::ApId;
  using FlowId = ContendedFabric::FlowId;
  using FinishedFlow = ContendedFabric::FinishedFlow;

  void ApplyProfile(const NetProfile& profile) {
    if (profile.IsClean()) {
      profiled_ = false;
      capacity_factor_ = 1.0;
      byte_overhead_ = 1.0;
      return;
    }
    profiled_ = true;
    capacity_factor_ = std::clamp(profile.MeanRateFactor(), 0.05, 1.0);
    constexpr uint64_t kRepresentativeChunk = 256 * 1024;
    const FrameStreamOptions options;
    const double framed =
        static_cast<double>(FramedWireBytes(kRepresentativeChunk, options)) /
        static_cast<double>(kRepresentativeChunk);
    const double delivery = 1.0 - std::min(0.9, profile.MeanLossRate());
    byte_overhead_ = framed / delivery;
  }

  ApId AddAp(uint64_t capacity_bps) {
    aps_.push_back(Ap{capacity_bps, 0});
    return static_cast<ApId>(aps_.size() - 1);
  }

  int ActiveFlows(ApId ap) const {
    return ap < aps_.size() ? aps_[ap].active : 0;
  }

  FlowId StartFlow(SimTime now, uint64_t bytes, uint64_t peak_bps,
                   ApId home_ap, ApId guest_ap) {
    if (bytes == 0) {
      return ContendedFabric::kInvalidFlow;
    }
    if (profiled_) {
      bytes = static_cast<uint64_t>(
          std::ceil(static_cast<double>(bytes) * byte_overhead_));
    }
    RecomputeRates(now);
    Flow flow;
    flow.id = next_flow_++;
    flow.home_ap = home_ap;
    flow.guest_ap = guest_ap;
    flow.peak_bps = std::max<uint64_t>(peak_bps, 1);
    flow.total_bytes = bytes;
    flow.remaining_bytes = static_cast<double>(bytes);
    flow.settled_at = now;
    flows_.push_back(flow);
    if (home_ap < aps_.size()) {
      ++aps_[home_ap].active;
    }
    if (guest_ap < aps_.size() && guest_ap != home_ap) {
      ++aps_[guest_ap].active;
    }
    RecomputeRates(now);
    return flow.id;
  }

  bool NextCompletion(SimTime now, SimTime* when) const {
    bool any = false;
    SimTime best = 0;
    for (const Flow& flow : flows_) {
      const double seconds = flow.remaining_bytes / (flow.rate_bps / 8.0);
      const SimTime done =
          now + static_cast<SimTime>(std::ceil(seconds * 1e6));
      if (!any || done < best) {
        best = done;
        any = true;
      }
    }
    if (any) {
      *when = best;
    }
    return any;
  }

  void Settle(SimTime now, std::vector<FinishedFlow>* out) {
    RecomputeRates(now);
    std::vector<Flow> still_active;
    std::vector<FinishedFlow> done;
    for (Flow& flow : flows_) {
      if (flow.remaining_bytes < 1.0) {
        done.push_back(FinishedFlow{flow.id, now, flow.total_bytes});
        bytes_carried_ += flow.total_bytes;
        if (flow.home_ap < aps_.size()) {
          --aps_[flow.home_ap].active;
        }
        if (flow.guest_ap < aps_.size() && flow.guest_ap != flow.home_ap) {
          --aps_[flow.guest_ap].active;
        }
      } else {
        still_active.push_back(flow);
      }
    }
    if (!done.empty()) {
      flows_ = std::move(still_active);
      RecomputeRates(now);
      std::sort(done.begin(), done.end(),
                [](const FinishedFlow& a, const FinishedFlow& b) {
                  return a.finished_at != b.finished_at
                             ? a.finished_at < b.finished_at
                             : a.id < b.id;
                });
      out->insert(out->end(), done.begin(), done.end());
    }
  }

  size_t active_flows() const { return flows_.size(); }
  uint64_t bytes_carried() const { return bytes_carried_; }

 private:
  struct Ap {
    uint64_t capacity_bps = 0;
    int active = 0;
  };
  struct Flow {
    FlowId id = ContendedFabric::kInvalidFlow;
    ApId home_ap = 0;
    ApId guest_ap = 0;
    uint64_t peak_bps = 0;
    uint64_t total_bytes = 0;
    double remaining_bytes = 0;
    double rate_bps = 0;
    SimTime settled_at = 0;
  };

  void RecomputeRates(SimTime now) {
    for (Flow& flow : flows_) {
      if (now > flow.settled_at && flow.rate_bps > 0) {
        const double elapsed_s = ToSecondsF(
            static_cast<SimDuration>(now - flow.settled_at));
        flow.remaining_bytes = std::max(
            0.0, flow.remaining_bytes - flow.rate_bps / 8.0 * elapsed_s);
      }
      flow.settled_at = now;
    }
    for (Flow& flow : flows_) {
      double rate = static_cast<double>(flow.peak_bps);
      const ApId crossed[2] = {flow.home_ap, flow.guest_ap};
      for (int i = 0; i < (flow.home_ap == flow.guest_ap ? 1 : 2); ++i) {
        if (crossed[i] < aps_.size() && aps_[crossed[i]].active > 0) {
          double cap = static_cast<double>(aps_[crossed[i]].capacity_bps);
          if (profiled_) {
            cap *= capacity_factor_;
          }
          rate = std::min(rate, cap / aps_[crossed[i]].active);
        }
      }
      flow.rate_bps = std::max(rate, 1.0);
    }
  }

  std::vector<Ap> aps_;
  std::vector<Flow> flows_;
  FlowId next_flow_ = 1;
  uint64_t bytes_carried_ = 0;
  bool profiled_ = false;
  double capacity_factor_ = 1.0;
  double byte_overhead_ = 1.0;
};

TEST(ContendedFabricTest, MatchesTheReferenceFabricBitForBit) {
  // A seeded trace of 512 flows over a few APs of unequal capacity: flows
  // start between completions, settles land both on completion instants
  // and between them, and a hostile profile is applied mid-run. After
  // every step both fabrics must report the same next completion instant,
  // the same finished flows, and the same membership.
  ContendedFabric fabric;
  ReferenceFabric ref;
  constexpr int kAps = 6;
  for (int a = 0; a < kAps; ++a) {
    const uint64_t cap = 20'000'000 + static_cast<uint64_t>(a) * 13'000'000;
    fabric.AddAp("ap" + std::to_string(a), cap);
    ref.AddAp(cap);
  }
  Rng rng(0xFAB);
  constexpr int kFlows = 512;
  int started = 0;
  bool profiled = false;
  SimTime now = 0;
  uint64_t finished = 0;
  auto compare = [&](const char* what) {
    SCOPED_TRACE(std::string(what) + " at " + std::to_string(now));
    SimTime got = 0;
    SimTime want = 0;
    const bool got_any = fabric.NextCompletion(now, &got);
    ASSERT_EQ(got_any, ref.NextCompletion(now, &want));
    if (got_any) {
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(fabric.active_flows(), ref.active_flows());
    ASSERT_EQ(fabric.bytes_carried(), ref.bytes_carried());
    for (int a = 0; a < kAps; ++a) {
      ASSERT_EQ(fabric.ActiveFlows(static_cast<ContendedFabric::ApId>(a)),
                ref.ActiveFlows(static_cast<ContendedFabric::ApId>(a)));
    }
  };
  auto settle = [&](SimTime at) {
    now = at;
    std::vector<ContendedFabric::FinishedFlow> got;
    std::vector<ContendedFabric::FinishedFlow> want;
    fabric.Settle(now, &got);
    ref.Settle(now, &want);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id);
      ASSERT_EQ(got[i].finished_at, want[i].finished_at);
      ASSERT_EQ(got[i].bytes, want[i].bytes);
    }
    finished += got.size();
    compare("settle");
  };
  while (started < kFlows || ref.active_flows() > 0) {
    SimTime next = 0;
    const bool pending = ref.NextCompletion(now, &next);
    if (!profiled && started >= kFlows / 2 && pending && next > now + 1) {
      // The new capacities must take effect at the very next Settle, even
      // one where no flow finishes.
      const NetProfile hostile = *NetProfile::Named("hostile");
      fabric.ApplyProfile(hostile);
      ref.ApplyProfile(hostile);
      profiled = true;
      compare("profile");
      settle(now + 1 + rng.NextBelow(next - now - 1));
      continue;
    }
    const uint64_t roll = rng.NextBelow(10);
    if (started < kFlows && (!pending || roll < 5)) {
      // Start one or a burst of flows somewhere before the next completion.
      if (pending && next > now) {
        now += rng.NextBelow(next - now);
      }
      const int burst = 1 + static_cast<int>(rng.NextBelow(3));
      for (int b = 0; b < burst && started < kFlows; ++b, ++started) {
        const auto home = static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
        const auto guest =
            static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
        const uint64_t bytes = rng.NextBelow(8) == 0
                                   ? 0
                                   : 64'000 + rng.NextBelow(4'000'000);
        const uint64_t peak = 5'000'000 + rng.NextBelow(40'000'000);
        ASSERT_EQ(fabric.StartFlow(now, bytes, peak, home, guest),
                  ref.StartFlow(now, bytes, peak, home, guest));
        compare("start");
      }
      continue;
    }
    // Settle at the completion instant, or partway to it.
    settle(roll == 9 && next > now + 1 ? now + 1 + rng.NextBelow(next - now - 1)
                                       : next);
  }
  EXPECT_TRUE(profiled);
  EXPECT_GT(finished, static_cast<uint64_t>(kFlows) / 2);
  EXPECT_EQ(fabric.active_flows(), 0u);
}

TEST(CoordinatorTest, AdmitsFifoAndRecordsQueueWait) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 1;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto d2 = fleet.Dev(ap), d3 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  fleet.coord->MarkPaired(d2, d3);
  const auto a0 = fleet.App(d0), a1 = fleet.App(d2);
  ASSERT_TRUE(fleet.coord->RequestMigration(a0));
  ASSERT_TRUE(fleet.coord->RequestMigration(a1));
  EXPECT_EQ(fleet.coord->inflight_migrations(), 1u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 1u);
  fleet.sched.DrainUntil(kForever);
  const auto& done = fleet.coord->completed();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].app, a0);
  EXPECT_EQ(done[1].app, a1);
  // The second migration waited for the single slot.
  EXPECT_EQ(done[0].queue_wait(), 0);
  EXPECT_GT(done[1].queue_wait(), 0);
  EXPECT_EQ(done[1].admitted, done[0].completed);
  // Histogram count matches admissions; waits land in the snapshot.
  const auto wait = fleet.tracer.histogram(
      trace_names::kHistFleetQueueWait)->Take();
  EXPECT_EQ(wait.count, 2u);
  EXPECT_EQ(wait.max, static_cast<uint64_t>(done[1].queue_wait()));
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsAdmitted), 2u);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsCompleted), 2u);
}

TEST(CoordinatorTest, BlockedHeadDoesNotBlockTheQueue) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 4;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto d2 = fleet.Dev(ap), d3 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  fleet.coord->MarkPaired(d2, d3);
  const auto a0 = fleet.App(d0);      // in flight first
  const auto a0b = fleet.App(d0);     // blocked: d0 busy with a0
  const auto a2 = fleet.App(d2);      // runnable: must skip past a0b
  ASSERT_TRUE(fleet.coord->RequestMigration(a0));
  ASSERT_TRUE(fleet.coord->RequestMigration(a0b));
  ASSERT_TRUE(fleet.coord->RequestMigration(a2));
  // a2 was admitted immediately even though a0b sits ahead of it blocked.
  EXPECT_EQ(fleet.coord->inflight_migrations(), 2u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 1u);
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 3u);
  EXPECT_EQ(fleet.coord->completed()[0].app, a0);
  EXPECT_EQ(fleet.coord->completed()[1].app, a2);
  EXPECT_EQ(fleet.coord->completed()[2].app, a0b);
}

TEST(CoordinatorTest, PlacementPrefersTheWarmCache) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), cold = fleet.Dev(ap), warm = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, cold);
  fleet.coord->MarkPaired(d0, warm);
  fleet.coord->MarkPaired(cold, warm);
  const auto app = fleet.App(d0);  // zero dirty rate: chunks stay stable
  // Warm `warm` up: ship the app there and back explicitly.
  ASSERT_TRUE(fleet.coord->RequestMigration(app, warm));
  fleet.sched.DrainUntil(kForever);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d0));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->AppHome(app), d0);
  // Auto placement must now pick `warm` over `cold` and ship refs only.
  ASSERT_TRUE(fleet.coord->RequestMigration(app));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 3u);
  const FleetMigrationRecord& rec = fleet.coord->completed().back();
  EXPECT_EQ(rec.guest, warm);
  EXPECT_EQ(rec.warm_chunks, rec.chunks);
  // A fully warm transfer ships only 16-byte refs.
  EXPECT_EQ(rec.wire_bytes, static_cast<uint64_t>(rec.chunks) * 16);
  EXPECT_GT(fleet.Counter(trace_names::kFleetPlacementWarmChunks), 0u);
  EXPECT_GT(fleet.Counter(trace_names::kFleetPlacementProbes), 0u);
}

// The records of a small fleet whose home device pairs with four
// candidates on four APs, paired in the given order. The app hops off its
// home by auto placement three times.
std::vector<FleetMigrationRecord> RunPlacementInPairingOrder(
    const std::vector<int>& order) {
  Fleet fleet;
  std::vector<FleetDeviceId> devs;
  for (int d = 0; d < 5; ++d) {
    devs.push_back(fleet.Dev(fleet.fabric.AddAp("ap" + std::to_string(d),
                                                150'000'000)));
  }
  for (const int i : order) {
    for (const int j : order) {
      if (i < j) {
        fleet.coord->MarkPaired(devs[static_cast<size_t>(i)],
                                devs[static_cast<size_t>(j)]);
      }
    }
  }
  const auto app = fleet.App(devs[0], 4 << 20, 64 << 10);
  for (int hop = 0; hop < 3; ++hop) {
    EXPECT_TRUE(fleet.coord->RequestMigration(app));
    fleet.sched.DrainUntil(kForever);
  }
  return fleet.coord->completed();
}

TEST(CoordinatorTest, PlacementDoesNotDependOnPairingOrder) {
  // Equally cold candidates tie on warmth and load, so the lowest id wins;
  // later hops find the previous home warm. Neither may depend on the
  // order the pairings were made in.
  const auto forward = RunPlacementInPairingOrder({0, 1, 2, 3, 4});
  const auto backward = RunPlacementInPairingOrder({4, 3, 2, 1, 0});
  const auto shuffled = RunPlacementInPairingOrder({2, 4, 0, 3, 1});
  ASSERT_EQ(forward.size(), 3u);
  EXPECT_EQ(forward[0].guest, 1u);
  for (const auto* other : {&backward, &shuffled}) {
    ASSERT_EQ(other->size(), forward.size());
    for (size_t i = 0; i < forward.size(); ++i) {
      const FleetMigrationRecord& a = forward[i];
      const FleetMigrationRecord& b = (*other)[i];
      EXPECT_EQ(a.app, b.app);
      EXPECT_EQ(a.home, b.home);
      EXPECT_EQ(a.guest, b.guest);
      EXPECT_EQ(a.submitted, b.submitted);
      EXPECT_EQ(a.admitted, b.admitted);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.wire_bytes, b.wire_bytes);
      EXPECT_EQ(a.chunks, b.chunks);
      EXPECT_EQ(a.warm_chunks, b.warm_chunks);
    }
  }
}

TEST(CoordinatorTest, DirtyWritesCoolTheCacheBetweenHops) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  // 32 MiB image, heavy writes: chunks mutate between hops, and the
  // pre-cut window (~1.7 s of prepare + serialize + compress) spans
  // several 500 ms dirty bursts.
  const auto app = fleet.App(d0, 32 << 20, 2 << 20);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d1));
  fleet.sched.DrainUntil(kForever);
  // Let the app run (and dirty its hot set) for a while before returning.
  fleet.sched.ScheduleAfter(Seconds(30), [] {});
  fleet.sched.DrainUntil(kForever);
  ASSERT_TRUE(fleet.coord->RequestMigration(app, d0));
  fleet.sched.DrainUntil(kForever);
  ASSERT_EQ(fleet.coord->completed().size(), 2u);
  const FleetMigrationRecord& back = fleet.coord->completed().back();
  // The return hop finds d0's cache warm for the clean chunks but cold for
  // the rewritten hot set.
  EXPECT_GT(back.warm_chunks, 0u);
  EXPECT_LT(back.warm_chunks, back.chunks);
  EXPECT_GT(fleet.Counter(trace_names::kFleetDirtyBursts), 0u);
}

TEST(CoordinatorTest, PairingStormOf64DevicesRespectsTheCap) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_pairings = 4;
  Fleet fleet(cfg);
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  std::vector<FleetDeviceId> devs;
  for (int i = 0; i < 64; ++i) {
    devs.push_back(fleet.Dev(ap));
  }
  for (int i = 0; i < 64; i += 2) {
    ASSERT_TRUE(fleet.coord->RequestPairing(devs[i], devs[i + 1]));
  }
  EXPECT_EQ(fleet.coord->inflight_pairings(), 4u);
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.coord->pairings_completed(), 32u);
  EXPECT_LE(fleet.coord->peak_concurrency(), 4);
  for (int i = 0; i < 64; i += 2) {
    EXPECT_TRUE(fleet.coord->IsPaired(devs[i], devs[i + 1]));
    EXPECT_FALSE(fleet.coord->DeviceBusy(devs[i]));
  }
  EXPECT_EQ(fleet.Counter(trace_names::kFleetPairingsCompleted), 32u);
}

TEST(CoordinatorTest, RefusalSemantics) {
  Fleet fleet;
  const auto ap = fleet.fabric.AddAp("ap0", 150'000'000);
  const auto d0 = fleet.Dev(ap), d1 = fleet.Dev(ap);
  const auto lonely = fleet.Dev(ap);
  fleet.coord->MarkPaired(d0, d1);
  const auto app = fleet.App(d0);
  const auto stranded = fleet.App(lonely);
  EXPECT_FALSE(fleet.coord->RequestMigration(9999));      // unknown app
  EXPECT_FALSE(fleet.coord->RequestMigration(stranded));  // no paired peer
  EXPECT_FALSE(fleet.coord->RequestMigration(app, lonely));  // unpaired guest
  ASSERT_TRUE(fleet.coord->RequestMigration(app));
  EXPECT_FALSE(fleet.coord->RequestMigration(app));  // already migrating
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsRefused), 4u);
  EXPECT_EQ(fleet.Counter(trace_names::kFleetMigrationsCompleted), 1u);
}

TEST(CoordinatorTest, ThousandDeviceSmoke) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 32;
  Fleet fleet(cfg, 8);
  constexpr int kDevices = 1000;
  for (int a = 0; a < (kDevices + 63) / 64; ++a) {
    fleet.fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  std::vector<FleetAppId> apps;
  for (int g = 0; g < kDevices / 4; ++g) {
    FleetDeviceId ids[4];
    for (int d = 0; d < 4; ++d) {
      ids[d] = fleet.Dev(static_cast<ContendedFabric::ApId>(
          (g * 4 + d) / 64));
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        fleet.coord->MarkPaired(ids[i], ids[j]);
      }
    }
    apps.push_back(fleet.App(ids[0], 2 << 20, 64 << 10));
  }
  // Stagger one migration per app across a minute.
  for (size_t i = 0; i < apps.size(); ++i) {
    const FleetAppId app = apps[i];
    fleet.sched.ScheduleAt(
        static_cast<SimTime>(Millis(static_cast<int64_t>(i) * 240)),
        [&fleet, app] { fleet.coord->RequestMigration(app); },
        static_cast<uint32_t>(i % 8));
  }
  fleet.sched.DrainUntil(kForever);
  EXPECT_EQ(fleet.coord->completed().size(), apps.size());
  EXPECT_EQ(fleet.coord->inflight_migrations(), 0u);
  EXPECT_EQ(fleet.coord->queued_migrations(), 0u);
  EXPECT_GE(fleet.coord->peak_concurrency(), 1);
  EXPECT_EQ(fleet.fabric.active_flows(), 0u);
  // Every app re-homed onto one of its group peers.
  for (size_t g = 0; g < apps.size(); ++g) {
    const FleetDeviceId home = fleet.coord->AppHome(apps[g]);
    EXPECT_NE(home, static_cast<FleetDeviceId>(g * 4));
    EXPECT_GE(home, static_cast<FleetDeviceId>(g * 4));
    EXPECT_LT(home, static_cast<FleetDeviceId>(g * 4 + 4));
  }
}

// ----- Parallel-driver determinism (DESIGN.md §12) -----

// Runs a small mixed fleet (pairing storm + staggered ping-pong migrations
// with dirty writes) and digests every observable: the full completion
// record sequence, every tracer counter, and every histogram snapshot.
// The tests don't link the bench harness, so the digest is built here
// rather than via TracerStatsJson — same idea, same coverage.
std::string RunFleetDigest(ThreadPool* pool) {
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = 16;
  cfg.max_concurrent_pairings = 8;
  Fleet fleet(cfg, 8, pool);
  constexpr int kGroups = 40;
  for (int a = 0; a < (kGroups * 4 + 63) / 64; ++a) {
    fleet.fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  std::vector<FleetAppId> apps;
  for (int g = 0; g < kGroups; ++g) {
    FleetDeviceId ids[4];
    for (int d = 0; d < 4; ++d) {
      ids[d] = fleet.Dev(
          static_cast<ContendedFabric::ApId>((g * 4 + d) / 64),
          20'000'000 + static_cast<uint64_t>(g) * 500'000);
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (g < 8) {
          fleet.coord->RequestPairing(ids[i], ids[j]);  // storm path
        } else {
          fleet.coord->MarkPaired(ids[i], ids[j]);
        }
      }
    }
    apps.push_back(fleet.App(ids[0], (2 + g % 7) << 20, 128 << 10));
  }
  for (size_t i = 0; i < apps.size(); ++i) {
    const FleetAppId app = apps[i];
    for (int hop = 0; hop < 2; ++hop) {
      fleet.sched.ScheduleAt(
          static_cast<SimTime>(Seconds(1 + hop * 40)) +
              static_cast<SimTime>(Millis(static_cast<int64_t>(i) * 330)),
          [&fleet, app] { fleet.coord->RequestMigration(app); },
          static_cast<uint32_t>(i % 8));
    }
  }
  fleet.sched.DrainUntil(kForever);

  std::string digest;
  for (const FleetMigrationRecord& r : fleet.coord->completed()) {
    digest += std::to_string(r.app) + "/" + std::to_string(r.home) + ">" +
              std::to_string(r.guest) + "@" + std::to_string(r.submitted) +
              "," + std::to_string(r.admitted) + "," +
              std::to_string(r.completed) + ":" +
              std::to_string(r.wire_bytes) + "," + std::to_string(r.chunks) +
              "," + std::to_string(r.warm_chunks) + "\n";
  }
  for (const auto& [name, value] : fleet.tracer.Counters()) {
    digest += name + "=" + std::to_string(value) + "\n";
  }
  for (const auto& [name, snap] : fleet.tracer.Histograms()) {
    digest += name + ":" + std::to_string(snap.count) + "," +
              std::to_string(snap.sum) + "," + std::to_string(snap.max) +
              "\n";
  }
  const auto& ds = fleet.sched.driver_stats();
  digest += "windows=" + std::to_string(ds.windows) +
            " window_events=" + std::to_string(ds.window_events) +
            " serial=" + std::to_string(ds.serial_events) +
            " mailbox=" + std::to_string(ds.mailbox_ops) + "\n";
  return digest;
}

TEST(CoordinatorDeterminismTest, ThreadCountDoesNotChangeAnyObservable) {
  const std::string serial = RunFleetDigest(nullptr);
  // The coordinator's staged events must actually have exercised the
  // window machinery, or this test compares two serial runs.
  EXPECT_NE(serial.find("window_events="), std::string::npos);
  EXPECT_EQ(serial.find("window_events=0 "), std::string::npos) << serial;
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const std::string two = RunFleetDigest(&pool2);
  const std::string eight = RunFleetDigest(&pool8);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

}  // namespace
}  // namespace flux
