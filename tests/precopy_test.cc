// Iterative pre-copy (DESIGN.md §10): dirty-segment tracking in the address
// space, incremental CRIA deltas that patch byte-identically onto a full
// base image, and the converging warm-up rounds in MigrationManager — plus
// the two failure paths that must stay safe: a write racing the final
// stop-and-copy cut (re-cut, never silently dropped) and a poisoned guest
// chunk cache (full chunks re-ship, restore stays byte-exact).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/cria/cria.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flux_agent.h"
#include "src/flux/migration.h"
#include "src/flux/pairing.h"
#include "src/kernel/address_space.h"

namespace flux {
namespace {

// ----- dirty-segment tracking (src/kernel/address_space.*) -----

TEST(AddressSpaceDirtyTrackingTest, EpochsWritesAndTouch) {
  AddressSpace as;
  MemorySegment seg;
  seg.name = "heap";
  seg.kind = SegmentKind::kAnonPrivate;
  seg.content = Bytes(8192, 0xAB);
  const uint64_t start = as.Map(std::move(seg));

  // A freshly mapped segment is dirty relative to the never-begun epoch 0.
  EXPECT_EQ(as.DirtyBytesSince(0), 8192u);

  const uint64_t e1 = as.BeginEpoch();
  EXPECT_EQ(as.DirtyBytesSince(e1), 0u);
  EXPECT_EQ(as.DirtySegmentsSince(e1), 0);

  Bytes data(16, 0x01);
  ASSERT_TRUE(as.Write(start, 100, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(as.DirtyBytesSince(e1), 8192u);
  EXPECT_EQ(as.DirtySegmentsSince(e1), 1);

  // Epochs stay independently live: a newer epoch starts clean while the
  // older one still sees the earlier write.
  const uint64_t e2 = as.BeginEpoch();
  EXPECT_EQ(as.DirtyBytesSince(e2), 0u);
  EXPECT_EQ(as.DirtyBytesSince(e1), 8192u);

  // Touch dirties without changing content.
  ASSERT_TRUE(as.Touch(start).ok());
  EXPECT_EQ(as.DirtyBytesSince(e2), 8192u);

  // Writes must land inside the existing content.
  EXPECT_FALSE(as.Write(start, 8192 - 8, ByteSpan(data.data(), data.size()))
                   .ok());
  EXPECT_FALSE(as.Write(start + 1, 0, ByteSpan(data.data(), data.size()))
                   .ok());

  // Non-checkpointed segments never count toward the dirty set.
  MemorySegment ro;
  ro.name = "/system/lib/x.so";
  ro.kind = SegmentKind::kFileBackedRo;
  ro.mapped_size = 4096;
  ro.backing_path = "/system/lib/x.so";
  as.Map(std::move(ro));
  EXPECT_EQ(as.DirtyBytesSince(e2), 8192u);

  // AlignGeneration raises a lagging space to the tree's generation and
  // never lowers it.
  AddressSpace other;
  other.AlignGeneration(as.generation());
  EXPECT_EQ(other.generation(), as.generation());
  other.AlignGeneration(1);
  EXPECT_EQ(other.generation(), as.generation());
}

// ----- incremental CRIA checkpoints -----

class PrecopyCriaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootOptions boot;
    boot.framework_scale = 0.002;
    home_ = world_.AddDevice("home", Nexus4Profile(), boot).value();
    guest_ = world_.AddDevice("guest", Nexus7_2013Profile(), boot).value();
    home_agent_ = std::make_unique<FluxAgent>(*home_);
    guest_agent_ = std::make_unique<FluxAgent>(*guest_);
    ASSERT_TRUE(PairDevices(*home_agent_, *guest_agent_).ok());

    AppSpec spec = *FindApp("eBay");
    spec.heap_bytes = 256 * 1024;  // keep tests quick
    app_ = std::make_unique<AppInstance>(*home_, spec);
    ASSERT_TRUE(app_->Install().ok());
    ASSERT_TRUE(PairApp(*home_agent_, *guest_agent_, spec).ok());
    ASSERT_TRUE(app_->Launch().ok());
  }

  // Runs the full preparation phase so a checkpoint is legal.
  void PrepareApp() {
    ASSERT_TRUE(
        home_->activity_manager().MoveAppToBackground(app_->pid()).ok());
    world_.AdvanceTime(Seconds(2));
    ASSERT_TRUE(home_->activity_manager()
                    .RequestTrimMemory(app_->pid(), kTrimMemoryComplete)
                    .ok());
    ASSERT_TRUE(home_->egl().EglUnload(app_->pid()).ok());
  }

  AddressSpace& Space() {
    return home_->kernel().FindProcess(app_->pid())->address_space();
  }

  // Dirties `bytes` heap bytes at `offset` with the given fill.
  void DirtyHeap(uint64_t offset, size_t bytes, uint8_t fill) {
    AddressSpace& as = Space();
    MemorySegment* heap = as.FindByName("dalvik-heap");
    ASSERT_NE(heap, nullptr);
    Bytes patch(bytes, fill);
    ASSERT_TRUE(
        as.Write(heap->start, offset, ByteSpan(patch.data(), patch.size()))
            .ok());
  }

  World world_;
  Device* home_ = nullptr;
  Device* guest_ = nullptr;
  std::unique_ptr<FluxAgent> home_agent_;
  std::unique_ptr<FluxAgent> guest_agent_;
  std::unique_ptr<AppInstance> app_;
};

TEST_F(PrecopyCriaTest, DeltaPatchesBaseImageByteIdentically) {
  PrepareApp();
  const std::vector<Pid> pids = {app_->pid()};

  auto base = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const uint64_t epoch = Cria::BeginDirtyEpoch(*home_, pids);
  EXPECT_EQ(Cria::DirtyBytesSince(*home_, pids, epoch), 0u);

  // Generation N: dirty both ends of the heap, advance the clock (no device
  // ticks — nothing but memory and time may differ between the cuts).
  DirtyHeap(0, 4096, 0xC3);
  DirtyHeap(192 * 1024, 4096, 0xC4);
  world_.clock().Advance(Millis(50));
  EXPECT_GT(Cria::DirtyBytesSince(*home_, pids, epoch), 0u);

  auto delta = Cria::CheckpointIncremental(*home_, pids, epoch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->stats.segments, 1);  // only the heap was written
  EXPECT_LT(delta->delta.size(), base->image.size());

  auto full_n = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(full_n.ok());
  auto patched = Cria::ApplyIncremental(
      ByteSpan(base->image.data(), base->image.size()),
      ByteSpan(delta->delta.data(), delta->delta.size()));
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(*patched, full_n->image);

  // Generation N+1: a second delta applied on top of the first patch still
  // reproduces the full cut exactly.
  const uint64_t epoch2 = Cria::BeginDirtyEpoch(*home_, pids);
  DirtyHeap(64 * 1024, 8192, 0xD5);
  world_.clock().Advance(Millis(50));
  auto delta2 = Cria::CheckpointIncremental(*home_, pids, epoch2);
  ASSERT_TRUE(delta2.ok());
  auto full_n1 = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(full_n1.ok());
  auto patched2 = Cria::ApplyIncremental(
      ByteSpan(patched->data(), patched->size()),
      ByteSpan(delta2->delta.data(), delta2->delta.size()));
  ASSERT_TRUE(patched2.ok()) << patched2.status().ToString();
  EXPECT_EQ(*patched2, full_n1->image);

  // The patched image is a real image: it restores like the full one.
  CriaRestoreOptions options;
  options.jail_root = FluxAgent::PairRoot(home_->name());
  auto restored = Cria::Restore(
      *guest_, ByteSpan(patched2->data(), patched2->size()), options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_NE(guest_->kernel().FindProcess(restored->pid), nullptr);
}

TEST_F(PrecopyCriaTest, SegmentMappedAfterBaseCutFallsBackToFullCheckpoint) {
  PrepareApp();
  const std::vector<Pid> pids = {app_->pid()};
  auto base = Cria::CheckpointTree(*home_, pids, app_->thread());
  ASSERT_TRUE(base.ok());
  const uint64_t epoch = Cria::BeginDirtyEpoch(*home_, pids);

  // A segment mapped after the base cut has no slot in the base image; the
  // patch must refuse (kUnsupported) so the caller cuts a fresh full image
  // instead of silently dropping the new mapping.
  MemorySegment late;
  late.name = "late-mmap";
  late.kind = SegmentKind::kAnonPrivate;
  late.content = Bytes(8192, 0x11);
  Space().Map(std::move(late));

  auto delta = Cria::CheckpointIncremental(*home_, pids, epoch);
  ASSERT_TRUE(delta.ok());
  auto patched = Cria::ApplyIncremental(
      ByteSpan(base->image.data(), base->image.size()),
      ByteSpan(delta->delta.data(), delta->delta.size()));
  ASSERT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kUnsupported);
}

// ----- end-to-end pre-copy migrations -----

// Two paired devices wired for hops in both directions, with one managed
// app that starts on device A (same shape as dedup_migration_test).
struct RoundTripWorld {
  World world;
  Device* a = nullptr;
  Device* b = nullptr;
  std::unique_ptr<FluxAgent> a_agent;
  std::unique_ptr<FluxAgent> b_agent;
  std::unique_ptr<AppInstance> app;
  AppSpec owned_spec;
  const AppSpec* spec = nullptr;
  RunningApp running;

  void Boot(const std::string& app_name) {
    const AppSpec* found = FindApp(app_name);
    ASSERT_NE(found, nullptr) << app_name;
    Boot(*found);
  }

  void Boot(const AppSpec& app_spec) {
    owned_spec = app_spec;
    spec = &owned_spec;
    BootOptions boot;
    boot.framework_scale = 0.01;
    a = world.AddDevice("n4", Nexus4Profile(), boot).value();
    b = world.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
    a_agent = std::make_unique<FluxAgent>(*a);
    b_agent = std::make_unique<FluxAgent>(*b);
    ASSERT_TRUE(PairDevices(*a_agent, *b_agent).ok());
    ASSERT_TRUE(PairDevices(*b_agent, *a_agent).ok());
    app = std::make_unique<AppInstance>(*a, *spec);
    ASSERT_TRUE(app->Install().ok());
    ASSERT_TRUE(PairApp(*a_agent, *b_agent, *spec).ok());
    ASSERT_TRUE(app->Launch().ok());
    a_agent->Manage(app->pid(), spec->package);
    ASSERT_TRUE(app->RunWorkload(42).ok());
    running = RunningApp::FromInstance(*app);
  }

  Result<MigrationReport> Hop(FluxAgent& from, FluxAgent& to,
                              const MigrationConfig& config) {
    MigrationManager manager(from, to, config);
    auto report = manager.Migrate(running, *spec);
    if (report.ok() && report->success) {
      running = report->migrated;
    }
    return report;
  }
};

MigrationConfig PrecopyConfig() {
  MigrationConfig config;
  config.precopy = true;
  return config;
}

TEST(PrecopyMigrationTest, ColdHopConvergesAndShrinksPerceivedTime) {
  // Control: the same hop with the plain pipelined+dedup configuration.
  RoundTripWorld control;
  control.Boot("Candy Crush Saga");
  MigrationConfig pipelined;
  pipelined.pipelined = true;
  pipelined.chunk_dedup = true;
  auto cold = control.Hop(*control.a_agent, *control.b_agent, pipelined);
  ASSERT_TRUE(cold.ok() && cold->success);
  EXPECT_FALSE(cold->precopy.enabled);
  EXPECT_TRUE(cold->precopy.rounds.empty());

  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, PrecopyConfig());
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;

  // The warm-up ran, converged, and the restore stayed byte-exact.
  EXPECT_TRUE(hop->precopy.enabled);
  EXPECT_TRUE(hop->precopy.converged);
  EXPECT_GE(hop->precopy.rounds.size(), 1u);
  EXPECT_GT(hop->precopy.wire_bytes, 0u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
  // No hook, and the write load stops before the freeze: the first final
  // cut is clean.
  EXPECT_EQ(hop->precopy.final_recuts, 0);
  // The stop-and-copy payload rode the warmed cache as refs.
  EXPECT_GT(hop->dedup.ref_chunks, 0u);

  // The headline: perceived time collapses under the 1 s target while the
  // pipelined control sits in the multi-second range.
  EXPECT_LT(ToSecondsF(hop->UserPerceived()),
            ToSecondsF(cold->UserPerceived()));
  EXPECT_LT(ToSecondsF(hop->UserPerceived()), 1.0);

  // The app is live on the guest.
  EXPECT_NE(tw.b->kernel().FindProcess(hop->migrated.pid), nullptr);
}

TEST(PrecopyMigrationTest, WriteRacingFinalCutTriggersRecutNotDrop) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");

  Device* home = tw.a;
  const Pid pid = tw.running.pid;
  const Bytes marker(4096, 0x5A);
  MigrationConfig config = PrecopyConfig();
  // Models a write racing the freeze: fires once, right after the final
  // stop-and-copy payload is cut.
  config.precopy_after_final_cut = [home, pid, &marker] {
    SimProcess* process = home->kernel().FindProcess(pid);
    ASSERT_NE(process, nullptr);
    AddressSpace& as = process->address_space();
    MemorySegment* heap = as.FindByName("dalvik-heap");
    ASSERT_NE(heap, nullptr);
    ASSERT_TRUE(
        as.Write(heap->start, 0, ByteSpan(marker.data(), marker.size()))
            .ok());
  };

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;

  // The racing write forced at least one re-cut and still made the image.
  EXPECT_GE(hop->precopy.final_recuts, 1);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);

  // The marker bytes actually arrived on the guest.
  SimProcess* guest_process = tw.b->kernel().FindProcess(hop->migrated.pid);
  ASSERT_NE(guest_process, nullptr);
  MemorySegment* guest_heap =
      guest_process->address_space().FindByName("dalvik-heap");
  ASSERT_NE(guest_heap, nullptr);
  ASSERT_GE(guest_heap->content.size(), marker.size());
  EXPECT_EQ(Bytes(guest_heap->content.begin(),
                  guest_heap->content.begin() + marker.size()),
            marker);
}

TEST(PrecopyMigrationTest, PoisonedGuestCacheFallsBackWithoutCorruption) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = PrecopyConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // Corrupt every entry in A's cache — the cache the return hop warms and
  // then resolves refs against.
  ChunkCache& guest_cache = tw.a_agent->chunk_cache();
  const std::vector<Hash128> keys = guest_cache.Keys();
  ASSERT_FALSE(keys.empty());
  for (const Hash128& key : keys) {
    ASSERT_TRUE(guest_cache.PoisonForTest(key));
  }

  ASSERT_TRUE(PairApp(*tw.b_agent, *tw.a_agent, *tw.spec).ok());
  auto hop2 = tw.Hop(*tw.b_agent, *tw.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;

  // Every poisoned entry read as a miss, was re-streamed by the warm-up
  // rounds, and the restore stayed byte-exact.
  EXPECT_GT(guest_cache.stats().verify_failures, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
  EXPECT_NE(tw.a->kernel().FindProcess(hop2->migrated.pid), nullptr);
}

TEST(PrecopyMigrationTest, NonConvergenceIsReportedThroughForensics) {
  // A write load that scatters across the whole heap faster than a round
  // can stream it: every round finds nearly every chunk dirty again, the
  // pending set stops shrinking, and pre-copy cannot converge.
  AppSpec spec = *FindApp("Candy Crush Saga");
  spec.workload.dirty_bytes_per_s = 1024 * 1024;
  spec.workload.dirty_hot_fraction = 1.0;
  RoundTripWorld tw;
  tw.Boot(spec);

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, PrecopyConfig());
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  // Non-convergence degrades to a longer stop-and-copy, never a failure.
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_TRUE(hop->precopy.enabled);
  EXPECT_FALSE(hop->precopy.converged);
  // Round 0 streams the whole image; round 1 finds it dirty again.
  EXPECT_EQ(hop->precopy.rounds.size(), 2u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);

  // The aborted convergence is documented in a forensic report.
  ASSERT_NE(hop->forensics, nullptr);
  EXPECT_EQ(hop->forensics->failure_phase, "precopy");
  EXPECT_FALSE(hop->forensics->rolled_back);
  ASSERT_FALSE(hop->forensics->cause_chain.empty());
  EXPECT_NE(hop->forensics->cause_chain[0].message.find("stopped shrinking"),
            std::string::npos)
      << hop->forensics->cause_chain[0].message;
}

// The other non-convergence cause: a doubled heap under a steady load
// keeps shrinking the pending set by more than 15% a round, but never
// below the stop-and-copy target before the 8-round budget runs out.
TEST(PrecopyMigrationTest, RoundBudgetExhaustionIsReportedThroughForensics) {
  AppSpec spec = *FindApp("Candy Crush Saga");
  spec.heap_bytes *= 2;
  spec.workload.dirty_bytes_per_s = 1024 * 1024;
  spec.workload.dirty_hot_fraction = 0.005;
  RoundTripWorld tw;
  tw.Boot(spec);

  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, PrecopyConfig());
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_FALSE(hop->precopy.converged);
  EXPECT_EQ(hop->precopy.rounds.size(), 8u);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
  ASSERT_NE(hop->forensics, nullptr);
  EXPECT_EQ(hop->forensics->failure_phase, "precopy");
  ASSERT_FALSE(hop->forensics->cause_chain.empty());
  EXPECT_NE(hop->forensics->cause_chain[0].message.find("round budget"),
            std::string::npos)
      << hop->forensics->cause_chain[0].message;
}

}  // namespace
}  // namespace flux
