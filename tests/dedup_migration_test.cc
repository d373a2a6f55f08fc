// A -> B -> A delta-transfer integration tests: the chunk caches warm up
// across hops, the return hop ships refs instead of bytes, the restored
// image stays byte-identical to the checkpoint, and a poisoned or emptied
// guest cache degrades to shipping full chunks rather than corrupting the
// restore.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/apps/app_instance.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/migration.h"

namespace flux {
namespace {

// Two paired devices wired for hops in both directions, with one managed
// app that starts on device A. Worlds boot identically, so runs differing
// only in MigrationConfig are comparable.
struct RoundTripWorld {
  World world;
  Device* a = nullptr;
  Device* b = nullptr;
  std::unique_ptr<FluxAgent> a_agent;
  std::unique_ptr<FluxAgent> b_agent;
  std::unique_ptr<AppInstance> app;
  const AppSpec* spec = nullptr;
  RunningApp running;

  void Boot(const std::string& app_name) {
    BootOptions boot;
    boot.framework_scale = 0.01;
    a = world.AddDevice("n4", Nexus4Profile(), boot).value();
    b = world.AddDevice("n7-2013", Nexus7_2013Profile(), boot).value();
    a_agent = std::make_unique<FluxAgent>(*a);
    b_agent = std::make_unique<FluxAgent>(*b);
    ASSERT_TRUE(PairDevices(*a_agent, *b_agent).ok());
    ASSERT_TRUE(PairDevices(*b_agent, *a_agent).ok());
    spec = FindApp(app_name);
    ASSERT_NE(spec, nullptr) << app_name;
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

MigrationConfig DedupConfig() {
  MigrationConfig config;
  config.pipelined = true;
  config.chunk_dedup = true;
  return config;
}

// chunk_dedup alone turns the chunk stream on: the manifest handshake and
// ref chunks exist nowhere else, so dedup never silently does nothing.
TEST(DedupMigrationTest, DedupAloneImpliesPipelined) {
  RoundTripWorld tw;
  tw.Boot("Flappy Bird");
  MigrationConfig config;
  config.chunk_dedup = true;
  auto hop = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(hop->success) << hop->refusal_reason;
  EXPECT_TRUE(hop->dedup.enabled);
  EXPECT_TRUE(hop->pipeline.enabled);
  EXPECT_EQ(hop->image_hash, hop->restored_image_hash);
}

TEST(DedupMigrationTest, WarmReturnHopShipsRefsAndFewerBytes) {
  RoundTripWorld dedup;
  dedup.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();

  auto hop1 = dedup.Hop(*dedup.a_agent, *dedup.b_agent, config);
  ASSERT_TRUE(hop1.ok()) << hop1.status().ToString();
  ASSERT_TRUE(hop1->success) << hop1->refusal_reason;
  EXPECT_TRUE(hop1->dedup.enabled);
  // Restore reassembled exactly the bytes the checkpoint produced — the
  // identity a cold (no-dedup) migration trivially provides, preserved
  // here through ref substitution.
  EXPECT_EQ(hop1->image_hash, hop1->restored_image_hash);

  ASSERT_TRUE(PairApp(*dedup.b_agent, *dedup.a_agent, *dedup.spec).ok());
  auto hop2 = dedup.Hop(*dedup.b_agent, *dedup.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);

  // The return hop found most of its image in A's cache (populated while A
  // was the home side of hop 1) and shipped refs for it.
  EXPECT_GT(hop2->dedup.ref_chunks, 0u);
  EXPECT_GT(hop2->dedup.ref_raw_bytes, 0u);
  EXPECT_GT(hop2->dedup.manifest_wire_bytes, 0u);

  // Control: the identical round trip without dedup.
  RoundTripWorld control;
  control.Boot("Candy Crush Saga");
  MigrationConfig cold = config;
  cold.chunk_dedup = false;
  auto cold1 = control.Hop(*control.a_agent, *control.b_agent, cold);
  ASSERT_TRUE(cold1.ok() && cold1->success);
  EXPECT_FALSE(cold1->dedup.enabled);
  EXPECT_TRUE(cold1->pipeline.chunk_kind.empty());
  ASSERT_TRUE(PairApp(*control.b_agent, *control.a_agent, *control.spec).ok());
  auto cold2 = control.Hop(*control.b_agent, *control.a_agent, cold);
  ASSERT_TRUE(cold2.ok() && cold2->success);

  // Strictly fewer wire bytes on the warm hop, manifest included.
  EXPECT_LT(hop2->total_wire_bytes, cold2->total_wire_bytes);
  // And no slower: ref chunks skip the codec on both sides.
  EXPECT_LE(ToSecondsF(hop2->Total()), ToSecondsF(cold2->Total()) + 1e-9);
  // The first (cold-cache) hop never costs extra wire bytes: the stored
  // fallback and refs can only shrink the container.
  EXPECT_LE(hop1->total_wire_bytes,
            cold1->total_wire_bytes + hop1->dedup.manifest_wire_bytes);
}

TEST(DedupMigrationTest, PoisonedGuestCacheFallsBackToFullChunks) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // Corrupt every entry in A's cache — the cache hop 2 will query.
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

  // Every poisoned entry read as a miss at manifest time, so no refs
  // shipped, full chunks did — and the restore stayed byte-exact.
  EXPECT_EQ(hop2->dedup.ref_chunks, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
  EXPECT_GT(guest_cache.stats().verify_failures, 0u);
  EXPECT_NE(tw.a->kernel().FindProcess(hop2->migrated.pid), nullptr);
}

TEST(DedupMigrationTest, MissingGuestCacheEntriesFallBackToFullChunks) {
  RoundTripWorld tw;
  tw.Boot("Candy Crush Saga");
  const MigrationConfig config = DedupConfig();
  auto hop1 = tw.Hop(*tw.a_agent, *tw.b_agent, config);
  ASSERT_TRUE(hop1.ok() && hop1->success);

  // A's cache vanished entirely (reboot, storage pressure).
  tw.a_agent->chunk_cache().Clear();

  ASSERT_TRUE(PairApp(*tw.b_agent, *tw.a_agent, *tw.spec).ok());
  auto hop2 = tw.Hop(*tw.b_agent, *tw.a_agent, config);
  ASSERT_TRUE(hop2.ok()) << hop2.status().ToString();
  ASSERT_TRUE(hop2->success) << hop2->refusal_reason;
  EXPECT_EQ(hop2->dedup.ref_chunks, 0u);
  EXPECT_EQ(hop2->image_hash, hop2->restored_image_hash);
}

}  // namespace
}  // namespace flux
