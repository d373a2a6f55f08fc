// Microbenchmarks (google-benchmark): real wall-clock cost of the hot
// paths — Binder transactions with and without the Flux record engine
// interposed (the implementation-level version of Figure 16's claim),
// parcel marshalling, the LZ codec, CRIA checkpoint/restore throughput, and
// the fleet coordinator's two inner loops: chunk-cache probes and fabric
// settles.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_instance.h"
#include "src/base/compress.h"
#include "src/base/rng.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"
#include "src/cria/cria.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flux_agent.h"
#include "src/flux/pairing.h"
#include "src/net/contended_link.h"

namespace flux {
namespace {

// Shared fixture state: a booted device with an app process.
struct BinderFixtureState {
  BinderFixtureState() {
    BootOptions boot;
    boot.framework_scale = 0.002;
    device = world.AddDevice("dut", Nexus4Profile(), boot).value();
    app = &device->CreateAppProcess("com.bench", 10900);
    audio_handle = device->service_manager()
                       .GetServiceHandle(app->pid(), "audio")
                       .value();
  }
  World world;
  Device* device = nullptr;
  SimProcess* app = nullptr;
  uint64_t audio_handle = 0;
};

void BM_BinderTransact(benchmark::State& state) {
  BinderFixtureState fixture;
  for (auto _ : state) {
    Parcel args;
    args.WriteI32(kStreamMusic);
    auto reply = fixture.device->binder().Transact(
        fixture.app->pid(), fixture.audio_handle, "getStreamVolume",
        std::move(args));
    benchmark::DoNotOptimize(reply);
  }
}
BENCHMARK(BM_BinderTransact);

void BM_BinderTransactRecorded(benchmark::State& state) {
  BinderFixtureState fixture;
  FluxAgent agent(*fixture.device);
  agent.Manage(fixture.app->pid(), "com.bench");
  int32_t index = 0;
  for (auto _ : state) {
    Parcel args;
    args.WriteNamed("streamType", kStreamMusic);
    args.WriteNamed("index", index++ % 15);
    args.WriteNamed("flags", static_cast<int32_t>(0));
    auto reply = fixture.device->binder().Transact(
        fixture.app->pid(), fixture.audio_handle, "setStreamVolume",
        std::move(args));
    benchmark::DoNotOptimize(reply);
  }
  state.counters["log_entries"] = static_cast<double>(
      agent.recorder().LogFor(fixture.app->pid())->size());
}
BENCHMARK(BM_BinderTransactRecorded);

void BM_ParcelRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Parcel parcel;
    parcel.WriteNamed("id", static_cast<int32_t>(42));
    parcel.WriteNamed("text", std::string("notification content"));
    parcel.WriteI64(123456789);
    ArchiveWriter writer;
    parcel.Serialize(writer);
    ArchiveReader reader(
        ByteSpan(writer.data().data(), writer.data().size()));
    auto copy = Parcel::Deserialize(reader);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ParcelRoundTrip);

void BM_LzCompress(benchmark::State& state) {
  const Bytes input = GenerateContent(7, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  for (auto _ : state) {
    Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzDecompress(benchmark::State& state) {
  const Bytes input = GenerateContent(9, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  const Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
  for (auto _ : state) {
    auto raw = LzDecompress(ByteSpan(compressed.data(), compressed.size()));
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzCompressIncompressible(benchmark::State& state) {
  // compressibility 0.0: no matches survive, so this is a pure measure of
  // the literal emission path (batched runs, not per-byte pushes).
  const Bytes input = GenerateContent(11, static_cast<uint64_t>(state.range(0)),
                                      0.0);
  for (auto _ : state) {
    Bytes compressed = LzCompress(ByteSpan(input.data(), input.size()));
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompressIncompressible)->Arg(1 << 20)->Arg(8 << 20);

void BM_LzCompressChunksParallel(benchmark::State& state) {
  // Chunked compression across a host thread pool: wall-clock scaling of
  // the pipelined migration's compress stage. Arg = thread count.
  const Bytes input = GenerateContent(13, 16 << 20, 0.55);
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes container = LzCompressChunks(ByteSpan(input.data(), input.size()),
                                       256 << 10, &pool);
    benchmark::DoNotOptimize(container);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_LzCompressChunksParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_LzDecompressChunks(benchmark::State& state) {
  const Bytes input = GenerateContent(15, static_cast<uint64_t>(state.range(0)),
                                      0.55);
  ThreadPool pool(4);
  const Bytes container =
      LzCompressChunks(ByteSpan(input.data(), input.size()), 256 << 10, &pool);
  for (auto _ : state) {
    auto raw = LzDecompressChunks(ByteSpan(container.data(), container.size()));
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompressChunks)->Arg(8 << 20);

void BM_CriaCheckpoint(benchmark::State& state) {
  World world;
  BootOptions boot;
  boot.framework_scale = 0.002;
  Device* device = world.AddDevice("dut", Nexus4Profile(), boot).value();
  AppSpec spec = *FindApp("eBay");
  spec.heap_bytes = static_cast<uint64_t>(state.range(0));
  AppInstance app(*device, spec);
  (void)app.Launch();
  // Shed graphics state so the checkpoint is legal.
  (void)device->activity_manager().MoveAppToBackground(app.pid());
  world.AdvanceTime(Seconds(2));
  (void)device->activity_manager().RequestTrimMemory(app.pid(),
                                                     kTrimMemoryComplete);
  (void)device->egl().EglUnload(app.pid());
  for (auto _ : state) {
    auto checkpoint = Cria::Checkpoint(*device, app.pid(), app.thread());
    benchmark::DoNotOptimize(checkpoint);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CriaCheckpoint)->Arg(1 << 20)->Arg(16 << 20);

void BM_RecordPruning(benchmark::State& state) {
  // Steady-state log pruning: enqueue/cancel churn at a bounded log size.
  BinderFixtureState fixture;
  FluxAgent agent(*fixture.device);
  agent.Manage(fixture.app->pid(), "com.bench");
  const uint64_t notification_handle =
      fixture.device->service_manager()
          .GetServiceHandle(fixture.app->pid(), "notification")
          .value();
  int32_t id = 0;
  for (auto _ : state) {
    Parcel post;
    post.WriteNamed("id", id);
    post.WriteNamed("notification", std::string("x"));
    (void)fixture.device->binder().Transact(fixture.app->pid(),
                                            notification_handle,
                                            "enqueueNotification",
                                            std::move(post));
    Parcel cancel;
    cancel.WriteNamed("id", id);
    (void)fixture.device->binder().Transact(fixture.app->pid(),
                                            notification_handle,
                                            "cancelNotification",
                                            std::move(cancel));
    id = (id + 1) % 64;
  }
  state.counters["final_log"] = static_cast<double>(
      agent.recorder().LogFor(fixture.app->pid())->size());
}
BENCHMARK(BM_RecordPruning);

void BM_ChunkCacheFleetShape(benchmark::State& state) {
  // The fleet coordinator's cache traffic: entries are short seed strings
  // ("app/chunk/generation"), thousands per device, probed by the
  // placement manifest scan with roughly half the probes missing, plus
  // the re-inserts a completed hop makes.
  constexpr int kEntries = 4096;
  std::vector<std::string> seeds;
  std::vector<Hash128> hashes;
  for (int i = 0; i < 2 * kEntries; ++i) {
    seeds.push_back("app" + std::to_string(i % 97) + "/" +
                    std::to_string(i) + "/" + std::to_string(i % 5));
    hashes.push_back(FluxHash128(ByteSpan(
        reinterpret_cast<const uint8_t*>(seeds.back().data()),
        seeds.back().size())));
  }
  auto bytes = [&](int i) {
    return ByteSpan(reinterpret_cast<const uint8_t*>(seeds[i].data()),
                    seeds[i].size());
  };
  ChunkCache cache(256 * 1024);
  for (int i = 0; i < kEntries; ++i) {
    cache.Insert(hashes[static_cast<size_t>(i)], bytes(i));
  }
  Rng rng(17);
  std::vector<int> order;
  for (int i = 0; i < 2 * kEntries; ++i) {
    order.push_back(static_cast<int>(rng.NextBelow(2 * kEntries)));
  }
  int hits = 0;
  for (auto _ : state) {
    for (const int i : order) {
      hits += cache.HasValid(hashes[static_cast<size_t>(i)]) ? 1 : 0;
    }
    for (int i = 0; i < kEntries; i += 16) {
      cache.Insert(hashes[static_cast<size_t>(i)], bytes(i));
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (2 * kEntries + kEntries / 16));
}
BENCHMARK(BM_ChunkCacheFleetShape);

void BM_FabricSettle(benchmark::State& state) {
  // One fabric event at fleet scale: `range(0)` concurrent flows over the
  // 100k fleet's 1563 APs; each iteration settles the earliest completion
  // and starts a replacement for every finished flow, so membership (and
  // the re-rate) changes on every event.
  constexpr int kAps = (100'000 + 63) / 64;
  const int in_flight = static_cast<int>(state.range(0));
  ContendedFabric fabric;
  for (int a = 0; a < kAps; ++a) {
    fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  Rng rng(static_cast<uint64_t>(in_flight));
  auto start = [&](SimTime now) {
    const auto home = static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
    const auto guest = static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
    fabric.StartFlow(now, ((4ULL << 20) + rng.NextBelow(28ULL << 20)) * 45 / 100,
                     20'000'000 + rng.NextBelow(20'000'000), home, guest);
  };
  for (int i = 0; i < in_flight; ++i) {
    start(0);
  }
  SimTime when = 0;
  std::vector<ContendedFabric::FinishedFlow> finished;
  for (auto _ : state) {
    fabric.NextCompletion(when, &when);
    finished.clear();
    fabric.Settle(when, &finished);
    for (size_t i = 0; i < finished.size(); ++i) {
      start(when);
    }
    benchmark::DoNotOptimize(when);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["flows"] = static_cast<double>(fabric.active_flows());
}
BENCHMARK(BM_FabricSettle)->Arg(64)->Arg(512);

}  // namespace
}  // namespace flux

BENCHMARK_MAIN();
