#include "perfbench/src/ledger.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "perfbench/src/host.h"
#include "src/apps/app_instance.h"
#include "src/apps/app_spec.h"
#include "src/base/compress.h"
#include "src/base/event_queue.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/synthetic_content.h"
#include "src/cria/cria.h"
#include "src/device/device_profile.h"
#include "src/device/world.h"
#include "src/flux/chunk_cache.h"
#include "src/flux/flux_agent.h"
#include "src/flux/migration.h"
#include "src/flux/pairing.h"
#include "src/net/contended_link.h"
#include "src/net/frame.h"

namespace perfbench {
namespace {

using namespace flux;

constexpr double kMinKernelSeconds = 0.15;
constexpr double kMB = 1024.0 * 1024.0;
constexpr uint32_t kChunkBytes = 256 * 1024;

// Kernel results land here so the optimiser cannot drop the work.
uint64_t g_sink = 0;

// Repeats `body` (which returns the units of work it did) until at least
// kMinKernelSeconds have passed; returns host seconds per unit of work.
double SecondsPerUnit(const std::function<double()>& body) {
  const auto begin = HostClock::now();
  double units = 0;
  double elapsed = 0;
  do {
    units += body();
    elapsed = SecondsSince(begin);
  } while (elapsed < kMinKernelSeconds);
  return units > 0 ? elapsed / units : 0;
}

std::vector<ByteSpan> Slices(const Bytes& data, size_t size) {
  std::vector<ByteSpan> out;
  for (size_t begin = 0; begin < data.size(); begin += size) {
    out.emplace_back(data.data() + begin, std::min(size, data.size() - begin));
  }
  return out;
}

// The kernels' image inputs: two migratable apps drawn by the seed, each
// heap-sized with its own compressibility.
std::vector<const AppSpec*> LedgerApps(uint64_t seed) {
  std::vector<const AppSpec*> apps = MigratableApps();
  Rng rng(seed ^ 0x1ed9e5ULL);
  const size_t first = rng.NextBelow(apps.size());
  const size_t second = (first + 1 + rng.NextBelow(apps.size() - 1)) %
                        apps.size();
  return {apps[first], apps[second]};
}

void ContentKernels(uint64_t seed, ThreadPool* pool,
                    std::map<std::string, double>& out) {
  const std::vector<const AppSpec*> apps = LedgerApps(seed);
  std::vector<Bytes> images;
  double image_bytes = 0;
  const double gen_s = SecondsPerUnit([&] {
    images.clear();
    for (size_t i = 0; i < apps.size(); ++i) {
      images.push_back(GenerateContent(seed + i, apps[i]->heap_bytes,
                                       apps[i]->heap_compressibility));
    }
    image_bytes = 0;
    for (const Bytes& b : images) {
      image_bytes += static_cast<double>(b.size());
    }
    return image_bytes / kMB;
  });
  out["content.generate_mbps"] = 1 / gen_s;

  uint64_t& sink = g_sink;
  out["hash.fnv1a64_gbps"] = 1 / SecondsPerUnit([&] {
    for (const Bytes& b : images) {
      sink ^= Fnv1a64(ByteSpan(b.data(), b.size()));
    }
    return image_bytes / (kMB * 1024);
  });

  std::vector<Bytes> compressed;
  out["lz.compress_mbps"] = 1 / SecondsPerUnit([&] {
    compressed.clear();
    for (const Bytes& b : images) {
      compressed.push_back(LzCompress(ByteSpan(b.data(), b.size())));
    }
    return image_bytes / kMB;
  });
  out["lz.decompress_mbps"] = 1 / SecondsPerUnit([&] {
    for (const Bytes& c : compressed) {
      auto raw = LzDecompress(ByteSpan(c.data(), c.size()));
      sink ^= raw.ok() ? raw->size() : 0;
    }
    return image_bytes / kMB;
  });
  out["lz.chunks_mbps"] = 1 / SecondsPerUnit([&] {
    for (const Bytes& b : images) {
      sink ^= LzCompressChunks(ByteSpan(b.data(), b.size()), kChunkBytes, pool)
                  .size();
    }
    return image_bytes / kMB;
  });

  // 256 KiB chunks of the images: the chunk cache and its hash.
  std::vector<ByteSpan> chunks;
  for (const Bytes& b : images) {
    for (const ByteSpan s : Slices(b, kChunkBytes)) {
      chunks.push_back(s);
    }
  }
  std::vector<Hash128> hashes;
  out["hash.flux128_gbps"] = 1 / SecondsPerUnit([&] {
    hashes.clear();
    for (const ByteSpan c : chunks) {
      hashes.push_back(FluxHash128(c));
    }
    return image_bytes / (kMB * 1024);
  });
  const double n_chunks = static_cast<double>(chunks.size());
  std::unique_ptr<ChunkCache> cache;
  out["cache.insert_ns"] = 1e9 * SecondsPerUnit([&] {
    cache = std::make_unique<ChunkCache>(uint64_t{1} << 40);
    for (size_t i = 0; i < chunks.size(); ++i) {
      cache->Insert(hashes[i], chunks[i]);
    }
    return n_chunks;
  });
  out["cache.probe_ns"] = 1e9 * SecondsPerUnit([&] {
    for (const Hash128& h : hashes) {
      sink ^= cache->HasValid(h) ? 1 : 0;
    }
    return n_chunks;
  });

  // 16 KiB frames with FEC over the compressed chunk streams.
  FrameStreamOptions frames;
  const Bytes container = LzCompressChunks(
      ByteSpan(images[0].data(), images[0].size()), kChunkBytes, pool);
  const std::vector<ByteSpan> payloads = Slices(container, kChunkBytes);
  const double payload_mb = static_cast<double>(container.size()) / kMB;
  std::vector<std::vector<Bytes>> encoded;
  out["frame.encode_mbps"] = 1 / SecondsPerUnit([&] {
    encoded.clear();
    uint32_t seq = 0;
    uint32_t group = 0;
    for (const ByteSpan p : payloads) {
      encoded.push_back(EncodeFrameStream(p, frames, seq, group));
      seq += static_cast<uint32_t>(DataFrameCount(p.size(), frames));
      group += static_cast<uint32_t>(encoded.back().size());
    }
    return payload_mb;
  });
  out["hash.crc32c_gbps"] = 1 / SecondsPerUnit([&] {
    for (const ByteSpan f : Slices(container, frames.frame_payload_bytes)) {
      sink ^= Crc32c(f);
    }
    return payload_mb / 1024;
  });
  // Reassembly loses one seeded data frame in every other chunk stream and
  // rebuilds it from parity.
  out["frame.assemble_mbps"] = 1 / SecondsPerUnit([&] {
    Rng rng(seed);
    uint32_t seq = 0;
    uint32_t group = 0;
    for (size_t i = 0; i < payloads.size(); ++i) {
      const uint64_t data_frames = DataFrameCount(payloads[i].size(), frames);
      FrameAssembler assembler(payloads[i].size(), frames, seq, group);
      const size_t drop = i % 2 == 0 ? rng.NextBelow(data_frames) : ~size_t{0};
      size_t data_index = 0;
      for (const Bytes& f : encoded[i]) {
        const bool is_data = f[kFrameOffType] ==
                             static_cast<uint8_t>(FrameType::kData);
        if (is_data && data_index++ == drop) {
          continue;
        }
        (void)assembler.Accept(ByteSpan(f.data(), f.size()));
      }
      auto payload = assembler.Finish();
      sink ^= payload.ok() ? payload->size() : 0;
      seq += static_cast<uint32_t>(data_frames);
      group += static_cast<uint32_t>(encoded[i].size());
    }
    return payload_mb;
  });
}

// Scheduler cost per event with the fleet's 512 in-flight events pending:
// each event re-arms itself at a seeded delay.
void SchedulerKernel(uint64_t seed, std::map<std::string, double>& out) {
  constexpr int kPending = 512;
  constexpr uint64_t kEvents = 200'000;
  out["sched.event_ns"] = 1e9 * SecondsPerUnit([&] {
    SimClock clock;
    EventScheduler sched(&clock, 8);
    Rng rng(seed);
    uint64_t fired = 0;
    std::function<void(uint32_t)> arm = [&](uint32_t shard) {
      sched.ScheduleAfter(
          Micros(1 + static_cast<int64_t>(rng.NextBelow(20'000))),
          [&, shard] {
            if (++fired + kPending <= kEvents) {
              arm(shard);
            }
          },
          shard);
    };
    for (int i = 0; i < kPending; ++i) {
      arm(static_cast<uint32_t>(i) % 8);
    }
    sched.DrainUntil(~SimTime{0} >> 1);
    return static_cast<double>(fired);
  });
}

// ContendedFabric cost per flow (StartFlow + NextCompletion + Settle) with
// `in_flight` concurrent flows over the fleet's 1563 APs.
double FabricFlowUs(uint64_t seed, int in_flight) {
  constexpr int kAps = (100'000 + 63) / 64;
  const int flows = in_flight * 8;
  return 1e6 * SecondsPerUnit([&] {
    ContendedFabric fabric;
    for (int a = 0; a < kAps; ++a) {
      fabric.AddAp("ap" + std::to_string(a), 150'000'000);
    }
    Rng rng(seed ^ static_cast<uint64_t>(in_flight));
    auto start = [&](SimTime now) {
      const auto home = static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
      const auto guest =
          static_cast<ContendedFabric::ApId>(rng.NextBelow(kAps));
      const uint64_t bytes =
          ((4ULL << 20) + rng.NextBelow(28ULL << 20)) * 45 / 100;
      fabric.StartFlow(now, bytes, 20'000'000 + rng.NextBelow(20'000'000),
                       home, guest);
    };
    for (int i = 0; i < in_flight; ++i) {
      start(0);
    }
    int done = 0;
    SimTime when = 0;
    std::vector<ContendedFabric::FinishedFlow> finished;
    while (done < flows && fabric.NextCompletion(when, &when)) {
      finished.clear();
      fabric.Settle(when, &finished);
      for (size_t i = 0; i < finished.size(); ++i) {
        ++done;
        start(when);
      }
    }
    return static_cast<double>(done);
  });
}

// CRIA checkpoint and restore of one seeded app, set up the way the
// migration workloads set it up (boot, pair, install, workload).
void CriaKernels(uint64_t seed, std::map<std::string, double>& out) {
  out["cria.checkpoint_ms"] = 0;
  out["cria.restore_ms"] = 0;
  const AppSpec& spec = *LedgerApps(seed)[0];
  World world;
  BootOptions boot;
  boot.framework_scale = 0.02;
  auto a = world.AddDevice("home", Nexus4Profile(), boot);
  auto b = world.AddDevice("guest", Nexus7_2013Profile(), boot);
  if (!a.ok() || !b.ok()) {
    return;
  }
  auto a_agent = std::make_unique<FluxAgent>(**a);
  auto b_agent = std::make_unique<FluxAgent>(**b);
  auto app = std::make_unique<AppInstance>(**a, spec);
  if (!PairDevices(*a_agent, *b_agent).ok() || !app->Install().ok() ||
      !PairApp(*a_agent, *b_agent, spec).ok() || !app->Launch().ok() ||
      !app->RunWorkload(2015 ^ seed).ok()) {
    return;
  }
  // Migration's preparation stage, through the device's public services:
  // background the app, stop its activities, shed GL state.
  const RunningApp running = RunningApp::FromInstance(*app);
  Device& home = **a;
  if (!home.activity_manager().MoveAppToBackground(running.pid).ok()) {
    return;
  }
  home.clock().Advance(home.activity_manager().idle_stop_delay());
  home.activity_manager().RunTaskIdler();
  if (!home.activity_manager()
           .RequestTrimMemory(running.pid, kTrimMemoryComplete)
           .ok() ||
      !home.egl().EglUnload(running.pid).ok()) {
    return;
  }
  Bytes image;
  out["cria.checkpoint_ms"] = 1e3 * SecondsPerUnit([&] {
    auto cut = Cria::Checkpoint(**a, running.pid, *running.thread);
    if (cut.ok()) {
      image = std::move(cut->image);
    }
    return 1.0;
  });
  if (image.empty()) {
    out["cria.checkpoint_ms"] = 0;
    return;
  }
  CriaRestoreOptions options;
  options.jail_root = FluxAgent::PairRoot((*a)->name());
  out["cria.restore_ms"] = 1e3 * SecondsPerUnit([&] {
    auto restored = Cria::Restore(**b, ByteSpan(image.data(), image.size()),
                                  options);
    return restored.ok() ? 1.0 : 0.0;
  });
  app.reset();
  a_agent.reset();
  b_agent.reset();
}

}  // namespace

void RunLedger(uint64_t seed, ThreadPool* pool,
               std::map<std::string, double>& out) {
  ContentKernels(seed, pool, out);
  SchedulerKernel(seed, out);
  out["fabric.flow_us_64"] = FabricFlowUs(seed, 64);
  out["fabric.flow_us_512"] = FabricFlowUs(seed, 512);
  CriaKernels(seed, out);
}

}  // namespace perfbench
