#include "src/flux/migration.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/base/compress.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/synthetic_content.h"
#include "src/base/thread_pool.h"
#include "src/flux/telemetry.h"

namespace flux {

namespace {

constexpr uint32_t kPayloadMagic = 0x464C5558;  // "FLUX"
// Device cores the chunk stream's compress stage fans out over (and the
// width of the shared host compression pool).
constexpr int kCompressCores = 4;
// Pre-copy round budget before it gives up on convergence (forensics).
constexpr int kPrecopyMaxRounds = 8;
// Bandwidth-aware termination: pre-copy freezes once the estimated
// stop-and-copy of the pending chunks drops below this.
constexpr SimDuration kPrecopyStopCopyTarget = Millis(250);
// A pre-copy round must shrink the pending set to at most this fraction of
// the previous round's, or pre-copy declares non-convergence.
constexpr double kPrecopyMinRoundShrink = 0.85;
// Resume handshakes a migration may run before it gives up (forensics,
// then rollback).
constexpr int kResumeMaxAttempts = 8;
// An outage longer than this is treated as unrecoverable.
constexpr SimDuration kResumeWaitMax = Seconds(30);

// Wire bytes of the chunk-manifest handshake: the dedup manifest exchange
// (PROTOCOL.md §7) and the resume offer/ack (§8) share one shape. The home
// side sends a 32-byte header — 16 bytes of framing fields plus the
// 16-byte trace-context field added in manifest v2 (§7.1) — plus one
// 16-byte hash per chunk; the guest answers with an 8-byte header plus a
// one-bit-per-chunk availability bitmap. Framed, each direction is one
// control frame. The context travels whether or not tracing is compiled
// in: it is protocol data, and charging it unconditionally is what keeps
// the three telemetry configs byte-identical.
struct HandshakeBytes {
  uint64_t out = 0;   // manifest / resume offer
  uint64_t back = 0;  // availability bitmap / resume ack
  uint64_t total() const { return out + back; }
};

HandshakeBytes ManifestHandshake(uint64_t chunk_count, bool framed) {
  const uint64_t header = framed ? kFrameHeaderSize : 0;
  return {header + 32 + 16 * chunk_count, header + 8 + (chunk_count + 7) / 8};
}

// CPU time to push `bytes` through a `mbps` pipeline on `device` (MB read
// as MiB; see the stage-cost model in pipeline.h).
SimDuration CpuCost(const Device& device, uint64_t bytes, double mbps) {
  const double factor =
      device.profile().cpu_factor > 0 ? device.profile().cpu_factor : 1.0;
  const double seconds =
      static_cast<double>(bytes) / (mbps * 1024.0 * 1024.0) / factor;
  return FromSecondsF(seconds);
}

// One chunk's work in the per-chunk stage-cost model.
struct ChunkWork {
  uint64_t raw = 0;   // raw image bytes
  uint64_t wire = 0;  // bytes on the air (framed under a profile)
  LzChunkKind kind = LzChunkKind::kLz;
  bool on_wire = true;     // false: post-copy defers it off the foreground
  bool prewarmed = false;  // serialized and applied during pre-copy rounds
};

// Per-chunk serialize → compress → wire → decompress (→ restore) costs,
// shared by the pre-copy rounds (no restore stage: the guest only caches)
// and the chunk-stream transfer. The compress stage fans out over the
// device's cores; a ref chunk never runs the codec (the home side ships its
// hash, the guest copies verified cache content), and a stored chunk paid
// the compress attempt that found it incompressible but decodes with a
// plain copy. The stream handshake latency is charged once, on chunk 0.
std::vector<PipelineStageModel> ChunkStageCosts(
    const std::vector<ChunkWork>& chunks, const Device& home,
    const Device& guest, const WifiNetwork& wifi, const EffectiveLink& link,
    bool restore_stage) {
  std::vector<PipelineStageModel> stages(restore_stage ? 5 : 4);
  const char* names[] = {"serialize", "compress", "wire", "decompress",
                         "restore"};
  for (size_t s = 0; s < stages.size(); ++s) {
    stages[s].name = names[s];
    stages[s].chunk_cost.reserve(chunks.size());
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    const ChunkWork& c = chunks[i];
    stages[0].chunk_cost.push_back(
        c.prewarmed ? 0 : CpuCost(home, c.raw, kSerializeMbps));
    stages[1].chunk_cost.push_back(
        c.kind != LzChunkKind::kRef
            ? CpuCost(home, c.raw, kCompressMbps) / kCompressCores
            : 0);
    SimDuration wire_cost =
        c.on_wire ? wifi.TransferTime(c.wire, link) - link.latency : 0;
    if (i == 0) {
      wire_cost += link.latency;
    }
    stages[2].chunk_cost.push_back(wire_cost);
    stages[3].chunk_cost.push_back(
        c.kind == LzChunkKind::kLz ? CpuCost(guest, c.raw, kDecompressMbps)
                                   : 0);
    if (restore_stage) {
      stages[4].chunk_cost.push_back(
          c.prewarmed ? 0 : CpuCost(guest, c.raw, kRestoreMbps));
    }
  }
  return stages;
}

// Chunk `i` of `image` at the chunk cache's granularity.
ByteSpan ChunkAt(ByteSpan image, size_t i) {
  const uint64_t begin = uint64_t{i} * kChunkCacheChunkBytes;
  return ByteSpan(image.data() + begin,
                  std::min<uint64_t>(kChunkCacheChunkBytes,
                                     image.size() - begin));
}

// Which chunks of `image` the guest cache already holds: every chunk
// hashed, then one HasValid probe per chunk in index order (so the cache
// counters move exactly once per chunk). Serves the stop-and-copy's dedup
// pass and every pre-copy round; ref_chunks[i] != 0 marks a held chunk.
LzChunkDedupPlan PlanChunks(ByteSpan image, ChunkCache& guest_cache) {
  LzChunkDedupPlan plan;
  plan.hashes =
      LzChunkHashes(image, static_cast<uint32_t>(kChunkCacheChunkBytes));
  plan.ref_chunks.reserve(plan.hashes.size());
  for (const Hash128& hash : plan.hashes) {
    plan.ref_chunks.push_back(guest_cache.HasValid(hash) ? 1 : 0);
  }
  return plan;
}

// Seed for per-app deterministic draws: the package name hashed with a
// per-use salt.
uint64_t PackageSeed(const std::string& package, uint64_t salt) {
  return FluxHash64(
      ByteSpan(reinterpret_cast<const uint8_t*>(package.data()),
               package.size()),
      salt);
}

// Every process of the app, main first.
std::vector<Pid> AppPids(const RunningApp& app) {
  return app.all_pids.empty() ? std::vector<Pid>{app.pid} : app.all_pids;
}

// The write load of a prepared-but-still-running app during the pre-copy
// window (DESIGN.md §10): deterministic page-granular heap writes at the
// workload's dirty rate, with hot-region locality — most writes land in
// the head of each anonymous segment, the rest scatter. Page content comes
// from the synthetic generator at the heap's own compressibility, so
// dirtied pages compress like the rest of the image.
class PrecopyWriteLoad {
 public:
  PrecopyWriteLoad(Device& device, const std::vector<Pid>& pids,
                   const AppSpec& spec)
      : device_(device),
        spec_(spec),
        rng_(PackageSeed(spec.package, 0x70726563)) {
    for (const Pid pid : pids) {
      if (SimProcess* process = device.kernel().FindProcess(pid)) {
        for (const MemorySegment& segment :
             process->address_space().segments()) {
          if (segment.kind == SegmentKind::kAnonPrivate &&
              segment.content.size() >= kPage) {
            targets_.push_back({pid, segment.start, segment.content.size()});
            total_bytes_ += segment.content.size();
          }
        }
      }
    }
  }

  // Dirties pages for `elapsed` of app runtime; fractional pages carry
  // over so the rate holds across arbitrary tick slices.
  void Apply(SimDuration elapsed) {
    if (targets_.empty() || spec_.workload.dirty_bytes_per_s == 0 ||
        elapsed <= 0) {
      return;
    }
    budget_ += static_cast<double>(spec_.workload.dirty_bytes_per_s) *
               ToSecondsF(elapsed);
    while (budget_ >= static_cast<double>(kPage)) {
      budget_ -= static_cast<double>(WriteBurst());
    }
  }

 private:
  static constexpr uint64_t kPage = 4096;
  // Cold (non-hot-set) writes land as contiguous runs — allocation sweeps
  // and buffer fills, not uniformly scattered single pages. Uniform
  // scatter would touch nearly every 256 KiB pipeline chunk and no write
  // load could ever converge, which is not how real heaps behave.
  static constexpr uint64_t kColdBurstPages = 16;

  struct Target {
    Pid pid = kInvalidPid;
    uint64_t start = 0;
    uint64_t size = 0;
  };

  // Writes one hot page (9 in 10) or one cold contiguous burst; returns
  // the bytes dirtied.
  uint64_t WriteBurst() {
    // Segment weighted by size.
    uint64_t point = rng_.NextBelow(total_bytes_);
    const Target* target = &targets_.back();
    for (const Target& t : targets_) {
      if (point < t.size) {
        target = &t;
        break;
      }
      point -= t.size;
    }
    const uint64_t pages = target->size / kPage;
    if (pages == 0) {
      return kPage;
    }
    SimProcess* process = device_.kernel().FindProcess(target->pid);
    if (process == nullptr) {
      return kPage;
    }
    const double hot =
        std::clamp(spec_.workload.dirty_hot_fraction, 0.001, 1.0);
    const uint64_t hot_pages = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(pages) * hot));
    uint64_t page = 0;
    uint64_t run = 1;
    if (rng_.NextDouble() < 0.9) {
      page = rng_.NextBelow(hot_pages);
    } else {
      page = rng_.NextBelow(pages);
      run = std::min(kColdBurstPages, pages - page);
    }
    const Bytes content = GenerateContent(rng_.NextU64(), run * kPage,
                                          spec_.heap_compressibility);
    (void)process->address_space().Write(
        target->start, page * kPage,
        ByteSpan(content.data(), content.size()));
    return run * kPage;
  }

  Device& device_;
  const AppSpec& spec_;
  Rng rng_;
  std::vector<Target> targets_;
  uint64_t total_bytes_ = 0;
  double budget_ = 0;
};

}  // namespace

RunningApp RunningApp::FromInstance(AppInstance& app) {
  RunningApp running;
  running.device = &app.device();
  running.pid = app.pid();
  running.all_pids = app.all_pids();
  running.uid = app.uid();
  running.package = app.spec().package;
  running.display_name = app.spec().display_name;
  running.thread = app.shared_thread();
  return running;
}

SimDuration MigrationReport::Total() const {
  return prepare.duration() + checkpoint.duration() + transfer.duration() +
         restore.duration() + reintegrate.duration() + background_tail;
}

SimDuration MigrationReport::UserPerceived() const {
  // Preparation and checkpoint overlap with the user picking the migration
  // target from the menu (§4).
  return transfer.duration() + restore.duration() + reintegrate.duration();
}

SimDuration MigrationReport::PerceivedExcludingTransfer() const {
  return restore.duration() + reintegrate.duration();
}

MigrationManager::MigrationManager(FluxAgent& home, FluxAgent& guest,
                                   MigrationConfig config)
    : home_(home), guest_(guest), config_(config) {
  if (config_.precopy || config_.resume) {
    // Both ride on the content-addressed cache: pre-copy rounds warm the
    // guest cache so the stop-and-copy ships refs, and a resume acks
    // against the chunk manifest.
    config_.chunk_dedup = true;
  }
  if (config_.chunk_dedup) {
    // The manifest handshake and ref chunks exist only on the chunk stream.
    config_.pipelined = true;
  }
  frames_.fec = config_.fec;
}

uint64_t MigrationManager::Charged(uint64_t bytes) const {
  return config_.net_profile.IsClean() ? bytes
                                       : FramedWireBytes(bytes, frames_);
}

MigrationManager::~MigrationManager() = default;

ThreadPool* MigrationManager::CompressionPool() {
  if (config_.compress_pool != nullptr) {
    return config_.compress_pool;
  }
  // Process-shared pool, one per width: a fleet of managers compresses on
  // the same workers instead of spawning pool-per-device threads. The
  // encoded output is a pure function of the input and pool width, so
  // sharing changes no bytes.
  return ThreadPool::Shared(kCompressCores);
}

Status MigrationManager::Prepare(const RunningApp& app,
                                 MigrationReport& report) {
  Device& device = *app.device;
  SimClock& clock = device.clock();
  ScopedTimer timer(clock, report.prepare);

  // 1. Background the app: resumed activities pause, then the task idler
  //    stops them and the WindowManager frees their surfaces.
  FLUX_RETURN_IF_ERROR(device.activity_manager().MoveAppToBackground(app.pid));
  clock.Advance(device.activity_manager().idle_stop_delay());
  device.activity_manager().RunTaskIdler();

  // 2. Trim memory at the highest severity: flush renderer caches, destroy
  //    hardware resources and GL contexts (§3.3).
  FLUX_RETURN_IF_ERROR(device.activity_manager().RequestTrimMemory(
      app.pid, kTrimMemoryComplete));

  // 3. Flux's eglUnload: remove the vendor GL library from every process of
  //    the app (helpers rarely hold one, but the invariant is per-process).
  for (const Pid pid : AppPids(app)) {
    FLUX_RETURN_IF_ERROR(device.egl().EglUnload(pid));
  }

  device.context().SpendCpu(kPrepareFixed);
  return OkStatus();
}

Result<MigrationManager::BuiltPayload> MigrationManager::BuildPayload(
    const RunningApp& app, MigrationReport& report) {
  Device& device = *app.device;
  ScopedTimer timer(device.clock(), report.checkpoint);

  // Recording stops with the app frozen; the log travels with the image.
  home_.recorder().PauseRecording(app.pid);
  const CallLog* log = home_.recorder().LogFor(app.pid);
  if (log == nullptr) {
    return FailedPrecondition("app is not managed by the home Flux agent");
  }

  const std::vector<Pid> pids = AppPids(app);
  FLUX_ASSIGN_OR_RETURN(
      CriaCheckpointResult cria,
      Cria::CheckpointTree(device, pids, *app.thread, config_.trace));
  report.cria = cria.stats;
  report.image_raw_bytes = cria.image.size();
  // Digest of the raw image as checkpointed; the guest recomputes it after
  // reassembly so tests can assert end-to-end byte identity. Host-side
  // work only — no simulated time.
  report.image_hash =
      FluxHash128(ByteSpan(cria.image.data(), cria.image.size()));
  if (!config_.pipelined) {
    // Pipelined mode charges serialize (and compress) per chunk from the
    // overlapped stage schedule in TransferPipelined, not up front.
    device.context().SpendCpu(
        CpuCost(device, cria.image.size(), kSerializeMbps));
  }

  ArchiveWriter payload;
  payload.PutU32(kPayloadMagic);
  payload.PutString(app.package);

  // Hardware snapshot for Adaptive Replay's diffing.
  ArchiveWriter hw;
  HardwareSnapshot::FromContext(device.context()).Serialize(hw);
  payload.PutSection(hw);

  // The pruned call log.
  ArchiveWriter log_section;
  log->Serialize(log_section);
  report.log_bytes = log_section.size();
  payload.PutSection(log_section);

  // The CRIA image, compressed for transfer. Pipelined mode splits it into
  // fixed-size chunks — each an independent stream, compressed across host
  // threads — and charges the serialize/compress CPU from the overlapped
  // stage schedule (TransferPipelined) instead of up front here.
  if (config_.pipelined) {
    PipelineStats& stats = report.pipeline;
    stats.enabled = true;
    stats.chunk_bytes = kChunkCacheChunkBytes;
    const ByteSpan image_span(cria.image.data(), cria.image.size());
    LzChunkDedupPlan plan;
    if (config_.chunk_dedup) {
      // Content-addressed delta transfer: ask the guest's cache which
      // chunks it already holds (the manifest bytes and round trip are
      // charged to the wire in TransferPipelined), and ship hits as
      // 16-byte refs. Every chunk also lands in the home cache so the
      // return hop can dedup against this checkpoint.
      plan = PlanChunks(image_span, guest_.chunk_cache());
      plan.stored_fallback = true;
      DedupStats& dedup = report.dedup;
      dedup.enabled = true;
      dedup.chunk_count = static_cast<uint32_t>(plan.hashes.size());
      dedup.manifest_wire_bytes =
          ManifestHandshake(plan.hashes.size(), /*framed=*/false).total();
      for (size_t i = 0; i < plan.hashes.size(); ++i) {
        const ByteSpan chunk = ChunkAt(image_span, i);
        if (plan.ref_chunks[i] != 0) {
          ++dedup.ref_chunks;
          dedup.ref_raw_bytes += chunk.size();
        }
        home_.chunk_cache().Insert(plan.hashes[i], chunk);
      }
    }
    LzChunkStreams streams = LzCompressChunkStreamsDeduped(
        image_span, static_cast<uint32_t>(stats.chunk_bytes),
        CompressionPool(), plan);
    BuiltPayload built;
    if (config_.resume) {
      // Chunk-granular delivery needs the raw chunks at transfer time.
      built.raw_image = std::move(cria.image);
    }
    Bytes().swap(cria.image);  // the streams carry the content now
    stats.chunk_count = static_cast<uint32_t>(streams.chunks.size());
    stats.chunk_kind = streams.kinds;
    stats.chunk_wire_bytes.reserve(streams.chunks.size());
    for (size_t i = 0; i < streams.chunks.size(); ++i) {
      stats.chunk_wire_bytes.push_back(streams.ChunkWireBytes(i));
      if (streams.KindOf(i) == LzChunkKind::kStored) {
        ++report.dedup.stored_chunks;
      }
    }
    if (!stats.chunk_wire_bytes.empty()) {
      stats.chunk_wire_bytes[0] += streams.HeaderBytes();
    }
    report.image_compressed_bytes = streams.ContainerSize();
    payload.PutBool(true);
    // Frame the container straight into the payload, releasing each chunk
    // buffer as it lands: peak memory stays ~1x the compressed image.
    const size_t token = payload.BeginBytes();
    LzFrameChunkContainer(
        streams, [&payload](ByteSpan part) { payload.AppendRaw(part); },
        /*release_chunks=*/true);
    payload.EndBytes(token);
    built.bytes = payload.TakeData();
    built.manifest = std::move(plan.hashes);
    return built;
  }

  if (config_.compress_image) {
    report.compress.begin = device.clock().now();
    Bytes compressed = LzCompress(
        ByteSpan(cria.image.data(), cria.image.size()));
    device.context().SpendCpu(
        CpuCost(device, report.image_raw_bytes, kCompressMbps));
    report.compress.end = device.clock().now();
    // The raw image is dead once compressed; free it before the payload
    // append so peak checkpoint memory stays ~1x the image, not ~3x.
    Bytes().swap(cria.image);
    payload.PutBool(true);
    payload.PutBytes(ByteSpan(compressed.data(), compressed.size()));
    report.image_compressed_bytes = compressed.size();
  } else {
    report.compress.begin = device.clock().now();
    report.compress.end = report.compress.begin;
    payload.PutBool(false);
    payload.PutBytes(ByteSpan(cria.image.data(), cria.image.size()));
    report.image_compressed_bytes = report.image_raw_bytes;
    Bytes().swap(cria.image);
  }
  return BuiltPayload{payload.TakeData(), {}, {}};
}

Result<MigrationManager::BuiltPayload> MigrationManager::BuildPayloadPrecopy(
    const RunningApp& app, const AppSpec& spec, MigrationReport& report) {
  Device& device = *app.device;
  PrecopyStats& pre = report.precopy;
  pre.enabled = true;
  pre.window.begin = device.clock().now();
  const std::vector<Pid> pids = AppPids(app);
  FLUX_ASSIGN_OR_RETURN(const std::string stop_reason,
                        RunPrecopyRounds(app, spec, pids, report));

  // Freeze: the app stops mutating; everything after this is the
  // stop-and-copy the user can perceive.
  pre.converged = stop_reason.empty();
  pre.window.end = device.clock().now();
  if (!pre.converged) {
    // Not fatal — the stop-and-copy still runs, just longer than the
    // target — but it is a policy failure worth evidence: freeze both
    // flight-recorder rings and the counters for post-hoc analysis.
    FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyAbortedConvergence,
                     1);
    last_forensics_ = BuildForensics(
        "precopy",
        Internal("pre-copy did not converge: " + stop_reason),
        /*rolled_back=*/false, ReplayAuditJournal{}, report);
    report.forensics = last_forensics_;
  }

  // The final cut. A write can race the freeze (the test hook models
  // one): if anything dirtied after the cut, the image is stale — re-cut
  // instead of silently dropping the bytes. The mutator is off, so the
  // loop terminates as soon as the racing writer goes quiet.
  BuiltPayload payload;
  for (int cut = 0;; ++cut) {
    const uint64_t final_epoch = Cria::BeginDirtyEpoch(device, pids);
    report.pipeline = PipelineStats{};
    report.dedup = DedupStats{};
    FLUX_ASSIGN_OR_RETURN(payload, BuildPayload(app, report));
    if (cut == 0 && config_.precopy_after_final_cut) {
      config_.precopy_after_final_cut();
    }
    if (Cria::DirtyBytesSince(device, pids, final_epoch) == 0) {
      break;
    }
    ++pre.final_recuts;
    FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyFinalRecuts, 1);
    if (cut >= 4) {
      return Internal("pre-copy final cut kept racing writes");
    }
  }
  // The warm-up rounds live inside the checkpoint interval (the user is
  // still at the target menu; §4): fold the window back in. The end gets
  // re-stamped by TransferPipelined at the pipeline-fill boundary.
  report.checkpoint.begin = pre.window.begin;

  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyRounds,
                   pre.rounds.size());
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyWireBytes,
                   pre.wire_bytes);
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyDirtyBytes,
                   pre.dirty_bytes);
  uint64_t resent = 0;
  for (const PrecopyRound& r : pre.rounds) {
    if (r.index > 0) {
      resent += r.chunks_sent;
    }
  }
  FLUX_TRACE_COUNT(config_.trace, trace_names::kPrecopyChunksResent, resent);
  return payload;
}

Result<std::string> MigrationManager::RunPrecopyRounds(
    const RunningApp& app, const AppSpec& spec, const std::vector<Pid>& pids,
    MigrationReport& report) {
  Device& device = *app.device;
  Device& guest_device = guest_.device();
  SimClock& clock = device.clock();
  WifiNetwork& wifi = device.wifi();
  PrecopyStats& pre = report.precopy;

  // The app is prepared (backgrounded, trimmed, GL-free) but its processes
  // keep running until the freeze: this write load dirties the heap at the
  // workload's rate from every AdvanceWithTicks slice, until this function
  // returns by any path.
  PrecopyWriteLoad load(device, pids, spec);
  precopy_mutator_ = [&load](SimDuration elapsed) { load.Apply(elapsed); };
  struct MutatorReset {
    MigrationManager* manager;
    ~MutatorReset() { manager->precopy_mutator_ = nullptr; }
  } mutator_reset{this};

  const EffectiveLink link = wifi.LinkBetween(device.profile().radio,
                                              guest_device.profile().radio);
  ChunkCache& guest_cache = guest_.chunk_cache();
  ChunkCache& home_cache = home_.chunk_cache();

  Bytes current;             // the image as of the latest cut
  uint64_t epoch = 0;        // dirty epoch opened at that cut
  uint64_t pending_prev = 0; // pending raw bytes at the previous cut

  for (int round = 0; round < kPrecopyMaxRounds; ++round) {
    PrecopyRound r;
    r.index = round;
    r.interval.begin = clock.now();
    const SimTime t0 = clock.now();
    auto end_round = [&] {
      r.interval.end = clock.now();
      pre.rounds.push_back(r);
    };

    // Cut: a full checkpoint on round 0, a dirty-segment delta applied to
    // the running image after — falling back to a full cut if the address
    // space changed shape since the base cut.
    const uint64_t prev_epoch = epoch;
    epoch = Cria::BeginDirtyEpoch(device, pids);
    bool full_cut = round == 0;
    if (!full_cut) {
      FLUX_ASSIGN_OR_RETURN(
          CriaIncrementalResult delta,
          Cria::CheckpointIncremental(device, pids, prev_epoch,
                                      config_.trace));
      auto patched = Cria::ApplyIncremental(
          ByteSpan(current.data(), current.size()),
          ByteSpan(delta.delta.data(), delta.delta.size()));
      if (patched.ok()) {
        current = patched.TakeValue();
      } else if (patched.status().code() == StatusCode::kUnsupported) {
        full_cut = true;
      } else {
        return patched.status();
      }
    }
    if (full_cut) {
      FLUX_ASSIGN_OR_RETURN(
          CriaCheckpointResult full,
          Cria::CheckpointTree(device, pids, *app.thread, config_.trace));
      current = std::move(full.image);
    }

    // Plan: which chunks of this cut the guest cache is missing, and what
    // they would cost. Dirty tracking is segment-granular, but the wire
    // works in content-addressed chunks — a re-written page only re-ships
    // its chunk if the bytes actually changed, so the pending set (not
    // DirtyBytesSince) is what termination must reason about.
    const ByteSpan image_span(current.data(), current.size());
    const LzChunkDedupPlan plan = PlanChunks(image_span, guest_cache);
    r.chunk_count = static_cast<uint32_t>(plan.hashes.size());
    // Each missing chunk's index and wire size: compressed, with the dedup
    // container's stored fallback for incompressible chunks.
    std::vector<std::pair<size_t, uint64_t>> missing;
    for (size_t i = 0; i < plan.hashes.size(); ++i) {
      if (plan.ref_chunks[i] == 0) {
        const ByteSpan chunk = ChunkAt(image_span, i);
        missing.emplace_back(
            i, std::min<uint64_t>(LzCompress(chunk).size(), chunk.size()));
        r.pending_raw_bytes += chunk.size();
      }
    }
    r.pending_chunks = static_cast<uint32_t>(missing.size());
    pre.dirty_bytes += r.pending_raw_bytes;

    // Bandwidth-aware termination: what would freezing at this cut cost?
    // The pending chunks pay the full serialize → wire → restore path in
    // the stop-and-copy; everything else rides the cache as refs. Under a
    // hostile profile round traffic is charged framed (arithmetic; the
    // per-frame codec runs only in the stop-and-copy).
    uint64_t pending_wire = 0;
    for (const auto& [index, wire] : missing) {
      pending_wire += Charged(wire);
    }
    r.est_stop_copy =
        CpuCost(device, r.pending_raw_bytes, kSerializeMbps) +
        wifi.TransferTime(pending_wire, link) +
        CpuCost(guest_device, r.pending_raw_bytes, kRestoreMbps);
    FLUX_EVENT(&device.flight_recorder(), flight_events::kSubMigration,
               flight_events::kMigrationPrecopyRound, EventSeverity::kInfo,
               static_cast<uint64_t>(round), r.pending_raw_bytes);
    if (r.est_stop_copy <= kPrecopyStopCopyTarget) {
      // Freeze here: this cut is a probe, nothing streams, the pending
      // chunks ship in the stop-and-copy itself.
      end_round();
      return std::string();
    }
    if (round > 0 && pending_prev > 0 &&
        static_cast<double>(r.pending_raw_bytes) >
            kPrecopyMinRoundShrink * static_cast<double>(pending_prev)) {
      end_round();
      return StrFormat(
          "pending set stopped shrinking (%llu -> %llu bytes in round %d)",
          static_cast<unsigned long long>(pending_prev),
          static_cast<unsigned long long>(r.pending_raw_bytes), round);
    }
    pending_prev = r.pending_raw_bytes;

    // Stream the missing chunks, warming both caches for the final
    // stop-and-copy's dedup pass. Round 0 streams the whole image; later
    // rounds only the chunks the writes actually changed.
    std::vector<ChunkWork> work;
    work.reserve(missing.size());
    for (const auto& [index, wire] : missing) {
      const ByteSpan chunk = ChunkAt(image_span, index);
      home_cache.Insert(plan.hashes[index], chunk);
      if (!config_.resume) {
        // Resume mode defers the guest insert to each chunk's wire finish
        // below — chunk-granular delivery is what a mid-round outage
        // resumes against.
        guest_cache.Insert(plan.hashes[index], chunk);
      }
      r.raw_bytes_sent += chunk.size();
      r.wire_bytes += Charged(wire);
      work.push_back({.raw = chunk.size(),
                      .wire = Charged(wire),
                      .kind = wire < chunk.size() ? LzChunkKind::kLz
                                                  : LzChunkKind::kStored});
    }
    r.chunks_sent = static_cast<uint32_t>(missing.size());

    // Pace the simulated clock along a serialize → compress → wire →
    // decompress schedule (no restore stage: the guest only caches). The
    // app keeps mutating while this advances — that is the race pre-copy
    // iterates against.
    const PipelinePlan schedule = SchedulePipeline(ChunkStageCosts(
        work, device, guest_device, wifi, link, /*restore_stage=*/false));
    if (!config_.resume) {
      if (!AdvanceWithTicks(t0 + schedule.makespan, &wifi)) {
        return Unavailable("network lost during pre-copy round");
      }
    } else {
      // Chunk-granular round pacing: advance to each chunk's wire-stage
      // finish, deliver it into the guest cache, and ride out outages
      // with the resume handshake — the round continues where it stopped
      // instead of aborting the migration.
      constexpr size_t kWireStage = 2;
      ChunkStream stream{wifi, link, plan.hashes,
                         "network lost during pre-copy round"};
      for (size_t k = 0; k < missing.size(); ++k) {
        const auto& [index, wire] = missing[k];
        FLUX_RETURN_IF_ERROR(AdvanceStream(
            stream, t0 + schedule.finish[kWireStage][k], Charged(wire),
            report));
        guest_cache.Insert(plan.hashes[index], ChunkAt(image_span, index));
      }
      r.wire_bytes += stream.extra_wire;
      AdvanceWithTicks(t0 + schedule.makespan + stream.extra);
    }
    wifi.AccountTraffic(r.wire_bytes, link);
    pre.wire_bytes += r.wire_bytes;
    end_round();
  }
  return StrFormat("round budget (%d) exhausted", kPrecopyMaxRounds);
}

Result<AppDataSync> MigrationManager::SyncAppData(const RunningApp& app,
                                                  const AppSpec& spec,
                                                  MigrationReport& report) {
  Device& home_device = *app.device;
  Device& guest_device = guest_.device();
  ScopedTimer timer(home_device.clock(), report.data_sync);

  // Verify (and if needed refresh) the paired APK (§3.1). This is a real
  // protocol exchange: the clock advances here, for exactly these bytes.
  FLUX_ASSIGN_OR_RETURN(
      uint64_t apk_wire,
      VerifyPairedApk(home_, guest_, spec, config_.trace));

  // Delta-sync the app's data directories into the pairing root.
  const std::string pair_root = FluxAgent::PairRoot(home_device.name());
  SyncOptions options;
  options.compress = true;
  uint64_t data_wire = 0;
  for (const std::string& dir : {"/data/data/" + app.package,
                                 "/sdcard/Android/data/" + app.package}) {
    if (home_device.filesystem().Exists(dir)) {
      FLUX_ASSIGN_OR_RETURN(
          SyncStats sync,
          SyncTree(home_device.filesystem(), dir, guest_device.filesystem(),
                   pair_root + dir, options));
      data_wire += sync.WireBytes();
    }
  }
  return AppDataSync{apk_wire, data_wire};
}

bool MigrationManager::AdvanceWithTicks(SimTime target, WifiNetwork* watch) {
  Device& home_device = home_.device();
  Device& guest_device = guest_.device();
  SimClock& clock = home_device.clock();
  while (clock.now() < target) {
    if (watch != nullptr && !watch->UpAt(clock.now())) {
      return false;
    }
    const SimDuration step =
        std::min<SimDuration>(kTransferTick, target - clock.now());
    clock.Advance(step);
    home_device.wifi().CountTick(step);
    if (precopy_mutator_) {
      // Pre-copy rounds only: the app is still running at home and keeps
      // dirtying its heap while chunks stream.
      precopy_mutator_(step);
    }
    home_device.Tick();
    guest_device.Tick();
    if (config_.telemetry_poll) {
      // Read-only sampler poll (TimeSeriesSampler::Poll) — observes
      // counter state mid-flight without touching simulated state.
      config_.telemetry_poll();
    }
  }
  return watch == nullptr || watch->UpAt(clock.now());
}

Status MigrationManager::AdvanceStream(ChunkStream& stream, SimTime target,
                                       uint64_t resend_wire,
                                       MigrationReport& report) {
  while (!AdvanceWithTicks(target + stream.extra, &stream.wifi)) {
    FLUX_RETURN_IF_ERROR(ResumeAfterOutage(stream, resend_wire, report));
  }
  return OkStatus();
}

Status MigrationManager::ResumeAfterOutage(ChunkStream& stream,
                                           uint64_t resend_wire,
                                           MigrationReport& report) {
  SimClock& clock = home_.device().clock();
  WifiNetwork& wifi = stream.wifi;
  const EffectiveLink& link = stream.link;
  const char* fail_msg = stream.fail_msg;
  ResumeStats& res = report.resume;
  ++res.interruptions;
  if (!config_.resume) {
    return Unavailable(fail_msg);
  }
  if (static_cast<int>(res.attempts) >= kResumeMaxAttempts) {
    return Unavailable(StrFormat("resume attempt budget (%d) exhausted",
                                 kResumeMaxAttempts))
        .WithCause(Unavailable(fail_msg));
  }
  const SimTime down_at = clock.now();
  SimTime recovery = 0;
  if (!wifi.NextUpAt(down_at, &recovery)) {
    return Unavailable("link lost permanently; nothing to resume to")
        .WithCause(Unavailable(fail_msg));
  }
  if (recovery - down_at > static_cast<SimTime>(kResumeWaitMax)) {
    return Unavailable(
               StrFormat("outage outlasts resume_wait_max (%.1f s down)",
                         ToSecondsF(static_cast<SimDuration>(recovery -
                                                             down_at))))
        .WithCause(Unavailable(fail_msg));
  }
  res.enabled = true;
  TimedInterval stall;
  stall.begin = down_at;
  // Wait out the outage; both devices keep ticking (and a pre-copy app
  // keeps dirtying its heap — the stall is part of the round's race).
  AdvanceWithTicks(recovery);
  ++res.attempts;

  // The handshake (PROTOCOL.md §8): one kResumeOffer frame carrying the
  // manifest out, one kResumeAck frame carrying the availability bitmap
  // back. The offer header carries the 16-byte trace-context field (§7.1),
  // so the resumed transfer re-joins the same causal trace on the guest.
  const HandshakeBytes hs =
      ManifestHandshake(stream.manifest.size(), /*framed=*/true);
  AdvanceWithTicks(clock.now() + wifi.TransferTime(hs.out, link) +
                   wifi.TransferTime(hs.back, link));
  res.handshake_wire_bytes += hs.total();

  // The ack: chunks the guest's cache already holds — everything delivered
  // before the outage plus anything warm from earlier hops — never travel
  // again. Only the chunk that was in flight re-sends, in full.
  uint32_t acked = 0;
  for (const Hash128& hash : stream.manifest) {
    if (guest_.chunk_cache().HasValid(hash)) {
      ++acked;
    }
  }
  res.chunks_acked += acked;
  res.lost_bytes += resend_wire;
  res.retransmit_bytes += resend_wire;
  stall.end = clock.now();
  res.stalls.push_back(stall);
  res.stalled += stall.end - stall.begin;
  FLUX_EVENT(&home_.device().flight_recorder(), flight_events::kSubMigration,
             flight_events::kMigrationResume, EventSeverity::kWarning,
             res.attempts, acked);

  stream.extra_wire += hs.total() + resend_wire;
  stream.extra += (stall.end - stall.begin) +
                  (resend_wire > 0
                       ? wifi.TransferTime(resend_wire, link) - link.latency
                       : 0);
  return OkStatus();
}

Status MigrationManager::Transfer(const RunningApp& app, const AppSpec& spec,
                                  uint64_t payload_bytes,
                                  MigrationReport& report) {
  Device& home_device = *app.device;
  SimClock& clock = home_device.clock();
  WifiNetwork& wifi = home_device.wifi();
  ScopedTimer timer(clock, report.transfer);

  if (!wifi.UpAt(clock.now())) {
    return Unavailable("network unreachable during migration transfer");
  }
  FLUX_ASSIGN_OR_RETURN(AppDataSync sync, SyncAppData(app, spec, report));
  report.data_sync_bytes = sync.total();
  report.total_wire_bytes = report.data_sync_bytes + payload_bytes;
  if (!config_.net_profile.IsClean()) {
    // Serial path, mean-field model: framing overhead plus expected-loss
    // retransmissions as deterministic arithmetic (the pipelined path runs
    // the real per-frame codec; DESIGN.md §13). Jitter and rate dips are
    // folded into the delivery rate, not drawn per frame.
    const double delivery =
        1.0 - std::min(0.9, config_.net_profile.MeanLossRate());
    report.total_wire_bytes = static_cast<uint64_t>(std::ceil(
        static_cast<double>(Charged(report.total_wire_bytes)) / delivery));
    report.frame_wire.enabled = true;
    report.frame_wire.wire_bytes = report.total_wire_bytes;
  }

  const EffectiveLink link = wifi.LinkBetween(
      home_device.profile().radio, guest_.device().profile().radio);
  // The world keeps moving while bytes are in flight: advance in slices,
  // ticking both devices so task idlers run and due alarms fire at the
  // right simulated time.
  if (!AdvanceWithTicks(
          clock.now() + wifi.TransferTime(report.total_wire_bytes, link),
          &wifi)) {
    return Unavailable("network lost mid-transfer; payload incomplete");
  }
  wifi.AccountTraffic(report.total_wire_bytes, link);
  return OkStatus();
}

Result<SimTime> MigrationManager::TransferPipelined(
    const RunningApp& app, const AppSpec& spec, ByteSpan payload,
    const std::vector<Hash128>& manifest, Bytes raw_image,
    MigrationReport& report) {
  Device& home_device = *app.device;
  Device& guest_device = guest_.device();
  SimClock& clock = home_device.clock();
  WifiNetwork& wifi = home_device.wifi();
  PipelineStats& stats = report.pipeline;

  // Hostile-network path (DESIGN.md §13): a non-clean profile frames every
  // wire byte and runs the real frame codec per chunk; resume additionally
  // rides out recoverable outages. Both off (the default) leaves this
  // function byte-identical to the baseline schedule — Charged is the
  // identity and the codec never runs.
  const bool shaped = !config_.net_profile.IsClean();
  if (config_.resume) {
    report.resume.enabled = true;
  }

  // The pipeline's time origin: checkpoint work (serialize + compress) was
  // deferred by BuildPayload and is charged from here via the schedule, so
  // the checkpoint interval stamped there collapses to ~0 and gets
  // re-stamped below.
  SimTime t0 = clock.now();
  if (!wifi.UpAt(t0)) {
    // Resume mode treats a recoverable outage at entry like one mid-stream:
    // wait it out, then start the pipeline at recovery.
    SimTime recovery = 0;
    if (!config_.resume || !wifi.NextUpAt(t0, &recovery) ||
        recovery - t0 > static_cast<SimTime>(kResumeWaitMax)) {
      return Unavailable("network unreachable during migration transfer");
    }
    AdvanceWithTicks(recovery);
    t0 = clock.now();
  }

  // APK verification + data sync run first on the wire, concurrent with
  // home-side serialization of the early chunks: they are the wire stage's
  // initial busy period.
  FLUX_ASSIGN_OR_RETURN(AppDataSync sync, SyncAppData(app, spec, report));
  report.data_sync_bytes = sync.total();
  const SimDuration sync_elapsed = clock.now() - t0;

  const EffectiveLink link = wifi.LinkBetween(home_device.profile().radio,
                                              guest_device.profile().radio);

  const size_t count = stats.chunk_count;
  // Post-copy composition: only the priority prefix of chunks streams in
  // the foreground; deferred chunks cost nothing on the foreground wire
  // (they stream in the background; demand paging serves faults).
  size_t foreground_chunks = count;
  if (config_.post_copy && count > 0) {
    const double fraction =
        std::clamp(config_.post_copy_priority_fraction, 0.05, 1.0);
    foreground_chunks = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(static_cast<double>(count) * fraction)));
    foreground_chunks = std::min(foreground_chunks, count);
  }
  // Each chunk's work for the stage-cost model, charged framed under a
  // profile (chunks per chunk, the non-image prefix below as one stream).
  std::vector<ChunkWork> work(count);
  uint64_t container_bytes = 0;
  uint64_t container_charged = 0;
  for (size_t i = 0; i < count; ++i) {
    ChunkWork& c = work[i];
    c.raw = std::min<uint64_t>(
        stats.chunk_bytes,
        report.image_raw_bytes - uint64_t{i} * stats.chunk_bytes);
    c.wire = Charged(stats.chunk_wire_bytes[i]);
    if (i < stats.chunk_kind.size()) {
      c.kind = static_cast<LzChunkKind>(stats.chunk_kind[i]);
    }
    c.on_wire = i < foreground_chunks;
    // Pre-copy: a ref chunk was serialized during the warm-up rounds (the
    // dirty bitmap proves it unchanged since), and the guest applied its
    // cached content then too — both endpoints skip it in the stop-and-copy.
    c.prewarmed = config_.precopy && c.kind == LzChunkKind::kRef;
    container_bytes += stats.chunk_wire_bytes[i];
    container_charged += c.wire;
    if (!c.on_wire) {
      report.deferred_bytes += c.wire;
    }
  }
  // Payload bytes outside the image container (magic, package name, hw +
  // log sections) ship with the data sync, ahead of the chunk stream.
  const uint64_t prefix_payload = payload.size() - container_bytes;
  // The manifest handshake (hashes out, availability bitmap back) is real
  // wire traffic even though its latency mostly hides under the data sync;
  // under a profile it is two control frames (kManifest + kManifestAck).
  const HandshakeBytes handshake =
      ManifestHandshake(report.dedup.chunk_count, shaped);
  const uint64_t foreground_wire =
      report.data_sync_bytes + Charged(prefix_payload) + container_charged -
      report.deferred_bytes + (report.dedup.enabled ? handshake.total() : 0);

  std::vector<PipelineStageModel> stages = ChunkStageCosts(
      work, home_device, guest_device, wifi, link, /*restore_stage=*/true);
  // The wire is busy before chunk 0 can stream: the sync protocol itself
  // (already on the clock — `sync_elapsed` covers the APK verification
  // exchange), then the data-sync bytes + non-image payload prefix still
  // owed to the stream. Only the data-dir bytes are owed: the APK bytes
  // rode the verification exchange inside sync_elapsed, so charging
  // sync.total() here would bill them twice (the pre-trace phase timing
  // did exactly that — pinned by PipelineTest.ApkResyncChargedOnce). The
  // stream handshake latency is charged once, on chunk 0.
  SimDuration wire_offset =
      sync_elapsed +
      wifi.TransferTime(Charged(sync.data_wire_bytes + prefix_payload), link) -
      link.latency;
  if (report.dedup.enabled) {
    // The manifest handshake: hashes go out as soon as the checkpoint is
    // hashed, and the home streams data chunks optimistically while the
    // availability bitmap is in flight — only a hop that actually encodes
    // ref chunks had to wait for the reply. Even then the round trip
    // overlaps the data sync on the same link and the home-side fill of
    // chunk 0 (hashing finishes before compression begins), so it delays
    // the stream only when it outlasts both.
    report.dedup.manifest_rtt = wifi.TransferTime(handshake.out, link) +
                                wifi.TransferTime(handshake.back, link);
    const SimDuration fill0 =
        count > 0 ? stages[0].chunk_cost[0] + stages[1].chunk_cost[0] : 0;
    if (report.dedup.ref_chunks > 0 && report.dedup.manifest_rtt > fill0) {
      wire_offset = std::max(wire_offset, report.dedup.manifest_rtt);
    }
  }
  stages[2].initial_offset = wire_offset;

  const PipelinePlan plan = SchedulePipeline(stages);

  stats.makespan = plan.makespan;
  stats.stages = plan.stages;
  // What the strictly serial staging would have cost for the same work:
  // full-image serialize + single-core compress, one monolithic transfer,
  // then decompress + restore — the Figure 13 sum.
  stats.serial_estimate =
      CpuCost(home_device, report.image_raw_bytes, kSerializeMbps) +
      CpuCost(home_device, report.image_raw_bytes, kCompressMbps) +
      sync_elapsed + wifi.TransferTime(foreground_wire, link) +
      CpuCost(guest_device, report.image_raw_bytes, kDecompressMbps) +
      CpuCost(guest_device, report.image_raw_bytes, kRestoreMbps);
  stats.saved = stats.serial_estimate > stats.makespan
                    ? stats.serial_estimate - stats.makespan
                    : 0;

  // Now walk the simulated clock along the schedule. The checkpoint
  // interval (home-side fill) ends when chunk 0 is compressed and ready to
  // ship; everything after that is perceived as transfer.
  constexpr size_t kCompress = 1;
  constexpr size_t kWire = 2;
  const SimDuration fill =
      count > 0 ? plan.stages[kCompress].first_finish : 0;
  AdvanceWithTicks(t0 + fill);
  report.checkpoint.end = clock.now();
  report.transfer.begin = clock.now();

  // The compress sub-phase, re-derived from the schedule: chunk 0's
  // compress start through the last chunk's compress finish. It extends
  // past checkpoint.end into the transfer window — compression overlaps
  // the wire by design; it is a contained detail, not a sixth timeline
  // phase (Total() stays the sum of the five + tail).
  if (count > 0 && plan.stages[kCompress].busy > 0) {
    report.compress.begin = t0 + plan.finish[kCompress][0] -
                            stages[kCompress].chunk_cost[0];
    report.compress.end = t0 + plan.stages[kCompress].finish;
  } else {
    report.compress.begin = report.checkpoint.end;
    report.compress.end = report.checkpoint.end;
  }

#if FLUX_TRACE_ENABLED
  // Per-chunk stage spans on "pipeline/<stage>" tracks, straight from the
  // schedule (zero-cost chunks — deduped refs, deferred wire — skipped).
  if (Tracer* trace = config_.trace; trace != nullptr) {
    for (size_t s = 0; s < stages.size(); ++s) {
      const std::string track =
          std::string(trace_names::kTrackPipelinePrefix) + stages[s].name;
      // Per-chunk stage latencies also feed the pipeline.<stage>_us
      // histograms (the name matches the kHistPipeline* constants).
      TraceHistogram* hist =
          trace->histogram("pipeline." + stages[s].name + "_us");
      for (size_t i = 0; i < count; ++i) {
        const SimDuration cost = stages[s].chunk_cost[i];
        if (cost <= 0) {
          continue;
        }
        hist->Record(static_cast<uint64_t>(cost));
        const SimTime end = t0 + plan.finish[s][i];
        trace->EmitSpanOnTrack("chunk " + std::to_string(i), track,
                               end - cost, end);
      }
    }
  }
#endif  // FLUX_TRACE_ENABLED
  FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationChunksTotal,
                   stats.chunk_count);
  FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationChunksDeduped,
                   report.dedup.ref_chunks);

  // Stream the chunks: advance to each wire-stage finish, watching for
  // outages at every tick boundary (AdvanceStream). With resume off an
  // outage fails the transfer and the caller rolls back; otherwise the
  // in-flight bytes re-send and the rest of the schedule shifts by the
  // stall.
  ChunkStream stream{wifi, link, manifest,
                     "network lost mid-transfer; payload incomplete"};
  FlightRecorder* home_rec = &home_device.flight_recorder();
  FrameWireStats& fw = report.frame_wire;
  fw.enabled = fw.enabled || shaped;
  std::optional<LinkShaper> shaper;
  if (shaped) {
    shaper.emplace(config_.net_profile,
                   PackageSeed(app.package, 0x6672616d) ^ config_.net_seed);
  }
  FLUX_RETURN_IF_ERROR(AdvanceStream(
      stream, t0 + stages[kWire].initial_offset + link.latency,
      /*resend_wire=*/0, report));
  uint64_t chunk_off = prefix_payload;
  uint32_t next_seq = 0;
  uint32_t next_group = 0;
  for (size_t i = 0; i < foreground_chunks; ++i) {
    const uint64_t chunk_len = stats.chunk_wire_bytes[i];
    uint64_t in_flight = work[i].wire;
    if (shaper) {
      // The real codec over this chunk's payload bytes: encode, lose,
      // CRC-reject corrupt arrivals, FEC-reconstruct, retransmit — and
      // the reassembly is checked byte-for-byte against what was sent.
      FLUX_ASSIGN_OR_RETURN(
          const ChunkTransmission tx,
          TransmitFramedChunk(payload.subspan(chunk_off, chunk_len), *shaper,
                              frames_, next_seq, next_group, home_rec));
      next_seq = tx.next_seq;
      next_group = tx.next_group;
      fw.frames_sent += tx.frames_sent;
      fw.data_frames += tx.data_frames;
      fw.parity_frames += tx.parity_frames;
      fw.frames_lost += tx.frames_lost;
      fw.crc_errors += tx.crc_errors;
      fw.frames_recovered += tx.frames_recovered;
      fw.frames_retransmitted += tx.frames_retransmitted;
      fw.wire_bytes += tx.wire_bytes;
      fw.lost_bytes += tx.lost_bytes;
      fw.retransmit_bytes += tx.retransmit_bytes;
      stream.extra_wire += tx.retransmit_bytes;
      in_flight = tx.wire_bytes;
      // Time beyond the loss-free framed plan: retransmission rounds,
      // this chunk's jitter draw, and a rate dip stretching its window.
      SimDuration chunk_extra = shaper->NextJitter();
      if (tx.retransmit_bytes > 0) {
        chunk_extra +=
            wifi.TransferTime(tx.retransmit_bytes, link) - link.latency;
      }
      const double dip = shaper->NextRateFactor();
      if (dip < 1.0) {
        const SimDuration base =
            wifi.TransferTime(tx.wire_bytes, link) - link.latency;
        chunk_extra += FromSecondsF(ToSecondsF(base) * (1.0 / dip - 1.0));
      }
      stream.extra += chunk_extra;
    }
    FLUX_RETURN_IF_ERROR(AdvanceStream(stream, t0 + plan.finish[kWire][i],
                                       in_flight, report));
    if (!raw_image.empty()) {
      // Resume mode's chunk-granular delivery: the guest caches each chunk
      // as its wire window closes, so a resume ack covers exactly the
      // delivered prefix (plus anything warm from earlier hops).
      guest_.chunk_cache().Insert(
          manifest[i],
          ChunkAt(ByteSpan(raw_image.data(), raw_image.size()), i));
    }
    chunk_off += chunk_len;
  }
  report.total_wire_bytes = foreground_wire + stream.extra_wire;
  wifi.AccountTraffic(report.total_wire_bytes, link);
  report.transfer.end = clock.now();

  if (report.frame_wire.enabled) {
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesSent,
                     report.frame_wire.frames_sent);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesLost,
                     report.frame_wire.frames_lost);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFrameCrcErrors,
                     report.frame_wire.crc_errors);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesRecovered,
                     report.frame_wire.frames_recovered);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kNetFramesRetransmitted,
                     report.frame_wire.frames_retransmitted);
  }
  if (report.resume.enabled) {
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeAttempts,
                     report.resume.attempts);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeChunksAcked,
                     report.resume.chunks_acked);
    FLUX_TRACE_COUNT(config_.trace,
                     trace_names::kMigrationResumeRetransmitBytes,
                     report.resume.retransmit_bytes);
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationResumeLostBytes,
                     report.resume.lost_bytes);
  }

  // The guest-side drain (decompress + restore-apply beyond the last wire
  // finish) is charged by RestoreOnGuest up to this deadline, shifted by
  // whatever the hostile path added.
  return t0 + plan.makespan + stream.extra;
}

Result<CriaRestoredApp> MigrationManager::RestoreOnGuest(
    ByteSpan payload, SimTime restore_deadline, MigrationReport& report,
    CallLog& log_out, HardwareSnapshot& hw_out) {
  Device& guest_device = guest_.device();
  ScopedTimer timer(guest_device.clock(), report.restore);

  ArchiveReader reader(payload);
  uint32_t magic = 0;
  FLUX_RETURN_IF_ERROR(reader.GetU32(magic));
  if (magic != kPayloadMagic) {
    return Corrupt("not a Flux migration payload");
  }
  std::string package;
  FLUX_RETURN_IF_ERROR(reader.GetString(package));

  ArchiveReader hw_section({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(hw_section));
  FLUX_ASSIGN_OR_RETURN(hw_out, HardwareSnapshot::Deserialize(hw_section));

  ArchiveReader log_section({});
  FLUX_RETURN_IF_ERROR(reader.GetSection(log_section));
  FLUX_ASSIGN_OR_RETURN(log_out, CallLog::Deserialize(log_section));

  bool compressed = false;
  ByteSpan image_view;
  FLUX_RETURN_IF_ERROR(reader.GetBool(compressed));
  // Zero-copy view into the payload: the image is only staged once more if
  // it needs decompressing.
  FLUX_RETURN_IF_ERROR(reader.GetBytesView(image_view));
  Bytes image_bytes;
  ByteSpan image = image_view;
  if (compressed) {
    if (LzIsChunkedStream(image_view)) {
      LzChunkRefResolver resolver;
      if (config_.chunk_dedup) {
        // Ref chunks resolve from this device's cache; Fetch re-verifies
        // content against the hash, so a poisoned entry reads as a miss
        // and the decode fails loudly instead of corrupting the restore.
        resolver = [this](const Hash128& hash, Bytes& out) {
          return guest_.chunk_cache().Fetch(hash, out);
        };
      }
      FLUX_ASSIGN_OR_RETURN(Bytes raw,
                            LzDecompressChunks(image_view, resolver));
      image_bytes = std::move(raw);
    } else {
      FLUX_ASSIGN_OR_RETURN(Bytes raw, LzDecompress(image_view));
      image_bytes = std::move(raw);
    }
    if (!config_.pipelined) {
      guest_device.context().SpendCpu(
          CpuCost(guest_device, image_bytes.size(), kDecompressMbps));
    }
    image = ByteSpan(image_bytes.data(), image_bytes.size());
  }
  if (!config_.pipelined) {
    guest_device.context().SpendCpu(
        CpuCost(guest_device, image.size(), kRestoreMbps));
  }
  report.restored_image_hash = FluxHash128(image);
  if (config_.chunk_dedup && LzIsChunkedStream(image_view)) {
    // Feed the reassembled image back into this device's cache at the
    // container's own chunk granularity: the next hop (either direction)
    // dedups against exactly these chunks. Content is verified — the
    // container digest already matched.
    if (auto info = LzPeekChunkContainer(image_view);
        info.ok() && info.value().chunk_size > 0) {
      const uint64_t chunk = info.value().chunk_size;
      ChunkCache& cache = guest_.chunk_cache();
      for (uint64_t begin = 0; begin < image.size(); begin += chunk) {
        const uint64_t len = std::min<uint64_t>(chunk, image.size() - begin);
        const ByteSpan slice(image.data() + begin, len);
        cache.Insert(FluxHash128(slice), slice);
      }
    }
  }

  CriaRestoreOptions options;
  options.jail_root = FluxAgent::PairRoot(hw_out.device_name);
  options.trace = config_.trace;
  auto restored = Cria::Restore(guest_device, image, options);
  if (restored.ok()) {
    // Pipelined: decompress + restore-apply overlapped with the transfer;
    // only the pipeline drain past the last wire byte lands here.
    AdvanceWithTicks(restore_deadline);
  }
  return restored;
}

Status MigrationManager::Reintegrate(CriaRestoredApp& restored,
                                     const CallLog& log,
                                     const HardwareSnapshot& home_hw,
                                     MigrationReport& report,
                                     ReplayAuditJournal& journal) {
  Device& guest_device = guest_.device();
  ScopedTimer timer(guest_device.clock(), report.reintegrate);

  // The guest agent manages the app from now on; replay's own calls must
  // not be re-recorded (§3.1).
  guest_.Manage(restored.pid, restored.package);
  guest_.recorder().PauseRecording(restored.pid);

  {
    ScopedTimer replay_timer(guest_device.clock(), report.replay_window);
    FLUX_ASSIGN_OR_RETURN(
        report.replay,
        guest_.replayer().Replay(log, restored, home_hw, &journal));
  }

  // The log keeps living on the guest so the app can migrate again.
  guest_.recorder().InstallLog(restored.pid, log);

  // Connectivity: the app sees a loss and a new connection (§3.1).
  Intent lost;
  lost.action = "android.net.conn.CONNECTIVITY_CHANGE";
  lost.extras["connected"] = "false";
  guest_device.activity_manager().BroadcastIntent(lost);
  Intent regained;
  regained.action = "android.net.conn.CONNECTIVITY_CHANGE";
  regained.extras["connected"] = "true";
  regained.extras["network"] =
      guest_device.context().connectivity.network_name;
  guest_device.activity_manager().BroadcastIntent(regained);

  guest_.recorder().ResumeRecording(restored.pid);

  // Foreground: surfaces are recreated at the guest's resolution and the
  // first draw reinitializes graphics via conditional initialization.
  FLUX_RETURN_IF_ERROR(
      guest_device.activity_manager().BringAppToForeground(restored.pid));
  for (const std::string& token : restored.activity_tokens) {
    FLUX_RETURN_IF_ERROR(restored.thread->DrawFrame(token));
  }
  guest_device.context().SpendCpu(kReintegrateFixed);
  return OkStatus();
}

Result<MigrationReport> MigrationManager::Migrate(const RunningApp& app,
                                                  const AppSpec& spec) {
  MigrationReport report;
  report.app = app.display_name.empty() ? app.package : app.display_name;
  report.home_device = home_.device().name();
  report.guest_device = guest_.device().name();

  // Fan the tracer out to every layer the migration touches (agents cover
  // recorder/replayer/chunk-cache/binder). Null is valid and clears it.
  home_.set_tracer(config_.trace);
  guest_.set_tracer(config_.trace);
  home_.device().wifi().set_tracer(config_.trace);
  guest_.device().wifi().set_tracer(config_.trace);
  // The shared network has no device of its own; its outage/transfer events
  // land in the home ring for the duration of this migration.
  home_.device().wifi().set_flight_recorder(
      &home_.device().flight_recorder());
  FlightRecorder* home_rec = &home_.device().flight_recorder();

  // Causal context (telemetry.h): adopt the coordinator's, or mint our own
  // for standalone runs. Both recorders and the tracer stamp it into every
  // event/span until Migrate returns; the guard clears it on every exit
  // path so the next migration on these devices starts clean.
  ctx_ = config_.trace_context.valid()
             ? config_.trace_context
             : MintTraceContext(app.package, report.home_device,
                                report.guest_device,
                                home_.device().clock().now());
  report.trace_context = ctx_;
  home_.device().flight_recorder().set_context(ctx_);
  guest_.device().flight_recorder().set_context(ctx_);
  if (config_.trace != nullptr) {
    config_.trace->set_context(ctx_);
  }
  struct ContextGuard {
    MigrationManager* manager;
    ~ContextGuard() {
      manager->home_.device().flight_recorder().clear_context();
      manager->guest_.device().flight_recorder().clear_context();
      if (manager->config_.trace != nullptr) {
        manager->config_.trace->clear_context();
      }
      manager->ctx_ = TraceContext{};
    }
  } context_guard{this};

  if (!config_.net_profile.IsClean()) {
    home_.device().wifi().ApplyProfile(
        config_.net_profile,
        PackageSeed(app.package, 0x6f757467u) ^ config_.net_seed);
  }

  if (app.device != &home_.device()) {
    return InvalidArgument("app is not running on the home agent's device");
  }
  if (!home_.IsPairedWith(guest_.device().name())) {
    return FailedPrecondition("devices are not paired");
  }
  FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                    flight_events::kMigrationStart, EventSeverity::kInfo,
                    static_cast<uint64_t>(app.pid), 0,
                    app.package + " -> " + report.guest_device);

  auto refuse = [&](std::string reason) -> MigrationReport {
    report.refusal_reason = std::move(reason);
    FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                      flight_events::kMigrationRefused,
                      EventSeverity::kWarning,
                      static_cast<uint64_t>(app.pid), 0,
                      report.refusal_reason);
    return report;
  };

  // API-level compatibility (§3.1).
  const PackageInfo* info =
      home_.device().package_manager().Find(app.package);
  if (info != nullptr &&
      info->min_api_level > guest_.device().context().api_level) {
    return refuse(StrFormat("app requires API level %d but guest runs %d",
                            info->min_api_level,
                            guest_.device().context().api_level));
  }

  // Up-front refusals (§3.4): these leave the app running untouched.
  if (!config_.enable_multiprocess &&
      home_.device().kernel().ProcessesOfUid(app.uid).size() > 1) {
    return refuse("multi-process apps are not supported");
  }
  if (home_.device().egl().HasPreservedContext(app.pid)) {
    return refuse(
        "app requests its EGL context persist in the background "
        "(setPreserveEGLContextOnPause)");
  }
  CriaCheckOptions check;
  check.allow_multiprocess = config_.enable_multiprocess;
  if (Status migratable =
          Cria::CheckMigratable(home_.device(), app.pid, check);
      !migratable.ok()) {
    return refuse(std::string(migratable.message()));
  }

  // Filled by Reintegrate's replay pass; rolled into the forensic report
  // whether the migration aborts or merely limps (partial replay failure).
  ReplayAuditJournal journal;

  // From here on the app is frozen at home; any failure before the guest
  // copy is live must roll the home copy back to a usable state. `phase`
  // names the pipeline stage that failed, for the forensic report.
  auto rollback = [&](const char* phase, const Status& cause) -> Status {
    // A restore that failed partway may have left wrapper processes on the
    // guest; tear them down so the guest is clean for the next attempt.
    if (const PackageInfo* wrapper =
            guest_.device().package_manager().Find(app.package)) {
      for (const Pid orphan :
           guest_.device().kernel().ProcessesOfUid(wrapper->uid)) {
        (void)guest_.device().KillAppProcess(orphan);
      }
    }
    FLUX_TRACE_COUNT(config_.trace, trace_names::kMigrationRollbacks, 1);
    home_.recorder().ResumeRecording(app.pid);
    Status fg = app.device->activity_manager().BringAppToForeground(app.pid);
    if (!fg.ok()) {
      // Double fault: the rollback itself failed and the app is in limbo —
      // the worst state this pipeline can reach. Counted and journaled so
      // a fleet can alert on it.
      FLUX_TRACE_COUNT(config_.trace,
                       trace_names::kMigrationRollbackFailures, 1);
      FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                        flight_events::kMigrationRollbackFailed,
                        EventSeverity::kError,
                        static_cast<uint64_t>(app.pid), 0, fg.ToString());
      FLUX_LOG(kError, "migration")
          << "rollback foreground failed: " << fg.ToString();
    }
    FLUX_EVENT_DETAIL(home_rec, flight_events::kSubMigration,
                      flight_events::kMigrationRollback,
                      EventSeverity::kError, static_cast<uint64_t>(app.pid),
                      0, phase);
    FLUX_LOG(kWarning, "migration")
        << report.app << ": migration aborted (" << cause.ToString()
        << "); app resumed on " << report.home_device;
    // Freeze the evidence only after the rollback ran, so its own events
    // (including a double fault) are in the snapshot.
    last_forensics_ =
        BuildForensics(phase, cause, /*rolled_back=*/true, std::move(journal),
                       report);
    return cause.WithCause(
        Internal(StrFormat("migration of %s from %s to %s aborted during "
                           "%s; app rolled back to %s",
                           report.app.c_str(), report.home_device.c_str(),
                           report.guest_device.c_str(), phase,
                           report.home_device.c_str())));
  };

  if (Status prepared = Prepare(app, report); !prepared.ok()) {
    return rollback("prepare", prepared);
  }
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationPrepared, EventSeverity::kInfo,
             static_cast<uint64_t>(app.pid), 0);
  auto built = config_.precopy ? BuildPayloadPrecopy(app, spec, report)
                                : BuildPayload(app, report);
  if (!built.ok()) {
    return rollback("checkpoint", built.status());
  }
  BuiltPayload built_payload = built.TakeValue();
  Bytes& payload = built_payload.bytes;
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationCheckpointed, EventSeverity::kInfo,
             payload.size(), report.image_raw_bytes);
  if (config_.payload_fault) {
    // Test hook: corrupt the payload between checkpoint and transfer, as a
    // wire or storage fault would.
    config_.payload_fault(payload);
  }

  SimTime restore_deadline = 0;  // serial: nothing overlaps the restore
  if (config_.pipelined) {
    // Chunked streaming: post-copy deferral happens per chunk inside the
    // schedule, and the transfer is paced chunk by chunk.
    auto transferred = TransferPipelined(
        app, spec, ByteSpan(payload.data(), payload.size()),
        built_payload.manifest, std::move(built_payload.raw_image), report);
    if (!transferred.ok()) {
      return rollback("transfer", transferred.status());
    }
    restore_deadline = transferred.value();
  } else {
    // Post-copy (§4's proposed optimization): only the hot working set of
    // the image is pre-paged before restore; the rest streams while the app
    // is already usable on the guest.
    uint64_t foreground_bytes = payload.size();
    if (config_.post_copy) {
      const double fraction =
          std::clamp(config_.post_copy_priority_fraction, 0.05, 1.0);
      foreground_bytes = static_cast<uint64_t>(
          static_cast<double>(payload.size()) * fraction);
      report.deferred_bytes = payload.size() - foreground_bytes;
    }
    if (Status transferred = Transfer(app, spec, foreground_bytes, report);
        !transferred.ok()) {
      return rollback("transfer", transferred);
    }
  }
  if (config_.precopy) {
    // The warm-up traffic already hit the wire round by round; fold it
    // into the migration's byte accounting (Figure 15).
    report.total_wire_bytes += report.precopy.wire_bytes;
  }
  FLUX_EVENT(home_rec, flight_events::kSubMigration,
             flight_events::kMigrationTransferred, EventSeverity::kInfo,
             report.total_wire_bytes, 0);

  CallLog log;
  HardwareSnapshot home_hw;
  auto restored_result =
      RestoreOnGuest(ByteSpan(payload.data(), payload.size()),
                     restore_deadline, report, log, home_hw);
  if (!restored_result.ok()) {
    return rollback("restore", restored_result.status());
  }
  CriaRestoredApp restored = restored_result.TakeValue();
  FLUX_EVENT(&guest_.device().flight_recorder(), flight_events::kSubMigration,
             flight_events::kMigrationRestored, EventSeverity::kInfo,
             static_cast<uint64_t>(restored.pid), 0);
  if (Status reintegrated =
          Reintegrate(restored, log, home_hw, report, journal);
      !reintegrated.ok()) {
    // The replay journal covers however far replay got; cross-check it
    // against the frozen log before the evidence is bundled.
    CrossCheckJournal(journal, log);
    return rollback("reintegrate", reintegrated);
  }
  CrossCheckJournal(journal, log);

  if (report.deferred_bytes > 0) {
    // The deferred bytes streamed while restore + reintegration ran; only
    // the tail that outlasts those stages delays completion, and none of it
    // delays the user (demand paging serves faults from the stream).
    Device& home_device = *app.device;
    const EffectiveLink link = home_device.wifi().LinkBetween(
        home_device.profile().radio, guest_.device().profile().radio);
    report.background_transfer =
        home_device.wifi().TransferTime(report.deferred_bytes, link);
    const SimDuration overlap =
        report.restore.duration() + report.reintegrate.duration();
    report.background_tail =
        std::max<SimDuration>(0, report.background_transfer - overlap);
    home_device.clock().Advance(report.background_tail);
    report.total_wire_bytes += report.deferred_bytes;
  }

  // The home copy is gone; its processes and tracking state are torn down.
  home_.Unmanage(app.pid);
  for (const Pid pid : AppPids(app)) {
    FLUX_RETURN_IF_ERROR(home_.device().KillAppProcess(pid));
  }

  report.success = true;
  report.migrated.device = &guest_.device();
  report.migrated.pid = restored.pid;
  report.migrated.all_pids = restored.all_pids;
  report.migrated.uid = restored.uid;
  report.migrated.package = restored.package;
  report.migrated.display_name = report.app;
  report.migrated.thread = restored.thread;
  FLUX_EVENT(&guest_.device().flight_recorder(), flight_events::kSubMigration,
             flight_events::kMigrationComplete, EventSeverity::kInfo,
             static_cast<uint64_t>(restored.pid), report.total_wire_bytes);
  if (report.replay.failed > 0) {
    // The migration survived, but not unscathed: some replayed calls
    // failed on the guest. Attach the evidence to the report so the caller
    // can diagnose without re-running.
    last_forensics_ = BuildForensics(
        "replay",
        Internal(StrFormat("%d of %d replayed calls failed on %s",
                           report.replay.failed,
                           static_cast<int>(journal.entries.size()),
                           report.guest_device.c_str())),
        /*rolled_back=*/false, std::move(journal), report);
    report.forensics = last_forensics_;
  }
  FLUX_LOG(kInfo, "migration")
      << report.app << ": " << report.home_device << " -> "
      << report.guest_device << " in "
      << StrFormat("%.2f s", ToSecondsF(report.Total())) << " ("
      << report.total_wire_bytes / 1024 << " KB transferred)";
  // The perceived-unavailability distribution the SLO catalog's p99
  // objective watches (telemetry.h).
  FLUX_TRACE_OBSERVE(config_.trace, trace_names::kHistMigrationPerceived,
                     static_cast<uint64_t>(report.UserPerceived()));
  EmitTraceSpans(report);
  return report;
}

std::shared_ptr<ForensicReport> MigrationManager::BuildForensics(
    const char* phase, const Status& cause, bool rolled_back,
    ReplayAuditJournal journal, const MigrationReport& report) {
  auto forensics = std::make_shared<ForensicReport>();
  forensics->app = report.app;
  forensics->home_device = report.home_device;
  forensics->guest_device = report.guest_device;
  forensics->failure_phase = phase;
  forensics->captured_at = home_.device().clock().now();
  forensics->rolled_back = rolled_back;
  forensics->trace_context = ctx_;
  forensics->cause_chain = FlattenCauseChain(cause);
  forensics->home_events = home_.device().flight_recorder().Snapshot();
  forensics->guest_events = guest_.device().flight_recorder().Snapshot();
#if FLUX_TRACE_ENABLED
  if (config_.trace != nullptr) {
    forensics->counters = config_.trace->Counters();
    forensics->open_spans = config_.trace->OpenSpanNames();
  }
#endif
  forensics->replay_journal = std::move(journal);
  return forensics;
}

void MigrationManager::EmitTraceSpans(const MigrationReport& report) {
#if FLUX_TRACE_ENABLED
  Tracer* trace = config_.trace;
  if (trace == nullptr) {
    return;
  }
  // The five timeline phases nest under the total on the caller's thread
  // track (they tile it, so containment is exact). Sub-phases that overlap
  // a timeline phase only partially (pipelined compress runs into the
  // transfer window) go on the detail track.
  namespace names = trace_names;
  const SimTime total_end = report.reintegrate.end + report.background_tail;
  trace->EmitSpan(names::kSpanTotal, report.prepare.begin, total_end);
  trace->EmitSpan(names::kSpanPrepare, report.prepare.begin,
                  report.prepare.end);
  trace->EmitSpan(names::kSpanCheckpoint, report.checkpoint.begin,
                  report.checkpoint.end);
  trace->EmitSpan(names::kSpanTransfer, report.transfer.begin,
                  report.transfer.end);
  trace->EmitSpan(names::kSpanRestore, report.restore.begin,
                  report.restore.end);
  trace->EmitSpan(names::kSpanReintegrate, report.reintegrate.begin,
                  report.reintegrate.end);
  if (report.background_tail > 0) {
    trace->EmitSpan(names::kSpanBackgroundTail, report.reintegrate.end,
                    total_end);
  }
  trace->EmitSpanOnTrack(names::kSpanCompress, names::kTrackDetail,
                         report.compress.begin, report.compress.end);
  trace->EmitSpanOnTrack(names::kSpanReplay, names::kTrackDetail,
                         report.replay_window.begin, report.replay_window.end);
  trace->EmitSpanOnTrack(names::kSpanDataSync, names::kTrackDetail,
                         report.data_sync.begin, report.data_sync.end);
  for (const TimedInterval& stall : report.resume.stalls) {
    trace->EmitSpanOnTrack(names::kSpanResume, names::kTrackDetail,
                           stall.begin, stall.end);
  }
  if (report.precopy.enabled) {
    trace->EmitSpanOnTrack(names::kSpanPrecopyWindow, names::kTrackDetail,
                           report.precopy.window.begin,
                           report.precopy.window.end);
    for (const PrecopyRound& round : report.precopy.rounds) {
      trace->EmitSpanOnTrack(std::string(names::kSpanPrecopyRoundPrefix) +
                                 std::to_string(round.index),
                             names::kTrackPrecopy, round.interval.begin,
                             round.interval.end);
    }
  }
#else
  (void)report;
#endif  // FLUX_TRACE_ENABLED
}

}  // namespace flux
