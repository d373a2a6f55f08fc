// The migration pipeline (§3.1): Migration Out + transfer + Migration In.
//
// Stages, matching Figure 13's breakdown:
//  1. preparation  — reject unmigratable apps (multi-process, preserved EGL
//                    context, external Binder connections), background the
//                    app, wait out the task idler (activities -> Stopped,
//                    surfaces freed), trim memory at the highest severity,
//                    eglUnload the vendor library;
//  2. checkpoint   — CRIA checkpoint of the process + the pruned call log +
//                    a hardware snapshot, compressed;
//  3. transfer     — APK verification, data-directory delta sync, and the
//                    compressed image over WiFi;
//  4. restore      — decompress + CRIA restore into the wrapper app's PID
//                    namespace, service handles re-bound on the guest;
//  5. reintegration— Adaptive Replay of the log, connectivity loss/regain
//                    events, bring-to-foreground and redraw at the guest's
//                    display size.
#ifndef FLUX_SRC_FLUX_MIGRATION_H_
#define FLUX_SRC_FLUX_MIGRATION_H_

#include <functional>
#include <memory>
#include <string>

#include "src/apps/app_instance.h"
#include "src/base/hash.h"
#include "src/cria/cria.h"
#include "src/flux/flux_agent.h"
#include "src/flux/forensics.h"
#include "src/flux/pairing.h"
#include "src/flux/pipeline.h"
#include "src/flux/trace.h"
#include "src/net/network.h"

namespace flux {

class ThreadPool;

// During long transfers the world keeps moving: the clock advances in
// slices of at most kTransferTick, ticking both devices (task idlers, due
// alarms) at each boundary.
inline constexpr SimDuration kTransferTick = Millis(250);

struct MigrationConfig {
  // Fig. 12 ablation, serial path only: ship the CRIA image uncompressed.
  // The chunk stream (pipelined and every mode built on it) always
  // compresses.
  bool compress_image = true;
  // Extension beyond the paper's prototype (§3.4 future work): migrate
  // multi-process apps by checkpointing the whole process tree.
  bool enable_multiprocess = false;
  // Extension: post-copy memory transfer with adaptive pre-paging (the
  // optimization §4 proposes). Only the hot fraction of the image moves
  // before restore; the rest streams in the background, overlapped with the
  // restore and reintegration stages.
  bool post_copy = false;
  // Fraction of the compressed image pre-paged up front when post_copy is
  // on (the adaptively chosen working set).
  double post_copy_priority_fraction = 0.25;
  // Extension (the §4 overlap, taken further): chunked, pipelined
  // migration. The CRIA image is split into kChunkCacheChunkBytes chunks;
  // serialize → compress (home) → wire → decompress → restore-apply
  // (guest) overlap per chunk, and chunk compression fans out over
  // kCompressCores device cores (and, for real wall-clock wins, host
  // threads). Off by default so the paper-baseline figures are unchanged.
  bool pipelined = false;
  // Worker pool for chunk compression. Null (the default) uses the lazily
  // created process-shared pool of width kCompressCores
  // (ThreadPool::Shared); tests and embedders may inject their own. The
  // pool must outlive the manager.
  ThreadPool* compress_pool = nullptr;
  // Extension: content-addressed delta transfer on the chunk stream
  // (implies pipelined; the constructor forces it on). Every raw image
  // chunk is hashed; a manifest handshake asks the guest which hashes its
  // ChunkCache already holds, and hits ship as 16-byte refs instead of
  // compressed bytes. Warm re-migrations (A->B->A) shrink to the chunks
  // that actually changed. Off by default: baseline payloads and figures
  // stay bit-for-bit unchanged.
  bool chunk_dedup = false;
  // Extension (DESIGN.md §10): iterative pre-copy. After preparation the
  // full image streams into the guest's chunk cache while the app keeps
  // running (and dirtying memory at its workload's rate); converging
  // rounds re-send only the chunks covering segments dirtied since the
  // previous cut; then a short stop-and-copy ships the final image, in
  // which every warmed chunk travels as a 16-byte ref. Implies pipelined
  // and chunk_dedup (the constructor forces both on). Off by default:
  // every baseline figure stays bit-for-bit unchanged.
  bool precopy = false;
  // Test hook: runs once, right after the final stop-and-copy cut (models
  // a write racing the freeze; exercises the re-cut path that keeps such
  // writes from being silently dropped).
  std::function<void()> precopy_after_final_cut;
  // Extension (DESIGN.md §13): hostile-network modeling. A non-clean
  // profile frames every wire byte (src/net/frame.h, PROTOCOL.md) and runs
  // the real frame codec per chunk under the profile's loss, jitter and
  // rate-dip processes. The default (clean) profile leaves every transfer
  // path byte-identical to the baseline model — framing overhead is only
  // ever charged on non-clean profiles.
  NetProfile net_profile;
  // Decorrelates the per-migration loss/jitter draws and the recurring
  // outage phase across sweep points (XORed into the app-derived seed).
  uint64_t net_seed = 0;
  // FEC parity in the frame stream when a profile is active (PROTOCOL.md
  // §5); frames keep FrameStreamOptions' default shape (16 KiB payloads,
  // 8 data frames per parity).
  bool fec = true;
  // Extension (DESIGN.md §13): chunk-resumable transfers. An interrupted
  // migration waits out a recoverable outage (up to 30 s), re-offers the
  // chunk manifest (PROTOCOL.md §8), the guest acks what its cache already
  // holds, and only un-acked chunks retransmit. Implies pipelined +
  // chunk_dedup (the constructor forces both on). Off by default:
  // interruption still aborts to rollback, and every baseline figure stays
  // bit-for-bit unchanged.
  bool resume = false;
  // Fault injection for tests: mutates the payload after checkpoint,
  // before transfer (models wire corruption; exercises restore rollback).
  std::function<void(Bytes&)> payload_fault;
  // Observability (OBSERVABILITY.md): when set, the migration emits phase
  // spans and counters into this tracer, and propagates it to both agents
  // (recorder, replayer, chunk cache, binder) and the network for the
  // duration of the manager's use. Null = no tracing (the default; the
  // instrumented sites cost nothing beyond a pointer test).
  Tracer* trace = nullptr;
  // Causal identity for this migration (telemetry.h). The coordinator
  // mints one at admission and passes it down; when left zero, Migrate()
  // mints its own deterministically from (package, home, guest, sim time).
  // Carried in the manifest/resume handshakes (PROTOCOL.md §7.1), stamped
  // into every span and flight event on both devices, and reported in
  // MigrationReport::trace_context. Not gated on tracing: the wire cost
  // of the handshake context field is charged whether or not a tracer is
  // attached, keeping the three-config byte identity.
  TraceContext trace_context;
  // Telemetry poll hook (TimeSeriesSampler::Poll): invoked at every
  // transfer-tick boundary while the migration advances the clock, so a
  // sampler sees mid-flight counter state on the single-migration path
  // (fleet runs drive sampling from the event scheduler instead). The
  // hook must be read-only with respect to simulated state — it runs on
  // the simulation path and anything it mutates breaks byte identity.
  std::function<void()> telemetry_poll;
};

// Wire-byte split of the pre-image data sync (SyncAppData). The APK
// verification advances the clock itself (it is a real protocol exchange);
// the data-directory delta sync only reports bytes, which the transfer
// paths charge to the wire afterwards. Keeping the two apart is what lets
// the pipelined schedule charge each exactly once.
struct AppDataSync {
  uint64_t apk_wire_bytes = 0;   // clock already advanced for these
  uint64_t data_wire_bytes = 0;  // still to be charged to the wire
  uint64_t total() const { return apk_wire_bytes + data_wire_bytes; }
};

// Delta-transfer accounting for one migration (chunk_dedup mode).
struct DedupStats {
  bool enabled = false;
  uint32_t chunk_count = 0;
  uint32_t ref_chunks = 0;     // shipped as 16-byte cache references
  uint32_t stored_chunks = 0;  // incompressible; shipped raw
  uint64_t ref_raw_bytes = 0;  // raw image bytes the guest cache covered
  // Hash manifest + availability bitmap, charged to the wire ahead of the
  // first image chunk (overlapped with the data-dir sync).
  uint64_t manifest_wire_bytes = 0;
  SimDuration manifest_rtt = 0;
};

// Frame-codec accounting for one migration under a non-clean NetProfile
// (every chunk runs encode -> lose -> FEC-reconstruct -> retransmit; byte
// counts include frame headers). All zero on the clean profile.
struct FrameWireStats {
  bool enabled = false;
  uint64_t frames_sent = 0;
  uint64_t data_frames = 0;
  uint64_t parity_frames = 0;
  uint64_t frames_lost = 0;
  uint64_t crc_errors = 0;        // losses that arrived corrupt
  uint64_t frames_recovered = 0;  // rebuilt from parity, no retransmit
  uint64_t frames_retransmitted = 0;
  uint64_t wire_bytes = 0;        // framed bytes on the air, incl. re-sends
  uint64_t lost_bytes = 0;
  uint64_t retransmit_bytes = 0;
};

// Resumable-transfer accounting (MigrationConfig::resume): every outage the
// migration rode out instead of rolling back.
struct ResumeStats {
  bool enabled = false;
  uint32_t interruptions = 0;     // outages observed mid-stream
  uint32_t attempts = 0;          // resume handshakes completed
  uint32_t chunks_acked = 0;      // manifest chunks the guest already held
  uint64_t handshake_wire_bytes = 0;
  uint64_t lost_bytes = 0;        // in-flight bytes an outage destroyed
  uint64_t retransmit_bytes = 0;  // bytes re-sent after resume handshakes
  SimDuration stalled = 0;        // total time waiting out outages
  std::vector<TimedInterval> stalls;  // one per stall (migration/resume spans)
};

struct RunningApp {
  Device* device = nullptr;
  Pid pid = kInvalidPid;          // the main (activity-hosting) process
  std::vector<Pid> all_pids;      // main first; helpers for multi-process apps
  Uid uid = -1;
  std::string package;
  std::string display_name;
  std::shared_ptr<ActivityThread> thread;

  static RunningApp FromInstance(AppInstance& app);
};

struct MigrationReport {
  std::string app;
  std::string home_device;
  std::string guest_device;
  bool success = false;
  std::string refusal_reason;

  // Stage intervals on the shared timeline (Figure 13).
  TimedInterval prepare;
  TimedInterval checkpoint;
  TimedInterval transfer;
  TimedInterval restore;
  TimedInterval reintegrate;
  // Sub-phase intervals (contained in the five above; not added to Total).
  // compress ⊂ checkpoint on the serial path but extends into transfer on
  // the pipelined path (chunk compression overlaps the wire); replay_window
  // ⊂ reintegrate; data_sync ⊂ transfer (serial) / the pipeline fill
  // (pipelined).
  TimedInterval compress;
  TimedInterval replay_window;
  TimedInterval data_sync;
  // Post-copy only: background streaming of the deferred image bytes,
  // overlapped with restore/reintegration; the tail (if any) extends the
  // total beyond reintegration.
  SimDuration background_transfer = 0;
  SimDuration background_tail = 0;     // portion not hidden by overlap
  uint64_t deferred_bytes = 0;
  SimDuration Total() const;
  // The user sees the target menu during prepare+checkpoint (§4).
  SimDuration UserPerceived() const;
  SimDuration PerceivedExcludingTransfer() const;

  // Byte accounting (Figure 15).
  uint64_t image_raw_bytes = 0;
  uint64_t image_compressed_bytes = 0;
  uint64_t log_bytes = 0;
  uint64_t data_sync_bytes = 0;  // data dirs + APK verification
  uint64_t total_wire_bytes = 0;

  CriaStats cria;
  ReplayStats replay;
  // Pipelined mode only: stage-overlap accounting (chunk counts, per-stage
  // busy/finish times, time saved vs strictly serial staging).
  PipelineStats pipeline;
  // chunk_dedup mode only.
  DedupStats dedup;
  // precopy mode only: round-by-round warm-up accounting.
  PrecopyStats precopy;
  // Non-clean net_profile only: per-frame wire outcomes.
  FrameWireStats frame_wire;
  // resume mode only: interruption/stall accounting.
  ResumeStats resume;
  // Whole-image digests for end-to-end identity checks: the raw CRIA image
  // as checkpointed at home and as reassembled on the guest.
  Hash128 image_hash;
  Hash128 restored_image_hash;

  // The causal context this migration ran under (adopted from
  // MigrationConfig::trace_context or minted at Migrate() entry); every
  // span and flight event of the migration carries the same value.
  TraceContext trace_context;

  // Where the app lives now.
  RunningApp migrated;

  // Set when something went wrong that did not abort the migration — some
  // replayed calls failed but the app is live on the guest. Aborted
  // migrations return an error Status instead; their forensics hang off
  // MigrationManager::last_forensics().
  std::shared_ptr<const ForensicReport> forensics;
};

class MigrationManager {
 public:
  MigrationManager(FluxAgent& home, FluxAgent& guest,
                   MigrationConfig config = {});
  ~MigrationManager();

  // Migrates a running app home -> guest. On success the home process is
  // gone and `report.migrated` points at the guest instance. On refusal the
  // app keeps running at home and `refusal_reason` is set (success=false
  // with an OK status).
  Result<MigrationReport> Migrate(const RunningApp& app,
                                  const AppSpec& spec);

  // The forensic report cut by the most recent failed (rolled-back or
  // partially failed) migration; null until something goes wrong. Snapshots
  // both devices' flight-recorder rings, the Status cause chain, the
  // tracer's counters and still-open spans, and the replay audit journal.
  std::shared_ptr<const ForensicReport> last_forensics() const {
    return last_forensics_;
  }

 private:
  // What the checkpoint hands the transfer.
  struct BuiltPayload {
    Bytes bytes;  // the wire payload
    // chunk_dedup: the raw-chunk hash manifest, which the resume handshake
    // re-offers.
    std::vector<Hash128> manifest;
    // resume only: the raw image, so the guest cache can take each chunk
    // as its wire window closes (chunk-granular delivery is what the
    // resume ack is about). The transfer takes ownership and frees it.
    Bytes raw_image;
  };
  // A chunk stream's pacing state: the clock follows a loss-free wire
  // schedule shifted by what outages, retransmissions and jitter added.
  struct ChunkStream {
    WifiNetwork& wifi;
    const EffectiveLink& link;
    const std::vector<Hash128>& manifest;  // re-offered on resume
    const char* fail_msg;  // the rollback cause when an outage can't resume
    SimDuration extra = 0;    // time beyond the loss-free schedule
    uint64_t extra_wire = 0;  // handshakes + re-sends on the air
  };

  Status Prepare(const RunningApp& app, MigrationReport& report);
  Result<BuiltPayload> BuildPayload(const RunningApp& app,
                                    MigrationReport& report);
  // Pre-copy mode: runs the converging warm-up rounds, then freezes the
  // app and cuts the final stop-and-copy payload — re-cutting if a write
  // raced the cut. Fills report.precopy and folds the whole window into
  // the checkpoint interval.
  Result<BuiltPayload> BuildPayloadPrecopy(const RunningApp& app,
                                           const AppSpec& spec,
                                           MigrationReport& report);
  // The warm-up rounds: stream chunks into the guest cache while the app
  // keeps dirtying memory. Returns why pre-copy did not converge, or an
  // empty string once a cut met the stop-and-copy target.
  Result<std::string> RunPrecopyRounds(const RunningApp& app,
                                       const AppSpec& spec,
                                       const std::vector<Pid>& pids,
                                       MigrationReport& report);
  Status Transfer(const RunningApp& app, const AppSpec& spec,
                  uint64_t payload_bytes, MigrationReport& report);
  // APK verification + data-directory delta sync into the pairing root;
  // returns the wire bytes it cost, split by whether the clock was already
  // advanced for them (shared by both transfer paths).
  Result<AppDataSync> SyncAppData(const RunningApp& app, const AppSpec& spec,
                                  MigrationReport& report);
  // Pipelined mode: data sync + chunked image streaming paced by the
  // overlapped stage schedule. Fills report.pipeline and re-stamps the
  // checkpoint/transfer intervals with the overlapped boundaries. Takes the
  // payload itself (not just its size): under a non-clean profile each
  // chunk's bytes run through the real frame codec. Returns the absolute
  // end of the overlapped decompress + restore stages, which RestoreOnGuest
  // waits out.
  Result<SimTime> TransferPipelined(const RunningApp& app,
                                    const AppSpec& spec, ByteSpan payload,
                                    const std::vector<Hash128>& manifest,
                                    Bytes raw_image, MigrationReport& report);
  // Advances the clock to `target` + stream.extra, watching the link at
  // every tick boundary. Each outage runs the resume handshake and shifts
  // the rest of the stream by its cost; `resend_wire` is the in-flight
  // bytes an outage destroys. The one place a chunk stream rides out
  // outages: the transfer and resume-on pre-copy rounds both pace here.
  Status AdvanceStream(ChunkStream& stream, SimTime target,
                       uint64_t resend_wire, MigrationReport& report);
  // Rides out a connectivity loss at the current clock instant: waits for
  // the link to recover (devices keep ticking), then runs the resume
  // handshake — a framed manifest re-offer out, a cache-ack bitmap back
  // (PROTOCOL.md §8) — counting the manifest chunks the guest cache
  // already holds. `resend_wire` re-sends in full after the handshake; the
  // stall, handshake and re-send are added to the stream's extra time and
  // wire bytes. Fails with a clean kUnavailable cause (stream.fail_msg)
  // when resume is off, the outage is permanent, longer than the 30 s wait
  // budget, or the attempt budget is spent — the caller rolls back exactly
  // as before resume existed.
  Status ResumeAfterOutage(ChunkStream& stream, uint64_t resend_wire,
                           MigrationReport& report);
  // Decodes and restores the payload, then waits out the pipelined drain
  // up to `restore_deadline` (0 on the serial path: nothing overlapped).
  Result<CriaRestoredApp> RestoreOnGuest(ByteSpan payload,
                                         SimTime restore_deadline,
                                         MigrationReport& report,
                                         CallLog& log_out,
                                         HardwareSnapshot& hw_out);
  Status Reintegrate(CriaRestoredApp& restored, const CallLog& log,
                     const HardwareSnapshot& home_hw,
                     MigrationReport& report, ReplayAuditJournal& journal);

  // Freezes the failure evidence: both flight-recorder rings, the cause
  // chain, tracer counters + open spans, and the (already cross-checked)
  // replay audit journal.
  std::shared_ptr<ForensicReport> BuildForensics(const char* phase,
                                                 const Status& cause,
                                                 bool rolled_back,
                                                 ReplayAuditJournal journal,
                                                 const MigrationReport& report);

  // The one clock loop of a migration: advances the shared clock to
  // `target` in kTransferTick slices, ticking both devices at each boundary
  // so their timers observe time passing, and counting each slice into
  // net.transfer_ticks / net.tick_us.
  // With `watch` set, stops early and returns false if the network is down
  // at a slice boundary; returns true once `target` is reached.
  bool AdvanceWithTicks(SimTime target, WifiNetwork* watch = nullptr);

  // Stamps the finished report's phase intervals into config_.trace as
  // spans (no-op without a tracer). Post-hoc emission keeps the simulated
  // timeline byte-identical with tracing on or off.
  void EmitTraceSpans(const MigrationReport& report);

  // Worker pool for chunk compression: the injected
  // MigrationConfig::compress_pool, or the process-shared pool of the
  // configured width (spawning threads per manager is pure host overhead —
  // no simulated time involved).
  ThreadPool* CompressionPool();

  // Wire bytes that `bytes` of payload cost on the air: framed under a
  // non-clean profile (PROTOCOL.md §5), unchanged on the clean one.
  uint64_t Charged(uint64_t bytes) const;

  FluxAgent& home_;
  FluxAgent& guest_;
  MigrationConfig config_;
  // Frame-stream shape under a non-clean profile, built once from config_.
  FrameStreamOptions frames_;
  // The active migration's causal context: adopted or minted at Migrate()
  // entry, cleared (with both recorders' and the tracer's ambient context)
  // on every exit path.
  TraceContext ctx_;
  // Pre-copy only: the modeled write load of the still-running app,
  // invoked from AdvanceWithTicks with each slice's duration. Installed
  // by RunPrecopyRounds for its own duration; null (the default) leaves
  // every other path byte-identical.
  std::function<void(SimDuration)> precopy_mutator_;
  std::shared_ptr<const ForensicReport> last_forensics_;
};

}  // namespace flux

#endif  // FLUX_SRC_FLUX_MIGRATION_H_
