#include "src/flux/coordinator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/base/bytes.h"
#include "src/flux/pipeline.h"
#include "src/flux/telemetry.h"

namespace flux {
namespace {

// Wire cost of a ref chunk: the 16-byte content hash the dedup path ships
// instead of a chunk the guest cache already holds.
constexpr uint64_t kRefBytes = 16;
// Pairing framework sync: compressed wire bytes per pairing, the paper's
// ~56 MB at the fleet model's 0.02 scale.
constexpr uint64_t kPairingWireBytes =
    static_cast<uint64_t>(static_cast<double>(56 * 1024 * 1024) * 0.02);
// Cadence of dirty-write bursts while a migration's pre-cut window runs.
constexpr SimDuration kDirtyBurstPeriod = Millis(500);

ByteSpan AsBytes(const std::string& s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

}  // namespace

// One modeled fleet device: AP attachment, CPU speed, and a real (verified,
// LRU) ChunkCache standing in for its content-addressed store.
struct MigrationCoordinator::FleetDevice {
  explicit FleetDevice(const FleetDeviceSpec& s)
      : spec(s), cache(s.cache_budget_bytes) {}

  bool IsPairedWith(FleetDeviceId other) const {
    return std::binary_search(paired.begin(), paired.end(), other);
  }
  void AddPeer(FleetDeviceId other) {
    auto at = std::lower_bound(paired.begin(), paired.end(), other);
    if (at == paired.end() || *at != other) {
      paired.insert(at, other);
    }
  }

  FleetDeviceSpec spec;
  ChunkCache cache;
  std::vector<FleetDeviceId> paired;  // sorted, no duplicates
  bool busy = false;
};

// One modeled app. Chunk content is identified by (app, chunk index,
// generation); the write load bumps generations round-robin over the hot
// set, accrued lazily from `last_dirt_at`.
struct MigrationCoordinator::FleetApp {
  explicit FleetApp(const FleetAppSpec& s) : spec(s), home(s.home) {}

  FleetAppSpec spec;
  FleetDeviceId home;
  std::vector<uint32_t> generations;  // sized lazily to ChunkCount
  // Memoized ChunkHash(ChunkSeed(app, i, generations[i])), updated eagerly
  // as AccrueDirt bumps generations. Placement probes and checkpoint cuts
  // used to recompute these per probe — at 100k-fleet scale the seed
  // formatting + hashing dominated the profile.
  std::vector<Hash128> chunk_hashes;
  SimTime last_dirt_at = 0;
  uint64_t dirt_carry_bytes = 0;  // sub-chunk residue between accruals
  uint32_t next_hot = 0;          // round-robin cursor over the hot set
  bool migrating = false;         // queued or in flight
};

struct MigrationCoordinator::PendingMigration {
  uint64_t key = 0;
  FleetAppId app = 0;
  FleetDeviceId home = 0;
  FleetDeviceId guest = kNoFleetDevice;  // kNoFleetDevice = place at admit
  bool explicit_guest = false;
  SimTime submitted = 0;
  SimTime admitted = 0;
  // Filled at the checkpoint cut.
  uint64_t wire_bytes = 0;
  uint32_t chunks = 0;
  uint32_t warm_chunks = 0;
  SimDuration cpu_post = 0;
  std::vector<std::string> seeds;  // per-chunk content at the cut
  std::vector<Hash128> hashes;
  ContendedFabric::FlowId flow = ContendedFabric::kInvalidFlow;
  EventId dirty_event;
  bool cut_done = false;
  // Minted at admission; zero while the request is still queued.
  TraceContext ctx;
};

struct MigrationCoordinator::PendingPairing {
  uint64_t key = 0;
  FleetDeviceId a = 0;
  FleetDeviceId b = 0;
  SimTime submitted = 0;
  SimTime admitted = 0;
  ContendedFabric::FlowId flow = ContendedFabric::kInvalidFlow;
};

MigrationCoordinator::MigrationCoordinator(EventScheduler* scheduler,
                                           ContendedFabric* fabric,
                                           CoordinatorConfig config)
    : scheduler_(scheduler), fabric_(fabric), config_(std::move(config)) {
  assert(scheduler_ != nullptr);
  assert(fabric_ != nullptr);
  if (config_.trace != nullptr) {
    using namespace trace_names;
    Tracer* t = config_.trace;
    ctr_requested_ = t->counter(kFleetMigrationsRequested);
    ctr_admitted_ = t->counter(kFleetMigrationsAdmitted);
    ctr_completed_ = t->counter(kFleetMigrationsCompleted);
    ctr_refused_ = t->counter(kFleetMigrationsRefused);
    ctr_pairings_ = t->counter(kFleetPairingsCompleted);
    ctr_probes_ = t->counter(kFleetPlacementProbes);
    ctr_warm_chunks_ = t->counter(kFleetPlacementWarmChunks);
    ctr_wire_bytes_ = t->counter(kFleetWireBytes);
    ctr_dirty_bursts_ = t->counter(kFleetDirtyBursts);
    hist_queue_wait_ = t->histogram(kHistFleetQueueWait);
    hist_concurrency_ = t->histogram(kHistFleetConcurrency);
  }
}

// Out of line for the unique_ptrs of types private to this file. Scheduled
// events close over `this`, so the scheduler must not run past the
// coordinator's lifetime (benches and tests drain it first).
MigrationCoordinator::~MigrationCoordinator() = default;

FleetDeviceId MigrationCoordinator::AddDevice(const FleetDeviceSpec& spec) {
  devices_.push_back(std::make_unique<FleetDevice>(spec));
  return static_cast<FleetDeviceId>(devices_.size() - 1);
}

FleetAppId MigrationCoordinator::AddApp(const FleetAppSpec& spec) {
  assert(spec.home < devices_.size());
  auto app = std::make_unique<FleetApp>(spec);
  app->last_dirt_at = now();
  apps_.push_back(std::move(app));
  return static_cast<FleetAppId>(apps_.size() - 1);
}

void MigrationCoordinator::MarkPaired(FleetDeviceId a, FleetDeviceId b) {
  assert(a < devices_.size() && b < devices_.size() && a != b);
  devices_[a]->AddPeer(b);
  devices_[b]->AddPeer(a);
}

bool MigrationCoordinator::IsPaired(FleetDeviceId a, FleetDeviceId b) const {
  return a < devices_.size() && b < devices_.size() &&
         devices_[a]->IsPairedWith(b);
}

uint32_t MigrationCoordinator::ShardOf(FleetDeviceId device) const {
  return device % static_cast<uint32_t>(scheduler_->shards());
}

std::string MigrationCoordinator::ChunkSeed(const FleetApp& app, uint32_t chunk,
                                            uint32_t generation) {
  std::string seed;
  seed.reserve(app.spec.name.size() + 24);
  seed.append(app.spec.name);
  seed.push_back('/');
  seed.append(std::to_string(chunk));
  seed.push_back('/');
  seed.append(std::to_string(generation));
  return seed;
}

Hash128 MigrationCoordinator::ChunkHash(const std::string& seed) {
  return FluxHash128(AsBytes(seed));
}

uint32_t MigrationCoordinator::ChunkCount(const FleetApp& app) const {
  return static_cast<uint32_t>(std::max<uint64_t>(
      1, (app.spec.image_bytes + kChunkCacheChunkBytes - 1) /
             kChunkCacheChunkBytes));
}

void MigrationCoordinator::AccrueDirt(FleetApp& app, SimTime upto) {
  const uint32_t chunks = ChunkCount(app);
  if (app.generations.size() != chunks) {
    app.generations.assign(chunks, 0);
    app.chunk_hashes.resize(chunks);
    for (uint32_t i = 0; i < chunks; ++i) {
      app.chunk_hashes[i] = ChunkHash(ChunkSeed(app, i, 0));
    }
  }
  if (upto <= app.last_dirt_at) {
    return;
  }
  const double elapsed_s =
      ToSecondsF(static_cast<SimDuration>(upto - app.last_dirt_at));
  app.last_dirt_at = upto;
  const uint64_t written =
      app.dirt_carry_bytes +
      static_cast<uint64_t>(elapsed_s * app.spec.dirty_bytes_per_s);
  uint64_t dirtied = written / kChunkCacheChunkBytes;
  app.dirt_carry_bytes = written % kChunkCacheChunkBytes;
  const uint32_t hot = std::max<uint32_t>(
      1, static_cast<uint32_t>(app.spec.hot_fraction * chunks));
  // More writes than the hot set in one window just re-dirties it; extra
  // laps change nothing observable, so collapse them.
  dirtied = std::min<uint64_t>(dirtied, hot);
  for (uint64_t i = 0; i < dirtied; ++i) {
    app.next_hot = (app.next_hot + 1) % hot;
    ++app.generations[app.next_hot];
    app.chunk_hashes[app.next_hot] = ChunkHash(
        ChunkSeed(app, app.next_hot, app.generations[app.next_hot]));
  }
}

SimDuration MigrationCoordinator::CpuCost(double cpu_factor, uint64_t bytes,
                                          double mbps) const {
  const double factor = cpu_factor > 0 ? cpu_factor : 1.0;
  return FromSecondsF(static_cast<double>(bytes) / (mbps * 1e6 * factor));
}

bool MigrationCoordinator::RequestPairing(FleetDeviceId a, FleetDeviceId b) {
  if (a >= devices_.size() || b >= devices_.size() || a == b) {
    return false;
  }
  auto req = std::make_unique<PendingPairing>();
  req->key = next_key_++;
  req->a = a;
  req->b = b;
  req->submitted = now();
  pairing_queue_.push_back(req->key);
  pending_pairings_[req->key] = std::move(req);
  PumpQueues();
  return true;
}

bool MigrationCoordinator::RequestMigration(FleetAppId app_id,
                                            FleetDeviceId guest) {
  FLUX_TRACE_COUNTER_ADD(ctr_requested_, 1);
  if (app_id >= apps_.size()) {
    FLUX_TRACE_COUNTER_ADD(ctr_refused_, 1);
    return false;
  }
  FleetApp& app = *apps_[app_id];
  const bool explicit_guest = guest != kNoFleetDevice;
  const bool bad_guest =
      explicit_guest && (guest >= devices_.size() || guest == app.home ||
                         !devices_[app.home]->IsPairedWith(guest));
  if (app.migrating || bad_guest ||
      (!explicit_guest && devices_[app.home]->paired.empty())) {
    FLUX_TRACE_COUNTER_ADD(ctr_refused_, 1);
    return false;
  }
  app.migrating = true;
  auto req = std::make_unique<PendingMigration>();
  req->key = next_key_++;
  req->app = app_id;
  req->home = app.home;
  req->guest = guest;
  req->explicit_guest = explicit_guest;
  req->submitted = now();
  migration_queue_.push_back(req->key);
  pending_migrations_[req->key] = std::move(req);
  PumpQueues();
  return true;
}

FleetDeviceId MigrationCoordinator::AppHome(FleetAppId app) const {
  return app < apps_.size() ? apps_[app]->home : kNoFleetDevice;
}

bool MigrationCoordinator::AppMigrating(FleetAppId app) const {
  return app < apps_.size() && apps_[app]->migrating;
}

bool MigrationCoordinator::DeviceBusy(FleetDeviceId device) const {
  return device < devices_.size() && devices_[device]->busy;
}

std::vector<TraceContext> MigrationCoordinator::InflightContexts() const {
  // Walk the admitted-context side table (bounded by the concurrency cap),
  // not pending_migrations_: queued entries have no context yet and
  // outnumber admitted ones by orders of magnitude at fleet scale. The
  // table's order is the deterministic admission/completion interleaving —
  // identical across serial and threaded drivers, which replay the same
  // event sequence — so no per-sample sort is needed here (it blew the ≤1%
  // sampler budget); the JSON exporter canonicalizes order instead.
  std::vector<TraceContext> out;
  out.reserve(admitted_ctxs_.size());
  for (const auto& [key, ctx] : admitted_ctxs_) {
    out.push_back(ctx);
  }
  return out;
}

FleetDeviceId MigrationCoordinator::PlaceGuest(const FleetApp& app) {
  const FleetDevice& home = *devices_[app.home];
  FleetDeviceId best = kNoFleetDevice;
  uint32_t best_warm = 0;
  int best_load = 0;
  const uint32_t chunks = ChunkCount(app);
  for (FleetDeviceId cand : home.paired) {
    FleetDevice& dev = *devices_[cand];
    if (dev.busy) {
      continue;
    }
    // The dedup manifest probe: how many of the app's current chunk hashes
    // does this candidate's cache hold? (HasValid verifies content, so a
    // poisoned entry reads as cold here exactly as it would on the wire.)
    // Every caller runs AccrueDirt first, so the memoized hashes are sized
    // and current — no per-probe seed hashing.
    assert(app.chunk_hashes.size() == chunks);
    uint32_t warm = 0;
    for (uint32_t i = 0; i < chunks; ++i) {
      if (dev.cache.HasValid(app.chunk_hashes[i])) {
        ++warm;
      }
    }
    FLUX_TRACE_COUNTER_ADD(ctr_probes_, chunks);
    const int load = fabric_->ActiveFlows(dev.spec.ap);
    // A strict total order on (more warm, less load, lower id): the choice
    // cannot depend on the order candidates are visited in.
    const bool better =
        best == kNoFleetDevice || warm > best_warm ||
        (warm == best_warm &&
         (load < best_load || (load == best_load && cand < best)));
    if (better) {
      best = cand;
      best_warm = warm;
      best_load = load;
    }
  }
  return best;
}

void MigrationCoordinator::PumpQueues() {
  // Pairings first (they unlock placement candidates), then migrations;
  // FIFO within each queue, skipping entries whose devices are busy rather
  // than letting one blocked pair head-of-line block the fleet.
  for (auto it = pairing_queue_.begin();
       it != pairing_queue_.end() &&
       active_pairings_ < config_.max_concurrent_pairings;) {
    PendingPairing& req = *pending_pairings_.at(*it);
    if (devices_[req.a]->busy || devices_[req.b]->busy) {
      ++it;
      continue;
    }
    const uint64_t key = *it;
    it = pairing_queue_.erase(it);
    AdmitPairing(std::move(*pending_pairings_.at(key)));
  }
  for (auto it = migration_queue_.begin();
       it != migration_queue_.end() &&
       active_migrations_ < config_.max_concurrent_migrations;) {
    PendingMigration& req = *pending_migrations_.at(*it);
    if (devices_[req.home]->busy) {
      ++it;
      continue;
    }
    FleetDeviceId guest = req.guest;
    if (req.explicit_guest) {
      if (devices_[guest]->busy) {
        ++it;
        continue;
      }
    } else {
      AccrueDirt(*apps_[req.app], now());
      guest = PlaceGuest(*apps_[req.app]);
      if (guest == kNoFleetDevice) {
        ++it;
        continue;
      }
    }
    const uint64_t key = *it;
    it = migration_queue_.erase(it);
    AdmitMigration(std::move(*pending_migrations_.at(key)), guest);
  }
}

void MigrationCoordinator::AdmitMigration(PendingMigration req,
                                          FleetDeviceId guest) {
  const uint64_t key = req.key;
  req.guest = guest;
  req.admitted = now();
  FleetApp& app = *apps_[req.app];
  FleetDevice& home = *devices_[req.home];
  // Admission is where the migration becomes causally real: mint its trace
  // context here, salted by the request key so two admissions of the same
  // app/pair at the same instant still get distinct identities.
  req.ctx = MintTraceContext(app.spec.name, home.spec.name,
                             devices_[guest]->spec.name, req.admitted, key);
  admitted_ctx_index_[key] = admitted_ctxs_.size();
  admitted_ctxs_.emplace_back(key, req.ctx);
  home.busy = true;
  devices_[guest]->busy = true;
  ++active_migrations_;
  peak_concurrency_ =
      std::max(peak_concurrency_, active_migrations_ + active_pairings_);
  FLUX_TRACE_COUNTER_ADD(ctr_admitted_, 1);
  FLUX_TRACE_HIST_RECORD(hist_queue_wait_,
                         static_cast<uint64_t>(req.admitted - req.submitted));
  FLUX_TRACE_HIST_RECORD(hist_concurrency_,
                         static_cast<uint64_t>(active_migrations_));
  if (config_.trace != nullptr && config_.trace_spans) {
    FLUX_TRACE_EMIT_ON_TRACK_CTX(config_.trace,
                                 trace_names::kSpanCoordQueueWait,
                                 trace_names::kTrackCoordinator, req.submitted,
                                 req.admitted, req.ctx);
  }

  AccrueDirt(app, now());
  // cpu_pre: prepare + checkpoint serialize + compress on the home CPU.
  // Compression cost is charged for the full image here; the manifest probe
  // at the cut decides what actually hits the wire.
  const SimDuration cpu_pre =
      kPrepareFixed +
      CpuCost(home.spec.cpu_factor, app.spec.image_bytes, kSerializeMbps) +
      CpuCost(home.spec.cpu_factor, app.spec.image_bytes, kCompressMbps);
  const uint32_t shard = ShardOf(req.home);
  pending_migrations_[key] = std::make_unique<PendingMigration>(std::move(req));
  PendingMigration& live = *pending_migrations_[key];
  // Both per-migration events are staged on the home's shard: their run
  // phases only touch state this migration owns, so the parallel driver
  // may overlap them with other migrations' events.
  live.dirty_event = scheduler_->ScheduleStagedAfter(
      kDirtyBurstPeriod,
      StagedEvent{[this, key] { DirtyBurst(key); }, EventFn{}}, shard);
  scheduler_->ScheduleStagedAfter(
      cpu_pre,
      StagedEvent{[this, key] { OnCheckpointCut(key); },
                  [this, key] { OnCheckpointCutCommit(key); }},
      shard);
}

void MigrationCoordinator::DirtyBurst(uint64_t migration_key) {
  auto it = pending_migrations_.find(migration_key);
  if (it == pending_migrations_.end() || it->second->cut_done) {
    return;
  }
  PendingMigration& mig = *it->second;
  AccrueDirt(*apps_[mig.app], now());
  FLUX_TRACE_COUNTER_ADD(ctr_dirty_bursts_, 1);
  mig.dirty_event = scheduler_->ScheduleStagedAfter(
      kDirtyBurstPeriod,
      StagedEvent{[this, migration_key] { DirtyBurst(migration_key); },
                  EventFn{}},
      ShardOf(mig.home));
}

void MigrationCoordinator::OnCheckpointCut(uint64_t migration_key) {
  // Staged run phase: the expensive part of the cut — seed formatting,
  // cache probes/inserts, wire math — against state only this migration
  // touches (its app, its two busy devices). The fabric flow starts in the
  // serial commit below.
  PendingMigration& mig = *pending_migrations_.at(migration_key);
  mig.cut_done = true;
  if (mig.dirty_event) {
    scheduler_->Cancel(mig.dirty_event);  // same-shard: mailbox settles it
    mig.dirty_event = EventId{};
  }
  FleetApp& app = *apps_[mig.app];
  AccrueDirt(app, now());
  FleetDevice& home = *devices_[mig.home];
  FleetDevice& guest = *devices_[mig.guest];

  // Manifest probe against the chosen guest: warm chunks ship as refs.
  const uint32_t chunks = ChunkCount(app);
  mig.chunks = chunks;
  mig.seeds.reserve(chunks);
  mig.hashes.reserve(chunks);
  for (uint32_t i = 0; i < chunks; ++i) {
    mig.seeds.push_back(ChunkSeed(app, i, app.generations[i]));
    mig.hashes.push_back(app.chunk_hashes[i]);
    if (guest.cache.HasValid(mig.hashes.back())) {
      ++mig.warm_chunks;
    }
    // The home just serialized this chunk, so its own store holds it —
    // that's what makes the return hop of a ping-pong find a warm cache.
    home.cache.Insert(mig.hashes.back(), AsBytes(mig.seeds.back()));
  }
  FLUX_TRACE_COUNTER_ADD(ctr_probes_, chunks);
  FLUX_TRACE_COUNTER_ADD(ctr_warm_chunks_, mig.warm_chunks);

  const uint64_t cold_raw =
      static_cast<uint64_t>(chunks - mig.warm_chunks) * kChunkCacheChunkBytes;
  mig.wire_bytes =
      static_cast<uint64_t>(cold_raw * app.spec.compress_ratio) +
      static_cast<uint64_t>(mig.warm_chunks) * kRefBytes;
  // cpu_post: decompress the cold bytes + restore the image on the guest
  // CPU, plus reintegration.
  mig.cpu_post =
      CpuCost(guest.spec.cpu_factor, cold_raw, kDecompressMbps) +
      CpuCost(guest.spec.cpu_factor, app.spec.image_bytes, kRestoreMbps) +
      kReintegrateFixed;
}

void MigrationCoordinator::OnCheckpointCutCommit(uint64_t migration_key) {
  PendingMigration& mig = *pending_migrations_.at(migration_key);
  const FleetDevice& home = *devices_[mig.home];
  const FleetDevice& guest = *devices_[mig.guest];
  const uint64_t peak =
      std::min(home.spec.link_peak_bps, guest.spec.link_peak_bps);
  mig.flow = fabric_->StartFlow(now(), mig.wire_bytes, peak, home.spec.ap,
                                guest.spec.ap);
  if (mig.flow == ContendedFabric::kInvalidFlow) {
    // Fully deduped: nothing to put on the wire.
    scheduler_->ScheduleStagedAfter(
        mig.cpu_post,
        StagedEvent{
            [this, migration_key] { OnMigrationDone(migration_key); },
            [this, migration_key] { OnMigrationDoneCommit(migration_key); }},
        ShardOf(mig.guest));
    return;
  }
  flow_to_migration_[mig.flow] = migration_key;
  ScheduleFabricWakeup();
}

void MigrationCoordinator::ScheduleFabricWakeup() {
  if (fabric_wakeup_) {
    scheduler_->Cancel(fabric_wakeup_);
    fabric_wakeup_ = EventId{};
  }
  SimTime when = 0;
  if (fabric_->NextCompletion(now(), &when)) {
    fabric_wakeup_ =
        scheduler_->ScheduleAt(when, [this] { OnFlowsSettled(); });
  }
}

void MigrationCoordinator::OnFlowsSettled() {
  fabric_wakeup_ = EventId{};
  std::vector<ContendedFabric::FinishedFlow> done;
  fabric_->Settle(now(), &done);
  for (const ContendedFabric::FinishedFlow& fin : done) {
    if (auto it = flow_to_migration_.find(fin.id);
        it != flow_to_migration_.end()) {
      const uint64_t key = it->second;
      flow_to_migration_.erase(it);
      PendingMigration& mig = *pending_migrations_.at(key);
      scheduler_->ScheduleStagedAfter(
          mig.cpu_post,
          StagedEvent{[this, key] { OnMigrationDone(key); },
                      [this, key] { OnMigrationDoneCommit(key); }},
          ShardOf(mig.guest));
    } else if (auto pit = flow_to_pairing_.find(fin.id);
               pit != flow_to_pairing_.end()) {
      const uint64_t key = pit->second;
      flow_to_pairing_.erase(pit);
      OnPairingFlowDone(key);
    }
  }
  ScheduleFabricWakeup();
}

void MigrationCoordinator::OnMigrationDone(uint64_t migration_key) {
  // Staged run phase: the guest restored every chunk, so its
  // content-addressed store now holds all of them — this is what
  // placement's manifest probe sees on the way back. The guest is still
  // busy under this migration, so its cache is ours to warm.
  PendingMigration& mig = *pending_migrations_.at(migration_key);
  FleetDevice& guest = *devices_[mig.guest];
  for (uint32_t i = 0; i < mig.chunks; ++i) {
    guest.cache.Insert(mig.hashes[i], AsBytes(mig.seeds[i]));
  }
}

void MigrationCoordinator::OnMigrationDoneCommit(uint64_t migration_key) {
  auto node = pending_migrations_.extract(migration_key);
  if (auto idx = admitted_ctx_index_.find(migration_key);
      idx != admitted_ctx_index_.end()) {
    const size_t slot = idx->second;
    admitted_ctx_index_.erase(idx);
    if (slot + 1 != admitted_ctxs_.size()) {
      admitted_ctxs_[slot] = admitted_ctxs_.back();
      admitted_ctx_index_[admitted_ctxs_[slot].first] = slot;
    }
    admitted_ctxs_.pop_back();
  }
  PendingMigration& mig = *node.mapped();
  FleetApp& app = *apps_[mig.app];
  FleetDevice& guest = *devices_[mig.guest];

  app.home = mig.guest;
  app.migrating = false;
  app.last_dirt_at = now();
  devices_[mig.home]->busy = false;
  guest.busy = false;
  --active_migrations_;

  FLUX_TRACE_COUNTER_ADD(ctr_completed_, 1);
  FLUX_TRACE_COUNTER_ADD(ctr_wire_bytes_, mig.wire_bytes);
  if (config_.trace != nullptr && config_.trace_spans) {
    FLUX_TRACE_EMIT_ON_TRACK_CTX(config_.trace,
                                 trace_names::kSpanCoordMigration,
                                 trace_names::kTrackCoordinator, mig.admitted,
                                 now(), mig.ctx);
  }

  FleetMigrationRecord rec;
  rec.app = mig.app;
  rec.home = mig.home;
  rec.guest = mig.guest;
  rec.submitted = mig.submitted;
  rec.admitted = mig.admitted;
  rec.completed = now();
  rec.wire_bytes = mig.wire_bytes;
  rec.chunks = mig.chunks;
  rec.warm_chunks = mig.warm_chunks;
  rec.ctx = mig.ctx;
  completed_.push_back(rec);

  PumpQueues();
}

void MigrationCoordinator::AdmitPairing(PendingPairing req) {
  const uint64_t key = req.key;
  req.admitted = now();
  devices_[req.a]->busy = true;
  devices_[req.b]->busy = true;
  ++active_pairings_;
  peak_concurrency_ =
      std::max(peak_concurrency_, active_migrations_ + active_pairings_);
  const FleetDevice& a = *devices_[req.a];
  const FleetDevice& b = *devices_[req.b];
  const uint64_t peak = std::min(a.spec.link_peak_bps, b.spec.link_peak_bps);
  req.flow = fabric_->StartFlow(now(), kPairingWireBytes, peak, a.spec.ap,
                                b.spec.ap);
  const ContendedFabric::FlowId flow = req.flow;
  pending_pairings_[key] = std::make_unique<PendingPairing>(std::move(req));
  if (flow == ContendedFabric::kInvalidFlow) {
    FinishPairing(key);
    return;
  }
  flow_to_pairing_[flow] = key;
  ScheduleFabricWakeup();
}

void MigrationCoordinator::OnPairingFlowDone(uint64_t pairing_key) {
  FinishPairing(pairing_key);
}

void MigrationCoordinator::FinishPairing(uint64_t pairing_key) {
  auto node = pending_pairings_.extract(pairing_key);
  PendingPairing& req = *node.mapped();
  MarkPaired(req.a, req.b);
  // The framework sync seeds each side's cache with the chunks of every app
  // homed on the partner — the warm-start that makes placement prefer
  // previously-paired guests.
  for (const auto& app_ptr : apps_) {
    FleetApp& app = *app_ptr;
    FleetDeviceId target = kNoFleetDevice;
    if (app.home == req.a) {
      target = req.b;
    } else if (app.home == req.b) {
      target = req.a;
    } else {
      continue;
    }
    AccrueDirt(app, now());
    const uint32_t chunks = ChunkCount(app);
    for (uint32_t i = 0; i < chunks; ++i) {
      const std::string seed = ChunkSeed(app, i, app.generations[i]);
      devices_[target]->cache.Insert(app.chunk_hashes[i], AsBytes(seed));
    }
  }
  devices_[req.a]->busy = false;
  devices_[req.b]->busy = false;
  --active_pairings_;
  ++pairings_completed_;
  FLUX_TRACE_COUNTER_ADD(ctr_pairings_, 1);
  if (config_.trace != nullptr && config_.trace_spans) {
    FLUX_TRACE_EMIT_ON_TRACK(config_.trace, trace_names::kSpanCoordPairing,
                             trace_names::kTrackCoordinator, req.submitted,
                             now());
  }
  PumpQueues();
}

}  // namespace flux
