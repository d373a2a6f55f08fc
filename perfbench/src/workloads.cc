#include "perfbench/src/workloads.h"

#include <algorithm>
#include <memory>
#include <string_view>

#include "src/apps/app_instance.h"
#include "src/apps/app_spec.h"
#include "src/base/event_queue.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/device/device_profile.h"
#include "src/device/world.h"
#include "src/flux/coordinator.h"
#include "src/flux/migration.h"
#include "src/flux/pairing.h"
#include "src/net/contended_link.h"

namespace perfbench {
namespace {

using namespace flux;

// ----- seed mapping: seed 0 reproduces today's committed inputs -----

uint64_t AppWorkloadSeed(uint64_t seed) { return 2015 ^ seed; }
uint64_t FleetRngSeed(uint64_t seed, int devices) {
  return (0x5eedULL + static_cast<uint64_t>(devices)) ^ seed;
}

// ----- sim-output records (the sim_digest input) -----

class SimRecord {
 public:
  SimRecord& Add(std::string_view key, uint64_t value) {
    buf_ += key;
    buf_ += '=';
    buf_ += std::to_string(value);
    buf_ += ';';
    return *this;
  }
  SimRecord& Add(std::string_view key, std::string_view value) {
    buf_ += key;
    buf_ += '=';
    buf_ += value;
    buf_ += ';';
    return *this;
  }
  SimRecord& Add(std::string_view key, const TimedInterval& t) {
    Add(key, t.begin);
    return Add(key, t.end);
  }
  void End() { buf_ += '\n'; }
  std::string Digest() const {
    return FluxHash128(ByteSpan(reinterpret_cast<const uint8_t*>(buf_.data()),
                                buf_.size()))
        .ToHex();
  }

 private:
  std::string buf_;
};

void RecordReport(SimRecord& rec, std::string_view unit,
                  const MigrationReport& r) {
  rec.Add("unit", unit).Add("app", r.app).Add("success", r.success);
  rec.Add("refusal", r.refusal_reason);
  rec.Add("prepare", r.prepare).Add("checkpoint", r.checkpoint);
  rec.Add("transfer", r.transfer).Add("restore", r.restore);
  rec.Add("reintegrate", r.reintegrate).Add("compress", r.compress);
  rec.Add("replay_window", r.replay_window).Add("data_sync", r.data_sync);
  rec.Add("total", r.Total()).Add("perceived", r.UserPerceived());
  rec.Add("bg_transfer", r.background_transfer);
  rec.Add("bg_tail", r.background_tail).Add("deferred", r.deferred_bytes);
  rec.Add("image_raw", r.image_raw_bytes);
  rec.Add("image_compressed", r.image_compressed_bytes);
  rec.Add("log", r.log_bytes).Add("data_sync_bytes", r.data_sync_bytes);
  rec.Add("wire", r.total_wire_bytes);
  rec.Add("image_hash", r.image_hash.ToHex());
  rec.Add("restored_hash", r.restored_image_hash.ToHex());
  rec.Add("ctx", r.trace_context.ToHex());
  rec.Add("replayed", r.replay.replayed).Add("proxied", r.replay.proxied);
  rec.Add("skipped", r.replay.skipped).Add("adapted", r.replay.adapted);
  rec.Add("replay_failed", r.replay.failed);
  rec.Add("dedup_refs", r.dedup.ref_chunks);
  rec.Add("dedup_chunks", r.dedup.chunk_count);
  rec.Add("precopy_rounds", r.precopy.rounds.size());
  rec.Add("precopy_converged", r.precopy.converged);
  rec.Add("precopy_wire", r.precopy.wire_bytes);
  rec.Add("frames_sent", r.frame_wire.frames_sent);
  rec.Add("frames_lost", r.frame_wire.frames_lost);
  rec.Add("frames_recovered", r.frame_wire.frames_recovered);
  rec.Add("frames_retx", r.frame_wire.frames_retransmitted);
  rec.Add("frame_wire", r.frame_wire.wire_bytes);
  rec.Add("resume_attempts", r.resume.attempts);
  rec.Add("resume_stalled", r.resume.stalled);
  rec.End();
}

// ----- traced-pass accumulation -----

// Per-layer sums over every traced unit of one pass: the program's own
// tracer counters and histogram sums, plus MigrationReport aggregates.
struct LayerSums {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_sums;
  uint64_t units = 0;
  uint64_t migrations = 0;
  double image_raw = 0;
  double image_compressed = 0;
  std::vector<double> prepare_s, checkpoint_s, transfer_s, restore_s,
      reintegrate_s;
  double precopy_migrations = 0, precopy_rounds = 0, precopy_converged = 0;
  double precopy_wire = 0;
  FrameWireStats frames;
  uint64_t resume_attempts = 0, resume_lost = 0, resume_retx = 0;
  std::vector<double> txn_ns;  // host ns per binder transaction, per unit

  void AddTracer(const Tracer& tracer) {
    ++units;
    for (const auto& [name, value] : tracer.Counters()) {
      counters[name] += static_cast<double>(value);
    }
    for (const auto& [name, snap] : tracer.Histograms()) {
      hist_sums[name] += static_cast<double>(snap.sum);
    }
  }
  void AddReport(const MigrationReport& r) {
    ++migrations;
    image_raw += static_cast<double>(r.image_raw_bytes);
    image_compressed += static_cast<double>(r.image_compressed_bytes);
    prepare_s.push_back(ToSecondsF(r.prepare.duration()));
    checkpoint_s.push_back(ToSecondsF(r.checkpoint.duration()));
    transfer_s.push_back(ToSecondsF(r.transfer.duration()));
    restore_s.push_back(ToSecondsF(r.restore.duration()));
    reintegrate_s.push_back(ToSecondsF(r.reintegrate.duration()));
    if (r.precopy.enabled) {
      ++precopy_migrations;
      precopy_rounds += static_cast<double>(r.precopy.rounds.size());
      precopy_converged += r.precopy.converged ? 1 : 0;
      precopy_wire += static_cast<double>(r.precopy.wire_bytes);
    }
    frames.frames_sent += r.frame_wire.frames_sent;
    frames.data_frames += r.frame_wire.data_frames;
    frames.frames_lost += r.frame_wire.frames_lost;
    frames.crc_errors += r.frame_wire.crc_errors;
    frames.frames_recovered += r.frame_wire.frames_recovered;
    frames.frames_retransmitted += r.frame_wire.frames_retransmitted;
    resume_attempts += r.resume.attempts;
    resume_lost += r.resume.lost_bytes;
    resume_retx += r.resume.retransmit_bytes;
  }
  double Counter(std::string_view name) const {
    auto it = counters.find(std::string(name));
    return it == counters.end() ? 0 : it->second;
  }
  double HistSum(std::string_view name) const {
    auto it = hist_sums.find(std::string(name));
    return it == hist_sums.end() ? 0 : it->second;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr double kMiB = 1024.0 * 1024.0;

// Per-layer metrics every traced pass reports. Layers a workload bypasses
// read 0: no work was done there.
void FillLayers(const LayerSums& s, const HostSpans& spans,
                std::map<std::string, double>& out) {
  namespace tn = trace_names;
  const double mig = static_cast<double>(s.migrations);
  out["device.boot_s"] = spans.MedianSeconds("device.boot");
  out["pairing.devices_s"] = spans.MedianSeconds("pairing.devices");
  out["pairing.app_s"] = spans.MedianSeconds("pairing.app");
  out["pairing.wire_mb"] =
      Ratio(s.Counter(tn::kPairingWireBytes) / kMiB, s.units);
  out["apps.install_s"] = spans.MedianSeconds("apps.install");
  out["record.workload_s"] = spans.MedianSeconds("apps.workload");
  out["record.txn_ns"] = Median(s.txn_ns);
  out["binder.transactions"] = s.Counter(tn::kBinderTransactions);
  out["record.calls_recorded"] = s.Counter(tn::kRecordCallsRecorded);
  out["record.prune_ratio"] = Ratio(s.Counter(tn::kRecordCallsPruned),
                                    s.Counter(tn::kRecordCallsRecorded));
  out["cria.image_mb"] = Ratio(s.image_raw / kMiB, mig);
  out["cria.incremental_mb"] =
      Ratio(s.Counter(tn::kCriaIncrementalBytes) / kMiB, mig);
  out["cria.compress_ratio"] = Ratio(s.image_compressed, s.image_raw);
  out["sim.prepare_s"] = Median(s.prepare_s);
  out["sim.checkpoint_s"] = Median(s.checkpoint_s);
  out["sim.transfer_s"] = Median(s.transfer_s);
  out["sim.restore_s"] = Median(s.restore_s);
  out["sim.reintegrate_s"] = Median(s.reintegrate_s);
  const std::pair<const char*, std::string_view> stages[] = {
      {"pipeline.serialize_busy_s", tn::kHistPipelineSerialize},
      {"pipeline.compress_busy_s", tn::kHistPipelineCompress},
      {"pipeline.wire_busy_s", tn::kHistPipelineWire},
      {"pipeline.decompress_busy_s", tn::kHistPipelineDecompress},
      {"pipeline.restore_busy_s", tn::kHistPipelineRestore},
  };
  for (const auto& [metric, hist] : stages) {
    out[metric] = Ratio(s.HistSum(hist) / 1e6, mig);
  }
  const double hits = s.Counter(tn::kCacheHits);
  const double misses = s.Counter(tn::kCacheMisses);
  out["cache.hits"] = hits;
  out["cache.misses"] = misses;
  out["cache.hit_ratio"] = Ratio(hits, hits + misses);
  out["cache.evictions"] = s.Counter(tn::kCacheEvictions);
  out["cache.verify_failures"] = s.Counter(tn::kCacheVerifyFailures);
  out["precopy.rounds_mean"] = Ratio(s.precopy_rounds, s.precopy_migrations);
  out["precopy.converged_share"] =
      Ratio(s.precopy_converged, s.precopy_migrations);
  out["precopy.wire_mb"] = Ratio(s.precopy_wire / kMiB, s.precopy_migrations);
  out["precopy.chunks_resent"] = s.Counter(tn::kPrecopyChunksResent);
  const FrameWireStats& f = s.frames;
  out["frame.sent"] = static_cast<double>(f.frames_sent);
  out["frame.lost"] = static_cast<double>(f.frames_lost);
  out["frame.fec_recovered"] = static_cast<double>(f.frames_recovered);
  out["frame.fec_recovery_ratio"] = Ratio(f.frames_recovered, f.frames_lost);
  out["frame.retransmitted"] = static_cast<double>(f.frames_retransmitted);
  out["frame.crc_errors"] = static_cast<double>(f.crc_errors);
  out["frame.wire_overhead"] = Ratio(f.frames_sent, f.data_frames);
  out["resume.attempts"] = static_cast<double>(s.resume_attempts);
  out["resume.retransmit_ratio"] = Ratio(s.resume_retx, s.resume_lost);
  out["replay.calls_replayed"] = s.Counter(tn::kReplayCallsReplayed);
  out["replay.calls_skipped"] = s.Counter(tn::kReplayCallsSkipped);
  out["replay.calls_failed"] = s.Counter(tn::kReplayCallsFailed);
  out["migration.migrate_s"] = spans.MedianSeconds("migration.migrate");
  // Fleet layers; the migration workloads leave them at 0 unless set.
  for (const char* name :
       {"fleet.build_s", "fleet.teardown_s", "fleet.drain_s", "fleet.admitted",
        "fleet.placement_probes", "fleet.warm_chunk_share",
        "fleet.peak_in_flight", "sched.windows", "sched.window_events",
        "sched.serial_events", "sched.mailbox_ops", "sched.parallel_share",
        "sched.threaded_drain_s", "sched.threaded_speedup"}) {
    out.emplace(name, 0.0);
  }
}

// ----- migration worlds -----

struct Combo {
  const char* name;
  DeviceProfile (*home)();
  DeviceProfile (*guest)();
};

// The four device combinations of the Figure 12 matrix, in its order.
const Combo kCombos[] = {
    {"N7(2013)->N7(2013)", &Nexus7_2013Profile, &Nexus7_2013Profile},
    {"N4->N7(2013)", &Nexus4Profile, &Nexus7_2013Profile},
    {"N7->N7(2013)", &Nexus7_2012Profile, &Nexus7_2013Profile},
    {"N7->N4", &Nexus7_2012Profile, &Nexus4Profile},
};

bool Unmigratable(const AppSpec& spec) {
  return spec.multi_process || spec.preserves_egl_context;
}

// A booted world with two paired agents and one installed, launched,
// managed app that has run its workload: the set-up half of every
// migration unit. Destroyed as a whole (the teardown timing).
struct MigrationWorld {
  World world;
  Device* a = nullptr;
  Device* b = nullptr;
  std::unique_ptr<FluxAgent> a_agent;
  std::unique_ptr<FluxAgent> b_agent;
  std::unique_ptr<AppInstance> app;
  std::shared_ptr<Tracer> tracer;

  ~MigrationWorld() {
    // Agents detach from the devices' binder drivers; drop them before the
    // world takes the devices down.
    app.reset();
    a_agent.reset();
    b_agent.reset();
  }
};

// Boots `a` and `b`, pairs a -> b (and b -> a when `both_ways`), installs
// and launches `spec` on a, pairs the app a -> b and runs its workload.
Result<std::unique_ptr<MigrationWorld>> BuildMigrationWorld(
    const AppSpec& spec, const DeviceProfile& pa, const DeviceProfile& pb,
    bool both_ways, uint64_t seed, bool trace, HostSpans& spans,
    LayerSums* sums) {
  auto w = std::make_unique<MigrationWorld>();
  BootOptions boot;
  boot.framework_scale = 0.02;
  {
    ScopedSpan span(spans, "device.boot");
    FLUX_ASSIGN_OR_RETURN(w->a, w->world.AddDevice("home", pa, boot));
  }
  {
    ScopedSpan span(spans, "device.boot");
    FLUX_ASSIGN_OR_RETURN(w->b, w->world.AddDevice("guest", pb, boot));
  }
  w->a_agent = std::make_unique<FluxAgent>(*w->a);
  w->b_agent = std::make_unique<FluxAgent>(*w->b);
  if (trace) {
    // Attached for the whole unit, so set-up's binder, record and pairing
    // work is counted too (the manager re-attaches it during Migrate).
    w->tracer = std::make_shared<Tracer>(&w->a->clock());
    w->a_agent->set_tracer(w->tracer.get());
    w->b_agent->set_tracer(w->tracer.get());
  }
  {
    ScopedSpan span(spans, "pairing.devices");
    FLUX_RETURN_IF_ERROR(
        PairDevices(*w->a_agent, *w->b_agent, w->tracer.get()).status());
    if (both_ways) {
      FLUX_RETURN_IF_ERROR(
          PairDevices(*w->b_agent, *w->a_agent, w->tracer.get()).status());
    }
  }
  w->app = std::make_unique<AppInstance>(*w->a, spec);
  {
    ScopedSpan span(spans, "apps.install");
    FLUX_RETURN_IF_ERROR(w->app->Install());
  }
  {
    ScopedSpan span(spans, "pairing.app");
    FLUX_RETURN_IF_ERROR(
        PairApp(*w->a_agent, *w->b_agent, spec, w->tracer.get()).status());
  }
  {
    ScopedSpan span(spans, "apps.launch");
    FLUX_RETURN_IF_ERROR(w->app->Launch());
  }
  w->a_agent->Manage(w->app->pid(), spec.package);
  {
    const uint64_t txns_before = w->a->binder().transaction_count();
    const auto begin = HostClock::now();
    ScopedSpan span(spans, "apps.workload");
    FLUX_RETURN_IF_ERROR(w->app->RunWorkload(AppWorkloadSeed(seed)));
    const double host_ns = SecondsSince(begin) * 1e9;
    const uint64_t txns = w->a->binder().transaction_count() - txns_before;
    if (sums != nullptr && txns > 0) {
      sums->txn_ns.push_back(host_ns / static_cast<double>(txns));
    }
  }
  return w;
}

MigrationConfig BaseConfig(const WorkloadOptions& options,
                           const MigrationWorld& w) {
  MigrationConfig config;
  config.compress_pool = options.pool;
  config.trace = w.tracer.get();
  return config;
}

// Records what one Migrate call produced; returns true for a completed
// migration of a migratable app that restored the byte-identical image.
bool RecordOutcome(const Result<MigrationReport>& report, const AppSpec& spec,
                   const std::string& unit, PassResult& pass) {
  Outcome o;
  o.unit = unit;
  o.app = spec.display_name;
  o.unmigratable = Unmigratable(spec);
  if (!report.ok()) {
    o.error = report.status().ToString();
  } else {
    o.migrated = report->success;
    o.digest_match = report->restored_image_hash == report->image_hash;
  }
  pass.outcomes.push_back(o);
  if (!o.migrated || o.unmigratable || !o.digest_match) {
    return false;
  }
  const MigrationReport& r = *report;
  ++pass.completed;
  pass.sim_migration_s.push_back(ToSecondsF(r.Total()));
  pass.sim_perceived_s.push_back(ToSecondsF(r.UserPerceived()));
  pass.wire_bytes.push_back(static_cast<double>(r.total_wire_bytes));
  return true;
}

// Times one Migrate call (into run_host_s) and records its outcome. Only
// completed migrations add a migrate_s sample.
Result<MigrationReport> TimedMigrate(MigrationManager& manager,
                                     const RunningApp& running,
                                     const AppSpec& spec,
                                     const std::string& unit,
                                     HostSpans& spans, PassResult& pass) {
  ScopedSpan span(spans, "migration.migrate");
  const auto begin = HostClock::now();
  Result<MigrationReport> report = manager.Migrate(running, spec);
  const double host_s = SecondsSince(begin);
  pass.run_host_s += host_s;
  if (report.ok()) {
    span.SetContext(report->trace_context);
  }
  if (RecordOutcome(report, spec, unit, pass)) {
    pass.migrate_s.push_back(host_s);
  }
  return report;
}
// Destroys a unit's world inside the run phase, timed.
void TimedTeardown(std::unique_ptr<MigrationWorld>& w, HostSpans& spans,
                   PassResult& pass) {
  ScopedSpan span(spans, "teardown");
  const auto begin = HostClock::now();
  w.reset();
  pass.run_host_s += SecondsSince(begin);
}

void FailUnit(const std::string& unit, const AppSpec& spec,
              const Status& status, PassResult& pass) {
  Outcome o;
  o.unit = unit;
  o.app = spec.display_name;
  o.unmigratable = Unmigratable(spec);
  o.error = "setup: " + status.ToString();
  pass.outcomes.push_back(o);
}

// The fixed cold_matrix subset: every combo for the smallest, a median and
// the largest image (Surpax Flashlight 3 MiB, Twitter 15 MiB, Candy Crush
// Saga 27 MiB heap), plus both expected refusals.
bool InColdSubset(const AppSpec& spec) {
  static const char* const kApps[] = {"Surpax Flashlight", "Twitter",
                                      "Candy Crush Saga", "Facebook",
                                      "Subway Surfers"};
  return std::any_of(std::begin(kApps), std::end(kApps),
                     [&](const char* n) { return spec.display_name == n; });
}

// ----- fleet -----

constexpr int kFleetDevices = 100'000;
constexpr int kDevicesPerGroup = 4;
constexpr int kDevicesPerAp = 64;
constexpr int kStormGroups = 16;
constexpr int kFleetMaxConcurrent = 512;
constexpr int kFleetHops = 2;
constexpr SimDuration kFleetWindow = Seconds(600);
constexpr int kFleetSetups = 9;

struct Fleet {
  SimClock clock;
  std::unique_ptr<EventScheduler> sched;
  ContendedFabric fabric;
  std::shared_ptr<Tracer> tracer;
  std::unique_ptr<MigrationCoordinator> coord;
  uint64_t requested = 0;
  uint64_t refused = 0;
};

// Builds the bench_fleet 100k scale: APs, devices in groups of four, the
// pairing-storm groups, one app per group and the seeded arrival schedule.
std::unique_ptr<Fleet> BuildFleet(const WorkloadOptions& options, bool trace) {
  auto f = std::make_unique<Fleet>();
  f->sched = std::make_unique<EventScheduler>(&f->clock, 8);
  f->sched->SetParallelDriver({options.pool, Millis(20)});
  if (trace) {
    f->tracer = std::make_shared<Tracer>(&f->clock);
  }
  const int devices = kFleetDevices;
  const int groups = devices / kDevicesPerGroup;
  const int aps = (devices + kDevicesPerAp - 1) / kDevicesPerAp;
  for (int a = 0; a < aps; ++a) {
    f->fabric.AddAp("ap" + std::to_string(a), 150'000'000);
  }
  CoordinatorConfig cfg;
  cfg.max_concurrent_migrations = kFleetMaxConcurrent;
  cfg.max_concurrent_pairings = kFleetMaxConcurrent / 2;
  cfg.trace = f->tracer.get();
  cfg.trace_spans = false;
  f->coord = std::make_unique<MigrationCoordinator>(f->sched.get(),
                                                    &f->fabric, cfg);
  MigrationCoordinator& coord = *f->coord;

  Rng rng(FleetRngSeed(options.seed, devices));
  std::vector<FleetAppId> group_apps(static_cast<size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    FleetDeviceId ids[kDevicesPerGroup];
    for (int d = 0; d < kDevicesPerGroup; ++d) {
      FleetDeviceSpec spec;
      const int index = g * kDevicesPerGroup + d;
      spec.name = "dev" + std::to_string(index);
      spec.ap = static_cast<ContendedFabric::ApId>(index / kDevicesPerAp);
      spec.link_peak_bps = 20'000'000 + rng.NextBelow(20'000'000);
      spec.cpu_factor = 0.6 + 0.2 * static_cast<double>(rng.NextBelow(4));
      ids[d] = coord.AddDevice(spec);
    }
    const bool storm = g < kStormGroups;
    for (int i = 0; i < kDevicesPerGroup; ++i) {
      for (int j = i + 1; j < kDevicesPerGroup; ++j) {
        if (storm) {
          coord.RequestPairing(ids[i], ids[j]);
        } else {
          coord.MarkPaired(ids[i], ids[j]);
        }
      }
    }
    FleetAppSpec app;
    app.name = "app" + std::to_string(g);
    app.home = ids[0];
    app.image_bytes = (4ULL << 20) + rng.NextBelow(28ULL << 20);
    app.dirty_bytes_per_s = 128 * 1024 + rng.NextBelow(512 * 1024);
    group_apps[static_cast<size_t>(g)] = coord.AddApp(app);
  }
  // Open-loop arrivals: each app asks to migrate kFleetHops times at
  // seeded offsets across the window; each fires at its due sim time
  // whatever the backlog. A request landing while the app's previous hop is
  // in flight is refused at arrival.
  Fleet* raw = f.get();
  for (int g = 0; g < groups; ++g) {
    const FleetAppId app = group_apps[static_cast<size_t>(g)];
    SimTime at = Seconds(1);
    for (int hop = 0; hop < kFleetHops; ++hop) {
      const double u = rng.NextDouble();
      at += static_cast<SimTime>(u * ToSecondsF(kFleetWindow) / kFleetHops *
                                 1e6);
      f->sched->ScheduleAt(
          at,
          [raw, app] {
            if (!raw->coord->RequestMigration(app)) {
              ++raw->refused;
            }
          },
          static_cast<uint32_t>(g) % 8);
      ++f->requested;
    }
  }
  return f;
}

}  // namespace

// ----- cold_matrix -----

PassResult RunColdMatrix(const WorkloadOptions& options, bool trace,
                         HostSpans& spans) {
  PassResult pass;
  LayerSums sums;
  SimRecord rec;
  int units = 0;
  for (const AppSpec& spec : TopApps()) {
    if (!options.full && !InColdSubset(spec)) {
      continue;
    }
    for (const Combo& combo : kCombos) {
      if (options.max_units > 0 && units >= options.max_units) {
        break;
      }
      ++units;
      const std::string unit = spec.display_name + " | " + combo.name;
      ScopedSpan cell_span(spans, "cell");
      const auto setup_begin = HostClock::now();
      auto built = [&] {
        ScopedSpan span(spans, "setup");
        return BuildMigrationWorld(spec, combo.home(), combo.guest(),
                                   /*both_ways=*/false, options.seed, trace,
                                   spans, trace ? &sums : nullptr);
      }();
      if (!built.ok()) {
        FailUnit(unit, spec, built.status(), pass);
        break;
      }
      std::unique_ptr<MigrationWorld> w = std::move(*built);
      // Let transient workload effects lapse before the user migrates.
      w->world.AdvanceTime(Seconds(1));
      const RunningApp running = RunningApp::FromInstance(*w->app);
      MigrationManager manager(*w->a_agent, *w->b_agent, BaseConfig(options, *w));
      pass.setup_s.push_back(SecondsSince(setup_begin));

      const Result<MigrationReport> report =
          TimedMigrate(manager, running, spec, unit, spans, pass);
      if (report.ok()) {
        RecordReport(rec, unit, *report);
        if (trace && report->success) {
          sums.AddReport(*report);
        }
      }
      if (trace) {
        sums.AddTracer(*w->tracer);
      }
      TimedTeardown(w, spans, pass);
      // Refusal is device-independent: one cell per unmigratable app.
      if (report.ok() && !report->success) {
        break;
      }
    }
  }
  pass.sim_digest = rec.Digest();
  if (trace) {
    FillLayers(sums, spans, pass.layers);
  }
  return pass;
}

// ----- warm_pingpong -----

PassResult RunWarmPingPong(const WorkloadOptions& options, bool trace,
                           HostSpans& spans) {
  constexpr int kHops = 4;  // A->B->A->B->A
  PassResult pass;
  LayerSums sums;
  SimRecord rec;
  int units = 0;
  for (const AppSpec* spec : MigratableApps()) {
    if (options.max_units > 0 && units >= options.max_units) {
      break;
    }
    ++units;
    ScopedSpan unit_span(spans, "pingpong");
    double setup_s = 0;
    auto setup_begin = HostClock::now();
    auto built = [&] {
      ScopedSpan span(spans, "setup");
      return BuildMigrationWorld(*spec, Nexus4Profile(), Nexus7_2013Profile(),
                                 /*both_ways=*/true, options.seed, trace,
                                 spans, trace ? &sums : nullptr);
    }();
    if (!built.ok()) {
      FailUnit(spec->display_name, *spec, built.status(), pass);
      continue;
    }
    std::unique_ptr<MigrationWorld> w = std::move(*built);
    MigrationConfig config = BaseConfig(options, *w);
    config.precopy = true;
    config.resume = true;
    config.net_profile = NetProfile::Named("home").value();
    config.fec = true;
    config.net_seed = options.seed;
    MigrationManager to_b(*w->a_agent, *w->b_agent, config);
    MigrationManager to_a(*w->b_agent, *w->a_agent, config);
    RunningApp running = RunningApp::FromInstance(*w->app);
    setup_s += SecondsSince(setup_begin);

    for (int hop = 0; hop < kHops; ++hop) {
      const std::string unit =
          spec->display_name + " | hop " + std::to_string(hop + 1);
      MigrationManager& manager = hop % 2 == 0 ? to_b : to_a;
      const Result<MigrationReport> report =
          TimedMigrate(manager, running, *spec, unit, spans, pass);
      if (!report.ok() || !report->success) {
        break;
      }
      RecordReport(rec, unit, *report);
      if (trace) {
        sums.AddReport(*report);
      }
      running = report->migrated;
      if (hop == 0) {
        // The return edge pairs once the app lives on B (set-up work).
        setup_begin = HostClock::now();
        ScopedSpan span(spans, "pairing.app");
        const auto paired =
            PairApp(*w->b_agent, *w->a_agent, *spec, w->tracer.get());
        setup_s += SecondsSince(setup_begin);
        if (!paired.ok()) {
          FailUnit(unit, *spec, paired.status(), pass);
          break;
        }
      }
    }
    pass.setup_s.push_back(setup_s);
    if (trace) {
      sums.AddTracer(*w->tracer);
    }
    TimedTeardown(w, spans, pass);
  }
  pass.sim_digest = rec.Digest();
  if (trace) {
    FillLayers(sums, spans, pass.layers);
  }
  return pass;
}

// ----- fleet_100k -----

PassResult RunFleet(const WorkloadOptions& options, bool trace,
                    HostSpans& spans) {
  PassResult pass;
  ScopedSpan unit_span(spans, "fleet");
  // One drain per pass, but several set-ups: setup_s is their median.
  // Only the last fleet built is drained.
  std::unique_ptr<Fleet> f;
  for (int i = 0; i < kFleetSetups; ++i) {
    f.reset();
    ScopedSpan span(spans, "fleet.build");
    const auto setup_begin = HostClock::now();
    f = BuildFleet(options, trace);
    pass.setup_s.push_back(SecondsSince(setup_begin));
  }

  double drain_s = 0;
  {
    ScopedSpan span(spans, "fleet.drain");
    const auto begin = HostClock::now();
    f->sched->DrainUntil(~SimTime{0} >> 1);
    drain_s = SecondsSince(begin);
  }
  pass.drain_s.push_back(drain_s);

  // Outputs, read before teardown.
  const MigrationCoordinator& coord = *f->coord;
  SimRecord rec;
  uint64_t warm = 0;
  uint64_t chunks = 0;
  for (const FleetMigrationRecord& r : coord.completed()) {
    pass.sim_migration_s.push_back(ToSecondsF(r.completed - r.admitted));
    pass.queue_wait_us.push_back(static_cast<double>(r.queue_wait()));
    pass.wire_bytes.push_back(static_cast<double>(r.wire_bytes));
    warm += r.warm_chunks;
    chunks += r.chunks;
    rec.Add("app", r.app).Add("home", r.home).Add("guest", r.guest);
    rec.Add("submitted", r.submitted).Add("admitted", r.admitted);
    rec.Add("completed", r.completed).Add("wire", r.wire_bytes);
    rec.Add("chunks", r.chunks).Add("warm", r.warm_chunks);
    rec.Add("ctx", r.ctx.ToHex());
    rec.End();
  }
  rec.Add("requested", f->requested).Add("refused", f->refused);
  rec.Add("pairings", coord.pairings_completed());
  rec.Add("peak", static_cast<uint64_t>(coord.peak_concurrency()));
  rec.Add("end", f->clock.now());
  rec.End();
  pass.sim_digest = rec.Digest();
  pass.completed = coord.completed().size();
  pass.requested = f->requested;
  pass.refused_at_arrival = f->refused;
  pass.left_over = coord.queued_migrations() + coord.inflight_migrations() +
                   coord.inflight_pairings();

  if (trace) {
    LayerSums sums;
    sums.AddTracer(*f->tracer);
    FillLayers(sums, spans, pass.layers);
    const EventScheduler::DriverStats& ds = f->sched->driver_stats();
    auto& out = pass.layers;
    out["fleet.build_s"] = spans.MedianSeconds("fleet.build");
    out["fleet.drain_s"] = drain_s;
    out["fleet.admitted"] =
        sums.Counter(trace_names::kFleetMigrationsAdmitted);
    out["fleet.placement_probes"] =
        sums.Counter(trace_names::kFleetPlacementProbes);
    out["fleet.warm_chunk_share"] = Ratio(warm, chunks);
    out["fleet.peak_in_flight"] = coord.peak_concurrency();
    out["sched.windows"] = static_cast<double>(ds.windows);
    out["sched.window_events"] = static_cast<double>(ds.window_events);
    out["sched.serial_events"] = static_cast<double>(ds.serial_events);
    out["sched.mailbox_ops"] = static_cast<double>(ds.mailbox_ops);
    out["sched.parallel_share"] =
        Ratio(ds.window_events, ds.window_events + ds.serial_events);
  }

  {
    ScopedSpan span(spans, "fleet.teardown");
    const auto begin = HostClock::now();
    f.reset();
    const double teardown_s = SecondsSince(begin);
    if (trace) {
      pass.layers["fleet.teardown_s"] = teardown_s;
    }
    pass.run_host_s = drain_s + teardown_s;
  }
  return pass;
}

}  // namespace perfbench
