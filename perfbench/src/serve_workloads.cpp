// The two serve workloads: a TrackManagerFleet fed pre-generated
// SyntheticWorkload frames.
//
//   serve_table1       Table 1 shape (10 grid sensors, bounded channel,
//                      1 m cell, flat matcher), 2048 tracks, no churn.
//   serve_dense_churn  32 random sensors, hierarchical descent, dropout
//                      0.1, 512 tracks, a node failed or revived every two
//                      closed-loop ticks / every second of the open loop.
//
// A run sets the fleet up several times (setup_s), proves it correct
// against SerialReplay before any timing, then measures a closed loop
// (all tracks submitted, tick(), back to back: loc_per_s) and an open
// loop (one generator thread sending at the fixed offered rate, one frame
// in flight per track; latency from each frame's due time to the tick()
// return carrying its update), then replays what both loops served
// through SerialReplay.
// The traced run adds the per-layer breakdown: spans around the fleet's
// public calls, the program's own obs counters and histograms, a
// single-thread replay decomposition of the per-frame work, and a
// builder replica timing preprocessing and churn rebuilds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/hier_facemap.hpp"
#include "core/sampling_vector.hpp"
#include "core/signature_index.hpp"
#include "gates.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fleet.hpp"
#include "serve/workload.hpp"
#include "sim/scenario_build.hpp"

namespace perfbench {
namespace {

using namespace fttt;

struct ServeShape {
  const char* name;
  std::size_t sensors;
  DeploymentKind deployment;
  bool hierarchical;
  double dropout;
  std::size_t tracks;
  std::size_t shards;
  std::size_t queue_capacity;    ///< room for host stalls of ~10 open-loop ticks
  std::size_t frame_rounds;      ///< pre-generated rounds, replayed ping-pong
  std::size_t churn_ticks;       ///< closed loop: churn event every N ticks (0 = none)
  double churn_ms;               ///< open loop: churn event every N ms (0 = none)
  /// Offered frame rate of the open loop (frames/s): fixed once for the
  /// workload, never derived from a run.
  double rate;
  /// Fleet constructions timed for setup_s, in each of three batches
  /// spread over the run (before the open loop, between the loops, after
  /// the closed loop), so the median sees the host across the whole run.
  std::size_t setup_reps;
  std::size_t gate_tracks;
  std::size_t gate_rounds;
  std::size_t replay_tracks;     ///< replay decomposition frames: tracks x rounds
  std::size_t replay_rounds;
  std::size_t replay_reps;
  std::size_t verify_stride;     ///< closed loop: replay-check every k-th track
  /// Reporting windows: loc_per_s is the median of the closed loop's
  /// per-window rates, frame_p50/p90 the medians of the open loop's
  /// per-window quantiles (0 = the whole loop is one window), so one
  /// transient stall of the host moves one window, not the result.
  double rate_window_s;
  double latency_window_s;
  double open_share;  ///< share of --seconds given to the open loop
};

/// Smoke runs offer this share of the workload's rate.
constexpr double kSmokeRateScale = 0.2;

ServeShape table1_shape(bool smoke) {
  ServeShape s{.name = "serve_table1", .sensors = 10, .deployment = DeploymentKind::kGrid,
               .hierarchical = false, .dropout = 0.0, .tracks = 2048, .shards = 4,
               .queue_capacity = 16384, .frame_rounds = 32, .churn_ticks = 0, .churn_ms = 0.0,
               .rate = 90000.0, .setup_reps = 40, .gate_tracks = 2048, .gate_rounds = 6,
               .replay_tracks = 256, .replay_rounds = 8, .replay_reps = 5, .verify_stride = 16,
               .rate_window_s = 0.5, .latency_window_s = 0.5, .open_share = 0.55};
  if (smoke) {
    s.tracks = s.gate_tracks = 64;
    s.frame_rounds = 6;
    s.rate *= kSmokeRateScale;
    s.setup_reps = 1;
    s.gate_rounds = 3;
    s.replay_tracks = 16;
    s.replay_rounds = 3;
    s.replay_reps = 1;
  }
  return s;
}

/// 32 sensors keep the dense shape's ~9.7k faces, hierarchical descent on
/// nearly every frame and off-thread churn rebuilds, with an 11 MB
/// division. At 64 sensors (43 MB) the single-frame descent time, and with
/// it frame_p50/p90, followed the cache and memory traffic of other tenants
/// of a shared 4-vCPU VM (p90 spread 0.27-0.44 over three 10-seed sets).
ServeShape dense_shape(bool smoke) {
  ServeShape s{.name = "serve_dense_churn", .sensors = 32, .deployment = DeploymentKind::kRandom,
               .hierarchical = true, .dropout = 0.1, .tracks = 512, .shards = 4,
               .queue_capacity = 4096, .frame_rounds = 8, .churn_ticks = 2, .churn_ms = 1000.0,
               .rate = 400.0, .setup_reps = 8, .gate_tracks = 32, .gate_rounds = 6,
               .replay_tracks = 64, .replay_rounds = 4, .replay_reps = 4, .verify_stride = 8,
               .rate_window_s = 1.0, .latency_window_s = 1.0, .open_share = 0.6};
  if (smoke) {
    s.tracks = 12;
    s.gate_tracks = 6;
    s.frame_rounds = 4;
    s.rate *= kSmokeRateScale;
    s.setup_reps = 1;
    s.gate_rounds = 6;
    s.replay_tracks = 4;
    s.replay_rounds = 2;
    s.replay_reps = 1;
    s.churn_ms = 100.0;
  }
  return s;
}

/// Everything a run needs before the fleet exists: the fixed roster, the
/// channel, and the frame pool generated from the workload seed.
struct ServeInputs {
  ScenarioConfig cfg;
  Deployment roster;
  ResolvedChannel channel;
  TrackManagerFleet::Config fleet_cfg;
  std::vector<std::vector<ReportFrame>> frames;  ///< [round][track]
  double collect_us{0.0};                        ///< mean frame generation cost
  std::size_t collect_samples{0};

  /// The frame of `track` in sequence round `round`: the pool replayed
  /// forwards then backwards, so every track's path stays continuous (a
  /// wrap would teleport the target and defeat its warm start). Each track
  /// starts at its own phase, so any stretch of the stream mixes epochs —
  /// and with them the per-epoch node dropout patterns, which every track
  /// of one epoch shares. The copy carries the round as its epoch; the
  /// fleet echoes it back.
  ReportFrame frame(std::uint64_t round, TrackId track) const {
    const std::uint64_t w = frames.size();
    const std::uint64_t p = (round + track) % (2 * w);
    ReportFrame f = frames[p < w ? p : 2 * w - 1 - p][track];
    f.epoch = round;
    return f;
  }
};

/// A frame by its sequence round and track: ServeInputs::frame(round, track).
/// Compact, since a timed loop logs one per update.
struct FrameKey {
  std::uint32_t round;
  std::uint32_t track;
};

ServeInputs make_inputs(const ServeShape& shape, const Options& opt) {
  ServeInputs in;
  ScenarioConfig& cfg = in.cfg;
  cfg.sensor_count = shape.sensors;
  cfg.deployment = shape.deployment;
  cfg.channel = Channel::kBounded;
  cfg.grid_cell = 1.0;
  cfg.dropout_probability = shape.dropout;
  cfg.hierarchical_matching = shape.hierarchical;
  // The roster uses the scenario's fixed root seed: the deployment is
  // part of the workload's definition. Only the frames follow --seed.
  RngStream root(cfg.seed);
  in.roster = scenario_deployment(cfg, root.substream(1));
  in.channel = resolve_channel(cfg);

  SyntheticWorkload::Config wcfg;
  wcfg.tracks = shape.tracks;
  wcfg.drop_probability = cfg.dropout_probability;
  wcfg.epoch_period = cfg.localization_period;
  wcfg.sampling.model = in.channel.model;
  wcfg.sampling.sensing_range = cfg.sensing_range;
  wcfg.sampling.sample_period = 1.0 / cfg.sample_rate;
  wcfg.sampling.samples_per_group = cfg.samples_per_group;
  wcfg.sampling.clock_skew = cfg.clock_skew;
  wcfg.sampling.freeze_target_during_group = cfg.freeze_group;
  const SyntheticWorkload workload(in.roster, cfg.field, wcfg, opt.seed);

  // Pre-generate before any timing so collect_group never competes with
  // the system under test; one thread, timed as the generator's cost.
  const auto t0 = Clock::now();
  in.frames.resize(shape.frame_rounds);
  for (std::uint64_t r = 0; r < shape.frame_rounds; ++r) {
    in.frames[r].reserve(shape.tracks);
    for (TrackId t = 0; t < shape.tracks; ++t) in.frames[r].push_back(workload.frame(t, r));
  }
  in.collect_samples = shape.frame_rounds * shape.tracks;
  in.collect_us = elapsed_us(t0, Clock::now()) / static_cast<double>(in.collect_samples);

  TrackManagerFleet::Config& f = in.fleet_cfg;
  f.shards = shape.shards;
  f.queue_capacity = shape.queue_capacity;
  f.track.eps = cfg.eps;
  f.track.missing = cfg.missing;
  f.track.hierarchical = shape.hierarchical;
  return in;
}

std::unique_ptr<TrackManagerFleet> make_fleet(const ServeInputs& in, ThreadPool& pool) {
  return std::make_unique<TrackManagerFleet>(in.roster, in.channel.C, in.cfg.field,
                                             in.cfg.grid_cell, in.fleet_cfg, pool);
}

std::vector<NodeId> alive_ids(const FaceMapBuilder& b) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < b.roster_size(); ++i)
    if (b.is_active(static_cast<NodeId>(i))) ids.push_back(static_cast<NodeId>(i));
  return ids;
}

/// One served division, as the fleet hands it to its shards.
struct Division {
  std::shared_ptr<const FaceMap> map;
  std::shared_ptr<const SignatureTable> table;
  std::shared_ptr<const HierFaceMap> hier;
  std::shared_ptr<const SignatureIndex> index;
  std::vector<NodeId> members;

  std::size_t bytes() const {
    return map->bytes() + table->bytes() + (hier ? hier->bytes() : 0) +
           (index ? index->bytes() : 0);
  }
};

/// A FaceMapBuilder driven through its public calls the way the fleet
/// drives its own: the spec divisions of the replay checks, and the timed
/// source of core.build_ms / core.tier_ms / core.rebuild_ms.
class BuilderReplica {
 public:
  BuilderReplica(const ServeInputs& in, ThreadPool& pool)
      : hierarchical_(in.fleet_cfg.track.hierarchical),
        pool_(pool),
        builder_(in.roster, in.channel.C, in.cfg.field, in.cfg.grid_cell, pool) {
    auto t0 = Clock::now();
    current_.map = std::make_shared<const FaceMap>(builder_.build());
    build_ms_ = elapsed_ms(t0, Clock::now());
    if (hierarchical_) {
      t0 = Clock::now();
      auto hier = std::make_shared<const HierFaceMap>(builder_.build_hierarchy());
      current_.index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*hier, pool));
      current_.hier = std::move(hier);
      tier_ms_ = elapsed_ms(t0, Clock::now());
    }
    current_.table = std::make_shared<const SignatureTable>(builder_.take_signature_table());
    current_.members = alive_ids(builder_);
  }

  /// Apply one churn event and derive the next division: the fleet's
  /// rebuild task. Returns the event's wall time in ms.
  double churn(NodeId node, bool fail) {
    const auto t0 = Clock::now();
    if (fail) builder_.deactivate(node);
    else builder_.activate(node);
    derive();
    return elapsed_ms(t0, Clock::now());
  }

  /// Bring the active set to `members` — the fleet's alive set after one
  /// or more (possibly coalesced) churn events — and derive that division.
  void reach(const std::vector<NodeId>& members) {
    std::vector<char> want(builder_.roster_size(), 0);
    for (const NodeId m : members) want[m] = 1;
    bool changed = false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto id = static_cast<NodeId>(i);
      if (builder_.is_active(id) == (want[i] != 0)) continue;
      if (want[i]) builder_.activate(id);
      else builder_.deactivate(id);
      changed = true;
    }
    if (changed) derive();
  }

  const Division& division() const { return current_; }
  double build_ms() const { return build_ms_; }
  double tier_ms() const { return tier_ms_; }

 private:
  /// The division of the builder's active set, derived as the fleet's
  /// rebuild task derives it: delta-patched tier and index, wholesale
  /// fallback.
  void derive() {
    Division next;
    next.map = std::make_shared<const FaceMap>(builder_.build());
    if (hierarchical_) {
      const DivisionDelta delta = builder_.delta_since(*current_.map, *next.map);
      if (delta.valid) {
        HierPatchReport report;
        next.hier = std::make_shared<const HierFaceMap>(
            builder_.patch_hierarchy(*current_.hier, delta, &report));
        if (report.structure_matched)
          next.index = std::make_shared<const SignatureIndex>(
              SignatureIndex::patched(*next.hier, *current_.index, delta, report, pool_));
      }
      if (!next.hier) next.hier = std::make_shared<const HierFaceMap>(builder_.build_hierarchy());
      if (!next.index)
        next.index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*next.hier, pool_));
    }
    next.table = std::make_shared<const SignatureTable>(builder_.take_signature_table());
    next.members = alive_ids(builder_);
    current_ = std::move(next);
  }

  bool hierarchical_;
  ThreadPool& pool_;
  FaceMapBuilder builder_;
  Division current_;
  double build_ms_{0.0};
  double tier_ms_{0.0};
};

/// Fail/revive alternation of `fttt_sim --serve-churn`: fail node k,
/// revive it, move on to k + 1.
struct ChurnSchedule {
  NodeId node{0};
  bool fail_next{true};
  std::size_t roster{0};

  std::pair<NodeId, bool> next() {
    const std::pair<NodeId, bool> e{node, fail_next};
    if (!fail_next) node = static_cast<NodeId>((node + 1) % roster);
    fail_next = !fail_next;
    return e;
  }
};

/// SerialReplay split by track across `parts` replays run on the pool
/// (tracks are independent in the spec: a slot's state depends only on
/// its own frames). Frames are fed in serve order, so each track's frames
/// stay in order.
class Replayer {
 public:
  Replayer(const ServeInputs& in, const Division& initial, ThreadPool& pool, unsigned parts)
      : in_(in), pool_(pool) {
    for (unsigned p = 0; p < parts; ++p)
      parts_.push_back(std::make_unique<SerialReplay>(in.fleet_cfg.track, initial.map,
                                                      initial.table, initial.members, solo_));
    if (initial.hier) adopt(initial);
  }

  /// Serve `d` from the next frame on; every warm start resets, as in
  /// the fleet.
  void adopt(const Division& d) {
    for (const std::unique_ptr<SerialReplay>& r : parts_)
      r->adopt_division(d.map, d.table, d.members, d.hier, d.index);
  }

  /// The spec's update for each key, in order.
  std::vector<TrackUpdate> process(std::span<const FrameKey> keys) {
    std::vector<TrackUpdate> out(keys.size());
    const std::size_t parts = parts_.size();
    parallel_for(
        0, parts,
        [&](std::size_t part) {
          for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i].track % parts == part)
              out[i] = parts_[part]->process(in_.frame(keys[i].round, keys[i].track));
        },
        pool_);
    return out;
  }

 private:
  const ServeInputs& in_;
  ThreadPool& pool_;
  ThreadPool solo_{1};
  std::vector<std::unique_ptr<SerialReplay>> parts_;
};

// ---- correctness gates --------------------------------------------------------

/// serve_table1: fleet updates at the workload's shard count are
/// bit-identical to SerialReplay over the same stream.
void gate_table1(const ServeShape& shape, const ServeInputs& in, ThreadPool& pool,
                 unsigned nproc) {
  const std::string gate = "serve_table1 replay";
  auto fleet = make_fleet(in, pool);
  Replayer replay(in, BuilderReplica(in, pool).division(), pool, nproc);
  for (std::uint32_t r = 0; r < shape.gate_rounds; ++r) {
    std::vector<FrameKey> keys;
    for (std::uint32_t t = 0; t < shape.gate_tracks; ++t) {
      keys.push_back({r, t});
      if (!fleet->submit(in.frame(r, t))) gate_failure(gate, "submit refused");
    }
    const std::string verdict = compare_updates(fleet->tick(), replay.process(keys));
    if (!verdict.empty()) gate_failure(gate, "round " + std::to_string(r) + ": " + verdict);
  }
  if (fleet->stats().tracks != shape.gate_tracks) gate_failure(gate, "tracks dropped");
}

/// serve_dense_churn: with every churn event's rebuild flushed before
/// the next tick, the fleet is bit-identical to a SerialReplay adopting
/// each division (derived independently by a builder replica), and no
/// track is dropped.
void gate_dense(const ServeShape& shape, const ServeInputs& in, ThreadPool& pool,
                unsigned nproc) {
  const std::string gate = "serve_dense_churn flushed replay";
  auto fleet = make_fleet(in, pool);
  BuilderReplica spec_builder(in, pool);
  Replayer replay(in, spec_builder.division(), pool, nproc);
  ChurnSchedule churn{0, true, in.roster.size()};
  std::uint64_t events = 0;
  std::uint64_t updates = 0;
  for (std::uint32_t r = 0; r < shape.gate_rounds; ++r) {
    if (r != 0 && r % shape.churn_ticks == 0) {
      const auto [node, fail] = churn.next();
      if (!(fail ? fleet->fail_node(node) : fleet->revive_node(node)))
        gate_failure(gate, "churn event refused");
      fleet->flush_rebuilds();
      spec_builder.churn(node, fail);
      replay.adopt(spec_builder.division());
      ++events;
    }
    std::vector<FrameKey> keys;
    for (std::uint32_t t = 0; t < shape.gate_tracks; ++t) {
      keys.push_back({r, t});
      if (!fleet->submit(in.frame(r, t))) gate_failure(gate, "submit refused");
    }
    const std::vector<TrackUpdate> got = fleet->tick();
    updates += got.size();
    const std::string verdict = compare_updates(got, replay.process(keys));
    if (!verdict.empty()) gate_failure(gate, "round " + std::to_string(r) + ": " + verdict);
  }
  const TrackManagerFleet::Stats s = fleet->stats();
  std::string verdict = check_accounting(s.enqueued, s.shed, updates, s.tracks, shape.gate_tracks);
  if (verdict.empty() && s.rebuilds != events)
    verdict = std::to_string(s.rebuilds) + " rebuilds adopted for " + std::to_string(events) +
              " flushed events";
  if (!verdict.empty()) gate_failure(gate, verdict);
}

// ---- timed loops ------------------------------------------------------------------

struct ChurnLog {
  std::vector<double> stall_us;   ///< fail_node/revive_node call
  std::vector<double> adopt_ms;   ///< event -> end of the tick that counted it
  struct Pending {
    Clock::time_point at;
    std::uint64_t rebuilds_before;
  };
  std::vector<Pending> pending;

  void event(TrackManagerFleet& fleet, ChurnSchedule& schedule) {
    const std::uint64_t before = fleet.stats().rebuilds;
    const auto [node, fail] = schedule.next();
    const auto t0 = Clock::now();
    const bool ok = fail ? fleet.fail_node(node) : fleet.revive_node(node);
    const auto t1 = Clock::now();
    // The alternation never fails the last alive nodes or an unknown id.
    if (!ok) gate_failure("churn schedule", "fleet refused a valid fail/revive event");
    stall_us.push_back(elapsed_us(t0, t1));
    pending.push_back({t0, before});
  }

  /// After a tick ending at `now` with the fleet's rebuild count at
  /// `rebuilds`: events whose rebuild the fleet has adopted.
  void after_tick(std::uint64_t rebuilds, Clock::time_point now) {
    std::erase_if(pending, [&](const Pending& p) {
      if (rebuilds <= p.rebuilds_before) return false;
      adopt_ms.push_back(elapsed_ms(p.at, now));
      return true;
    });
  }
};

/// What a timed loop served, in serve order, for the replay check after
/// timing: each frame's key and its update's digest, and where the fleet
/// switched divisions. The loop starts on a fresh fleet.
struct ServedLog {
  struct Adoption {
    std::size_t from;             ///< first entry served on the division
    std::vector<NodeId> members;  ///< its alive set, from which a replica derives it
  };
  std::vector<FrameKey> keys;
  std::vector<std::uint64_t> digests;
  std::vector<Adoption> adoptions;
  std::uint64_t rebuilds{0};  ///< the fleet's rebuild count last seen

  void record(const TrackUpdate& u) {
    keys.push_back({static_cast<std::uint32_t>(u.epoch), static_cast<std::uint32_t>(u.track)});
    digests.push_back(update_digest(u));
  }

  /// After a tick, before recording its updates: a moved rebuild count
  /// means the tick adopted a division before resolving its frames.
  void note_rebuilds(const TrackManagerFleet& fleet, std::uint64_t now) {
    if (now == rebuilds) return;
    rebuilds = now;
    adoptions.push_back({keys.size(), fleet.members()});
  }
};

struct ClosedLoop {
  double elapsed_s{0.0};
  std::uint64_t frames{0};
  std::uint64_t updates{0};
  std::uint64_t localizations{0};
  std::vector<double> tick_ms;
  std::vector<double> window_rate;  ///< localizations/s per reporting window
};

/// Closed loop: one round of every track submitted, then tick(), back to
/// back until the budget is spent. Advances `round`; every
/// verify_stride-th track's updates go to `log`.
ClosedLoop closed_loop(const ServeShape& shape, const ServeInputs& in,
                       TrackManagerFleet& fleet, double seconds, std::uint64_t& round,
                       ChurnSchedule& schedule, ChurnLog& churn, ServedLog& log) {
  ClosedLoop out;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::uint64_t ticks = 0;
  auto window_start = t0;
  std::uint64_t window_loc = 0;
  do {
    if (shape.churn_ticks != 0 && ticks != 0 && ticks % shape.churn_ticks == 0)
      churn.event(fleet, schedule);
    for (TrackId t = 0; t < shape.tracks; ++t) fleet.submit(in.frame(round, t));
    out.frames += shape.tracks;
    const auto ts = Clock::now();
    const std::vector<TrackUpdate> ups = fleet.tick();
    const auto te = Clock::now();
    out.tick_ms.push_back(elapsed_ms(ts, te));
    if (shape.churn_ticks != 0) {
      const std::uint64_t rebuilds = fleet.stats().rebuilds;
      churn.after_tick(rebuilds, te);
      log.note_rebuilds(fleet, rebuilds);
    }
    for (const TrackUpdate& u : ups) {
      ++out.updates;
      if (u.estimate) ++out.localizations, ++window_loc;
      if (u.track % shape.verify_stride == 0) log.record(u);
    }
    ++round;
    ++ticks;
    // Windows hold whole churn periods, so each sees the same rebuild load.
    if (shape.rate_window_s > 0.0 && elapsed_s(window_start, te) >= shape.rate_window_s &&
        (shape.churn_ticks == 0 || ticks % shape.churn_ticks == 0)) {
      out.window_rate.push_back(static_cast<double>(window_loc) / elapsed_s(window_start, te));
      window_start = te;
      window_loc = 0;
    }
  } while (Clock::now() < deadline);
  out.elapsed_s = elapsed_s(t0, Clock::now());
  if (out.window_rate.empty())  // one whole-loop window, or a loop shorter than one
    out.window_rate.push_back(static_cast<double>(window_loc) / out.elapsed_s);
  return out;
}

struct OpenLoop {
  double elapsed_s{0.0};
  std::uint64_t offered{0};
  std::uint64_t accepted{0};
  std::uint64_t shed{0};
  std::uint64_t updates{0};
  std::uint64_t late{0};  ///< updated after the SLO limit
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> window_latency_ms;  ///< by the frame's due window
  std::vector<double> queue_wait_ms;
  std::vector<double> tick_frames;
  std::vector<double> gen_late_ms;
  std::vector<double> submit_us;
  std::uint64_t held{0};  ///< frames held back behind their track's previous one
};

/// Service-loop cadence of the open loop.
constexpr auto kTickPeriod = std::chrono::milliseconds(10);

/// Open loop at the workload's rate: a generator thread sends frame i
/// (tracks round-robin) when it is due, the calling thread serves ticks.
/// Each track has at most one frame in flight, as a target's sensor
/// group reports again only after its last report was localized: a frame
/// due before its track's previous update returned is held until then
/// (its latency still runs from its due time). The fleet's queue then
/// never holds more than one frame per track. Every update goes to `log`.
OpenLoop open_loop(const ServeShape& shape, const ServeInputs& in, TrackManagerFleet& fleet,
                   double seconds, std::uint64_t seed, bool traced, std::uint64_t& round,
                   ChurnSchedule& schedule, ChurnLog& churn, ServedLog& log) {
  OpenLoop out;
  const std::uint64_t base_round = round;
  const std::uint64_t tracks = shape.tracks;
  const double slo_ms = in.cfg.localization_period * 1e3;
  const auto total = static_cast<std::uint64_t>(shape.rate * seconds);
  // One frame in flight per track never fills the queue, so no frame is
  // shed and every held frame's predecessor does return.
  if (shape.queue_capacity < tracks)
    gate_failure(std::string(shape.name) + " open loop", "queue smaller than the track count");
  // Due times: a Poisson process at the workload's rate drawn from the
  // seed, as independent senders produce. A fixed period would lock its
  // phase to the service loop's tick and make every frame wait the same
  // share of a tick, decided by start-up timing.
  std::vector<std::chrono::nanoseconds> arrival(total);
  RngStream arrivals = RngStream(seed).substream(~std::uint64_t{0});
  double at_ns = 0.0;
  for (std::chrono::nanoseconds& a : arrival) {
    at_ns += -std::log1p(-arrivals.uniform01()) * 1e9 / shape.rate;
    a = std::chrono::nanoseconds(static_cast<std::int64_t>(at_ns));
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::uint64_t i) { return t0 + arrival[i]; };
  const TrackManagerFleet::Stats before = fleet.stats();
  const std::uint64_t per_window =
      shape.latency_window_s > 0.0
          ? std::max<std::uint64_t>(1,
                                    static_cast<std::uint64_t>(shape.rate * shape.latency_window_s))
          : total;
  out.window_latency_ms.resize((total + per_window - 1) / per_window);
  // Every sample vector is sized up front: a reallocating push_back on
  // the service thread would stall ticks and show up as frame latency.
  for (std::vector<double>& w : out.window_latency_ms) w.reserve(per_window);
  out.latency_ms.reserve(total);
  out.queue_wait_ms.reserve(total);
  out.tick_frames.reserve(total);
  log.keys.reserve(log.keys.size() + total);
  log.digests.reserve(log.digests.size() + total);

  std::atomic<bool> gen_done{false};
  // Updates returned so far per track; frame i is the (i / tracks)-th of
  // its track.
  std::vector<std::atomic<std::uint64_t>> resolved(tracks);
  std::vector<double> gen_late_ms;
  std::vector<double> submit_us;
  gen_late_ms.reserve(total);
  if (traced) submit_us.reserve(total);
  std::thread generator([&] {
    for (std::uint64_t i = 0; i < total; ++i) {
      const auto when = due(i);
      auto now = Clock::now();
      if (now < when) {
        if (when - now > std::chrono::microseconds(300))
          std::this_thread::sleep_until(when - std::chrono::microseconds(200));
        while ((now = Clock::now()) < when) {
        }
      }
      const std::atomic<std::uint64_t>& done_of_track = resolved[i % tracks];
      if (done_of_track.load(std::memory_order_acquire) < i / tracks) {
        ++out.held;
        while (done_of_track.load(std::memory_order_acquire) < i / tracks)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        now = Clock::now();
      }
      ReportFrame f = in.frame(base_round + i / tracks, i % tracks);
      gen_late_ms.push_back(elapsed_ms(when, now));
      if (traced) {
        const auto s0 = Clock::now();
        fleet.submit(std::move(f));
        submit_us.push_back(elapsed_us(s0, Clock::now()));
      } else {
        fleet.submit(std::move(f));
      }
    }
    gen_done.store(true, std::memory_order_release);
  });

  auto next_tick = t0;
  auto next_churn = t0 + std::chrono::duration<double, std::milli>(shape.churn_ms);
  const auto end = total != 0 ? due(total - 1) : t0;
  for (;;) {
    const bool done = gen_done.load(std::memory_order_acquire);
    if (shape.churn_ms > 0.0 && Clock::now() >= next_churn && Clock::now() < end) {
      churn.event(fleet, schedule);
      next_churn += std::chrono::duration<double, std::milli>(shape.churn_ms);
    }
    // The service loop ticks on a fixed cadence (a tick that overruns is
    // followed at once): latency is then the wait for the next tick plus
    // the tick's own work, not the host's wake-up jitter on a thread
    // spinning for single frames.
    std::this_thread::sleep_until(next_tick);
    const auto ts = Clock::now();
    next_tick = std::max(next_tick + kTickPeriod, ts);
    const std::vector<TrackUpdate> ups = fleet.tick();
    const auto te = Clock::now();
    if (shape.churn_ms > 0.0) {
      const std::uint64_t rebuilds = fleet.stats().rebuilds;
      churn.after_tick(rebuilds, te);
      log.note_rebuilds(fleet, rebuilds);
    }
    if (ups.empty()) {
      if (done && fleet.stats().queue_depth == 0) break;
      continue;
    }
    out.tick_frames.push_back(static_cast<double>(ups.size()));
    for (const TrackUpdate& u : ups) {
      const std::uint64_t i = (u.epoch - base_round) * tracks + u.track;
      const double lat = elapsed_ms(due(i), te);
      out.latency_ms.push_back(lat);
      out.window_latency_ms[i / per_window].push_back(lat);
      out.queue_wait_ms.push_back(elapsed_ms(due(i), ts));
      if (lat > slo_ms) ++out.late;
      log.record(u);
      resolved[u.track].store(i / tracks + 1, std::memory_order_release);
    }
    out.updates += ups.size();
  }
  generator.join();
  out.elapsed_s = elapsed_s(t0, Clock::now());
  const TrackManagerFleet::Stats after = fleet.stats();
  out.offered = total;
  out.accepted = after.enqueued - before.enqueued;
  out.shed = (after.shed - before.shed) + (after.rejected - before.rejected);
  out.gen_late_ms = std::move(gen_late_ms);
  out.submit_us = std::move(submit_us);
  round = base_round + (total + tracks - 1) / tracks;
  // A trailing window with few frames cannot carry a p99.
  if (out.window_latency_ms.size() > 1 &&
      out.window_latency_ms.back().size() < per_window / 2)
    out.window_latency_ms.pop_back();
  return out;
}

/// Every update a timed loop logged, replayed through SerialReplay on the
/// divisions the fleet served (each derived again from its alive set by a
/// builder replica): `gate` fails on any update that differs from the spec.
void check_served(const std::string& gate, const ServeInputs& in, const ServedLog& log,
                  ThreadPool& pool, unsigned parts) {
  BuilderReplica replica(in, pool);
  Replayer replay(in, replica.division(), pool, parts);
  constexpr std::size_t kChunk = std::size_t{1} << 16;  // bounds the spec's memory
  std::vector<std::size_t> mismatches;
  std::size_t next = 0;  // next adoption
  for (std::size_t begin = 0; begin < log.keys.size();) {
    for (; next < log.adoptions.size() && log.adoptions[next].from <= begin; ++next) {
      replica.reach(log.adoptions[next].members);
      replay.adopt(replica.division());
    }
    std::size_t end = std::min(begin + kChunk, log.keys.size());
    if (next < log.adoptions.size()) end = std::min(end, log.adoptions[next].from);
    const std::span<const FrameKey> keys(log.keys.data() + begin, end - begin);
    const std::vector<std::size_t> bad = digest_mismatches(
        std::span<const std::uint64_t>(log.digests.data() + begin, end - begin),
        replay.process(keys));
    for (const std::size_t k : bad) mismatches.push_back(begin + k);
    begin = end;
  }
  if (mismatches.empty()) return;
  const FrameKey& k = log.keys[mismatches.front()];
  gate_failure(gate, std::to_string(mismatches.size()) + " of " +
                         std::to_string(log.keys.size()) +
                         " updates differ from SerialReplay (first: track " +
                         std::to_string(k.track) + ", epoch " + std::to_string(k.round) + ")");
}

// ---- replay decomposition -------------------------------------------------------

struct Decomposition {
  std::size_t climbs{0};
  std::size_t warm_hits{0};
  std::size_t colds{0};
  std::size_t fallbacks{0};
  std::size_t fallbacks_won{0};
  double cold_faces{0.0};
  std::size_t frames{0};
  Tracer::Totals vector, climb, cold;
  double replay_wall_us{0.0};  ///< SerialReplay::process over the same frames
};

/// The per-frame pipeline of a shard, one public call at a time on one
/// thread: vector build, warm climb from the previous face, the cold pass
/// (match_one flat / descend hierarchical) below the fallback floor, keep
/// the better. Every result must be bit-identical to SerialReplay::process
/// on the same frames, so the spans time exactly the work the fleet does.
Decomposition decompose(const ServeShape& shape, const ServeInputs& in,
                        const Division& initial) {
  std::vector<ReportFrame> frames;
  for (std::uint64_t r = 0; r < shape.replay_rounds; ++r)
    for (TrackId t = 0; t < shape.replay_tracks; ++t) frames.push_back(in.frame(r, t));

  ThreadPool solo(1);
  BatchMatcher matcher(initial.map, initial.table, BatchMatcher::Config{}, solo);
  if (initial.hier) matcher.attach_hierarchy(initial.hier, initial.index);
  SerialReplay replay(in.fleet_cfg.track, initial.map, initial.table, initial.members, solo);
  const TrackShard::Config& tc = in.fleet_cfg.track;

  Decomposition d;
  Tracer tracer;
  std::vector<TrackUpdate> mine(frames.size());
  std::vector<TrackUpdate> spec(frames.size());
  // SerialReplay pass; adopting the division resets every warm start.
  const auto replay_pass = [&] {
    replay.adopt_division(initial.map, initial.table, initial.members, initial.hier,
                          initial.index);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) spec[i] = replay.process(frames[i]);
    return elapsed_us(t0, Clock::now());
  };
  const auto decomposed_pass = [&](bool count) {
    std::vector<std::optional<FaceId>> warm(shape.replay_tracks);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const ReportFrame& f = frames[i];
      TrackUpdate& u = mine[i];
      u = TrackUpdate{f.track, f.epoch, std::nullopt, false};
      std::optional<FaceId>& prev = warm[f.track];
      if (f.group.reporting_count() < tc.min_reporting) {
        prev.reset();
        continue;
      }
      SamplingVector vd;
      {
        Tracer::Scope s(tracer, "core.vector");
        vd = build_sampling_vector(f.group, tc.eps, tc.mode, tc.missing);
      }
      std::optional<MatchResult> climbed;
      if (prev) {
        Tracer::Scope s(tracer, "core.climb");
        climbed = matcher.climb(vd, *prev);
      }
      if (count && climbed) ++d.climbs;
      MatchResult result;
      if (climbed && climbed->similarity >= tc.fallback_similarity) {
        if (count) ++d.warm_hits;
        result = std::move(*climbed);
        u.warm = true;
      } else {
        MatchResult full;
        {
          Tracer::Scope s(tracer, "core.cold");
          full = initial.hier ? matcher.descend(vd) : matcher.match_one(vd);
        }
        const bool keep_climb = climbed && !(full.similarity > climbed->similarity);
        if (count) {
          ++d.colds;
          d.cold_faces += static_cast<double>(full.faces_examined);
          if (climbed) ++d.fallbacks;
          if (climbed && !keep_climb) ++d.fallbacks_won;
        }
        result = keep_climb ? std::move(*climbed) : std::move(full);
      }
      u.estimate = TrackEstimate{result.position, result.face, result.similarity};
      prev = result.face;
    }
  };

  replay_pass();  // warm-up, untimed
  for (std::size_t rep = 0; rep < shape.replay_reps; ++rep) {
    // Alternate which pass runs first so neither inherits warmer caches.
    if (rep % 2 == 0) {
      d.replay_wall_us += replay_pass();
      decomposed_pass(rep == 0);
    } else {
      decomposed_pass(false);
      d.replay_wall_us += replay_pass();
    }
    const std::string verdict = compare_updates(mine, spec);
    if (!verdict.empty()) gate_failure(std::string(shape.name) + " replay decomposition", verdict);
  }
  d.vector = tracer.totals("core.vector");
  d.climb = tracer.totals("core.climb");
  d.cold = tracer.totals("core.cold");
  d.frames = frames.size();
  return d;
}

// ---- the workload runner --------------------------------------------------------

void run_serve(const ServeShape& shape, const Options& opt, Report& report) {
  // Threads: generator + service thread + pool workers <= nproc.
  const std::size_t workers = opt.nproc > 3 ? opt.nproc - 2 : 1;
  const ServeInputs in = make_inputs(shape, opt);

  // Gates before any timing, in a child process: their fleets, replicas
  // and reference replays never count toward this process's peak RSS.
  run_isolated([&] {
    ThreadPool pool(workers);
    if (shape.churn_ticks == 0) gate_table1(shape, in, pool, opt.nproc);
    else gate_dense(shape, in, pool, opt.nproc);
  });
  ThreadPool pool(workers);
  std::vector<double> probes{host_probe_ms()};

  // setup_s: fleet construction until the first tick can run (initial
  // division, plus the tier when hierarchical). Median of three batches;
  // each batch leaves its last fleet in `fleet`.
  std::vector<double> setup;
  std::unique_ptr<TrackManagerFleet> fleet;
  const auto setup_batch = [&] {
    for (std::size_t k = 0; k < shape.setup_reps; ++k) {
      fleet.reset();
      const auto t0 = Clock::now();
      fleet = make_fleet(in, pool);
      setup.push_back(elapsed_s(t0, Clock::now()));
    }
  };
  setup_batch();

  // The open loop runs first, from round 0, so every run of a seed offers
  // the same frames. The closed loop then gets a fresh fleet (the second
  // setup batch's last), so its log replays from the initial division.
  ChurnSchedule schedule{0, true, in.roster.size()};
  const double open_s = opt.seconds * (opt.trace ? 0.3 : shape.open_share);
  const double closed_s = opt.seconds * (opt.trace ? 0.25 : 1.0 - shape.open_share);
  std::uint64_t round = 0;
  ChurnLog open_churn;
  ServedLog open_log;
  const OpenLoop open = open_loop(shape, in, *fleet, open_s, opt.seed, opt.trace, round,
                                  schedule, open_churn, open_log);
  fleet->flush_rebuilds();
  TrackManagerFleet::Stats stats = fleet->stats();
  // With shedding a track may never have been resolved; that is not a drop.
  const std::size_t open_tracks =
      open.shed == 0 ? std::min<std::size_t>(shape.tracks, open.offered) : stats.tracks;
  std::string verdict =
      check_accounting(stats.enqueued, stats.shed, open.updates, stats.tracks, open_tracks);
  if (!verdict.empty()) gate_failure(std::string(shape.name) + " open-loop accounting", verdict);
  probes.push_back(host_probe_ms());

  setup_batch();
  round = 0;
  schedule = ChurnSchedule{0, true, in.roster.size()};  // every node alive again
  ChurnLog churn;
  ServedLog closed_log;
  const ClosedLoop closed =
      closed_loop(shape, in, *fleet, closed_s, round, schedule, churn, closed_log);
  const double untraced_loc_per_s = quantile(closed.window_rate, 0.5);
  ClosedLoop traced_closed;
  obs::MetricsSnapshot obs_snap;
  if (opt.trace) {
    // Same closed loop with the program's obs recording on: the
    // difference is the tracing overhead; the snapshot feeds the
    // parallel.* and climb-step rows.
    obs::reset();
    obs::set_enabled(true);
    traced_closed = closed_loop(shape, in, *fleet, closed_s, round, schedule, churn, closed_log);
    obs::set_enabled(false);
    obs_snap = obs::snapshot();
  }
  fleet->flush_rebuilds();
  const double peak_mb = peak_rss_mb();
  probes.push_back(host_probe_ms());

  // Correctness of the timed loops: accounting, then every open-loop
  // update and the sampled closed-loop tracks against SerialReplay.
  stats = fleet->stats();
  verdict = check_accounting(stats.enqueued, stats.shed,
                             closed.updates + traced_closed.updates, stats.tracks, shape.tracks);
  if (verdict.empty() && closed.updates != closed.frames) verdict = "closed loop shed frames";
  if (!verdict.empty()) gate_failure(std::string(shape.name) + " closed-loop accounting", verdict);
  setup_batch();
  fleet.reset();
  check_served(std::string(shape.name) + " open-loop replay", in, open_log, pool, opt.nproc);
  check_served(std::string(shape.name) + " closed-loop replay sample", in, closed_log, pool,
               opt.nproc);
  const double drift = host_drift(probes);

  // ---- end-to-end metrics ----
  const std::string closed_note =
      "closed loop, " + std::to_string(shape.tracks) + " tracks, median of " +
      std::to_string(closed.window_rate.size()) + " windows";
  report.add("loc_per_s", quantile(closed.window_rate, 0.5), "1/s", closed.localizations,
             Kind::kEndToEnd, closed_note);
  std::vector<double> p50s, p90s, p99s;
  for (const std::vector<double>& w : open.window_latency_ms) {
    p50s.push_back(quantile(w, 0.5));
    p90s.push_back(quantile(w, 0.9));
    p99s.push_back(quantile(w, 0.99));
  }
  const std::string open_note = "open loop at " + std::to_string(static_cast<long>(shape.rate)) +
                                " frames/s, median of " + std::to_string(p50s.size()) +
                                " windows";
  report.add("frame_p50_ms", quantile(p50s, 0.5), "ms", open.latency_ms.size(),
             Kind::kEndToEnd, open_note);
  report.add("frame_p90_ms", quantile(p90s, 0.5), "ms", open.latency_ms.size(),
             Kind::kEndToEnd, open_note);
  report.add("frame_p99_ms", quantile(p99s, 0.5), "ms", open.latency_ms.size(),
             Kind::kDetail, open_note);
  const std::uint64_t never = open.accepted - open.updates;
  const std::uint64_t misses = open.late + open.shed + never;
  report.add("slo_miss_frac", static_cast<double>(misses) / static_cast<double>(open.offered),
             "frac", open.offered, Kind::kDetail,
             "no update within " +
                 std::to_string(static_cast<long>(in.cfg.localization_period * 1e3)) + " ms");
  const std::uint64_t attempted = closed.frames + traced_closed.frames + open.offered;
  const std::uint64_t failed = open.shed + never;  // the closed loop never sheds (checked)
  report.add("fail_frac", static_cast<double>(failed) / static_cast<double>(attempted), "frac",
             attempted, Kind::kDetail, "shed + rejected + no update");
  report.add("setup_s", quantile(setup, 0.5), "s", setup.size(), Kind::kEndToEnd,
             "fleet construction");
  report.add("peak_rss_mb", peak_mb, "MiB", 1, Kind::kEndToEnd,
             "getrusage after the timed loops (gates run in a child process)");
  report.add("open_loop_held_frames", static_cast<double>(open.held), "count", open.offered,
             Kind::kDetail, "sent late: due before their track's previous update returned");
  report.add("host_probe_ms", quantile(probes, 0.5), "ms", probes.size(), Kind::kDetail,
             "fixed single-thread kernel: the host's speed during this run");
  report.add("host_drift_frac", drift, "frac", probes.size(), Kind::kDetail,
             "probe max/min - 1");
  report.set_counts(attempted, failed);

  // ---- per-layer metrics (traced run) ----
  if (!opt.trace) return;
  report.add("serve.tick_ms.p50", quantile(traced_closed.tick_ms, 0.5), "ms",
             traced_closed.tick_ms.size(), Kind::kLayer, "closed loop");
  report.add("serve.tick_ms.p99", quantile(traced_closed.tick_ms, 0.99), "ms",
             traced_closed.tick_ms.size(), Kind::kLayer);
  report.add("serve.tick_frames", mean_of(open.tick_frames), "frames", open.tick_frames.size(),
             Kind::kLayer, "open loop, non-empty ticks");
  report.add("serve.queue_wait_ms.p99", quantile(open.queue_wait_ms, 0.99), "ms",
             open.queue_wait_ms.size(), Kind::kLayer);
  report.add("serve.submit_us.p99", quantile(open.submit_us, 0.99), "us", open.submit_us.size(),
             Kind::kLayer);
  report.add("serve.churn_stall_us.p50", quantile(open_churn.stall_us, 0.5), "us",
             open_churn.stall_us.size(), Kind::kLayer,
             open_churn.stall_us.empty() ? "no churn on this workload" : "open loop");
  report.add("serve.adopt_lag_ms.p50", quantile(open_churn.adopt_ms, 0.5), "ms",
             open_churn.adopt_ms.size(), Kind::kLayer,
             open_churn.adopt_ms.empty() ? "no churn on this workload" : "open loop");
  report.add("bench.gen_late_ms.p99", quantile(open.gen_late_ms, 0.99), "ms",
             open.gen_late_ms.size(), Kind::kLayer);
  const double traced_loc_per_s = quantile(traced_closed.window_rate, 0.5);
  report.add("obs.overhead_frac", 1.0 - traced_loc_per_s / untraced_loc_per_s, "frac", 2,
             Kind::kLayer, "closed loop loc_per_s, obs on vs off");

  // Program obs exports (no new probes): pool task wait/run, climb steps.
  report_pool_layers(obs_snap, report);
  double climbs = 0.0, climb_steps = 0.0;
  for (const auto& h : obs_snap.histograms)
    if (h.name == "matcher.climb") climbs = static_cast<double>(h.summary.count);
  for (const auto& [name, value] : obs_snap.counters)
    if (name == "matcher.climb.steps") climb_steps = static_cast<double>(value);
  report.add("parallel.scaling_eff", 0.0, "ratio", 0, Kind::kLayer,
             "campaign_random only (not measured here)");
  report.add("core.climb_steps", climbs > 0.0 ? climb_steps / climbs : 0.0, "steps",
             static_cast<std::size_t>(climbs), Kind::kLayer, "obs matcher.climb.steps per climb");

  // Replay decomposition on the initial division.
  BuilderReplica replica(in, pool);
  const Decomposition d = decompose(shape, in, replica.division());
  const auto per_call = [](const Tracer::Totals& t) {
    return t.count ? t.self_us / static_cast<double>(t.count) : 0.0;
  };
  report.add("core.vector_us", per_call(d.vector), "us", d.vector.count, Kind::kLayer);
  report.add("core.climb_us", per_call(d.climb), "us", d.climb.count, Kind::kLayer);
  report.add("core.warm_hit_frac",
             d.climbs ? static_cast<double>(d.warm_hits) / static_cast<double>(d.climbs) : 0.0,
             "frac", d.climbs, Kind::kLayer);
  report.add("core.cold_us", per_call(d.cold), "us", d.cold.count, Kind::kLayer,
             shape.hierarchical ? "descend" : "match_one");
  report.add("core.cold_faces_examined",
             d.colds ? d.cold_faces / static_cast<double>(d.colds) : 0.0, "faces", d.colds,
             Kind::kLayer, "of " + std::to_string(replica.division().map->face_count()));
  report.add("core.fallback_won_frac",
             d.fallbacks ? static_cast<double>(d.fallbacks_won) / static_cast<double>(d.fallbacks)
                         : 0.0,
             "frac", d.fallbacks, Kind::kLayer);
  const double covered = d.vector.self_us + d.climb.self_us + d.cold.self_us;
  report.add("bench.layer_cover_frac", covered / d.replay_wall_us, "frac", d.frames,
             Kind::kLayer, "vector+climb+cold self time / SerialReplay wall");

  // Builder replica: preprocessing, tier, churn rebuild, division size.
  std::vector<double> rebuild_ms;
  ChurnSchedule replica_churn{0, true, in.roster.size()};
  for (int k = 0; k < (opt.smoke ? 2 : 4); ++k) {
    const auto [node, fail] = replica_churn.next();
    rebuild_ms.push_back(replica.churn(node, fail));
  }
  const Division& div = replica.division();
  report.add("core.build_ms", replica.build_ms(), "ms", 1, Kind::kLayer,
             "FaceMapBuilder::build, initial division");
  report.add("core.tier_ms", replica.tier_ms(), "ms", shape.hierarchical ? 1 : 0, Kind::kLayer,
             shape.hierarchical ? "build_hierarchy + index" : "flat matcher: no tier");
  report.add("core.rebuild_ms", quantile(rebuild_ms, 0.5), "ms", rebuild_ms.size(),
             Kind::kLayer, "median churn event on a builder replica");
  report.add("core.division_bytes_per_face",
             static_cast<double>(div.bytes()) / static_cast<double>(div.map->face_count()),
             "B", div.map->face_count(), Kind::kLayer);
  report.add("net.collect_group_us", in.collect_us, "us", in.collect_samples, Kind::kLayer,
             "frame pre-generation (load generator)");
  // Campaign-only layers: no such work on a serve workload.
  report.add("core.scan_us", 0.0, "us", 0, Kind::kLayer, "campaign_random only");
  report.add("net.deploy_us", 0.0, "us", 0, Kind::kLayer, "campaign_random only");
  report.add("sim.alloc_bytes_per_trial", 0.0, "B", 0, Kind::kLayer, "campaign_random only");
}

}  // namespace

std::size_t same_tick_probe() {
  ServeShape shape = table1_shape(false);
  shape.tracks = 256;
  shape.frame_rounds = 9;
  Options opt;
  const ServeInputs in = make_inputs(shape, opt);
  ThreadPool pool(2);
  auto fleet = make_fleet(in, pool);
  Replayer replay(in, BuilderReplica(in, pool).division(), pool, 2);
  // Round 0 alone warms every track; then rounds (1, 2), (3, 4), ... share
  // a tick, so a round whose frame falls back to the batch pass precedes
  // its track's next frame within one tick.
  std::size_t differ = 0;
  const auto tick_rounds = [&](std::uint32_t first, std::uint32_t last) {
    std::vector<FrameKey> keys;
    for (std::uint32_t r = first; r <= last; ++r)
      for (std::uint32_t t = 0; t < shape.tracks; ++t) {
        keys.push_back({r, t});
        fleet->submit(in.frame(r, t));
      }
    // Matched by (round, track), so the count does not depend on the
    // order in which the tick returns one track's two updates.
    std::vector<std::uint64_t> digests(keys.size());
    for (const TrackUpdate& u : fleet->tick())
      digests.at((u.epoch - first) * shape.tracks + u.track) = update_digest(u);
    differ += digest_mismatches(digests, replay.process(keys)).size();
  };
  tick_rounds(0, 0);
  for (std::uint32_t r = 1; r + 1 < shape.frame_rounds; r += 2) tick_rounds(r, r + 1);
  return differ;
}

void run_serve_table1(const Options& opt, Report& report) {
  run_serve(table1_shape(opt.smoke), opt, report);
}

void run_serve_dense_churn(const Options& opt, Report& report) {
  run_serve(dense_shape(opt.smoke), opt, report);
}

}  // namespace perfbench
