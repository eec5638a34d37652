#include "serve/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fttt {

TrackShard::TrackShard(Config config, ThreadPool& pool)
    : config_(config), pool_(&pool) {
  if (config_.min_reporting < 2)
    throw std::invalid_argument("TrackShard: min_reporting < 2 (a lone column orders no pair)");
}

void TrackShard::adopt_division(Division division, std::vector<NodeId> members) {
  if (!division.map || !division.table)
    throw std::invalid_argument("TrackShard::adopt_division: null map/table");
  if (static_cast<bool>(division.hier) != static_cast<bool>(division.index))
    throw std::invalid_argument(
        "TrackShard::adopt_division: hier/index must come together");
  if (members.size() != division.map->nodes().size())
    throw std::invalid_argument(
        "TrackShard::adopt_division: member count != division deployment");
  if (!std::is_sorted(members.begin(), members.end()) ||
      std::adjacent_find(members.begin(), members.end()) != members.end())
    throw std::invalid_argument(
        "TrackShard::adopt_division: members must be strictly ascending");
  members_ = std::move(members);
  matcher_ = std::make_unique<BatchMatcher>(std::move(division.map),
                                            std::move(division.table),
                                            BatchMatcher::Config{}, *pool_);
  if (division.hier)
    matcher_->attach_hierarchy(std::move(division.hier), std::move(division.index));
  else if (config_.hierarchical)
    matcher_->build_hierarchy();
  // Face ids are an artifact of the division: a track's previous face
  // means nothing under the new one, so every next climb cold-starts
  // (through the exhaustive batch pass). Slots survive — churn holds
  // tracks, it never drops them.
  for (TrackSlot& slot : slots_) slot.warm.reset();
}

std::size_t TrackShard::slot_for(TrackId track) {
  const auto [it, inserted] = index_.try_emplace(track, slots_.size());
  if (inserted) slots_.push_back(TrackSlot{track, std::nullopt, 0, 0, 0});
  return it->second;
}

GroupingSampling TrackShard::project(const GroupingSampling& group) const {
  GroupingSampling projected(members_.size(), group.instants());
  for (std::size_t local = 0; local < members_.size(); ++local) {
    const NodeId global = members_[local];
    FTTT_DCHECK(global < group.node_count(), "TrackShard::project: member ", global,
                " outside roster of ", group.node_count());
    if (group.has(global)) projected.set_column(local, group.column(global));
  }
  return projected;
}

void TrackShard::resolve(std::span<const ReportFrame* const> frames, TrackUpdate* out) {
  FTTT_CHECK(matcher_ != nullptr, "TrackShard::resolve before adopt_division");
  FTTT_OBS_SPAN("serve.shard.resolve");

  // Round of each frame: how many frames of its track precede it in
  // this call.
  ++ticks_;
  std::vector<std::size_t> slot(frames.size());
  std::vector<std::uint32_t> round_of(frames.size());
  std::uint32_t rounds = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    slot[i] = slot_for(frames[i]->track);
    TrackSlot& s = slots_[slot[i]];
    if (s.tick != ticks_) {
      s.tick = ticks_;
      s.tick_frames = 0;
    }
    round_of[i] = s.tick_frames++;
    rounds = std::max(rounds, s.tick_frames);
  }
  for (std::uint32_t r = 0; r < rounds; ++r) resolve_round(frames, slot, round_of, r, out);
}

void TrackShard::resolve_round(std::span<const ReportFrame* const> frames,
                               const std::vector<std::size_t>& slot,
                               const std::vector<std::uint32_t>& round_of,
                               std::uint32_t round, TrackUpdate* out) {
  std::vector<std::size_t> which;  // vds_[k] is frames[which[k]]'s vector
  which.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (round_of[i] != round) continue;
    const ReportFrame& frame = *frames[i];
    out[i] = TrackUpdate{frame.track, frame.epoch, std::nullopt, false};

    const bool identity = members_.size() == frame.group.node_count();
    const GroupingSampling projected = identity ? GroupingSampling{} : project(frame.group);
    const GroupingSampling& group = identity ? frame.group : projected;

    // Coverage gate: with almost nobody reporting there is no
    // information; do not feed the matcher noise, and cold-start the
    // next climb (the track may have moved arbitrarily meanwhile).
    if (group.reporting_count() < config_.min_reporting) {
      slots_[slot[i]].warm.reset();
      continue;
    }
    if (which.size() == vds_.size()) vds_.emplace_back();
    vds_[which.size()] =
        build_sampling_vector(group, config_.eps, config_.mode, config_.missing);
    which.push_back(i);
  }
  if (which.empty()) return;

  std::vector<LocalizeRequest> requests(which.size());
  for (std::size_t k = 0; k < which.size(); ++k)
    requests[k] = LocalizeRequest{&vds_[k], slots_[slot[which[k]]].warm};
  matcher_->localize(requests, config_.fallback_similarity, localized_);

  std::size_t residue = 0;
  for (std::size_t k = 0; k < which.size(); ++k) {
    const Localized& l = localized_[k];
    const MatchResult& r = l.match;
    TrackSlot& s = slots_[slot[which[k]]];
    if (requests[k].start) ++climbs_;
    if (l.fell_back) ++fallbacks_;
    if (!l.warm) ++residue;
    TrackUpdate& update = out[which[k]];
    update.estimate = TrackEstimate{r.position, r.face, r.similarity};
    update.warm = l.warm;
    s.warm = r.face;
    ++s.localizations;
    ++localizations_;
  }
  if (residue > 0) FTTT_OBS_HIST("serve.shard.batch", "vectors", residue);
}

}  // namespace fttt
