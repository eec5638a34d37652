#include "core/tracker.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace fttt {

FtttTracker::FtttTracker(std::shared_ptr<const FaceMap> map, Config config,
                         std::shared_ptr<const SignatureTable> table)
    : map_(std::move(map)), config_(config), batch_(map_, std::move(table)) {
  if (config_.hierarchical) batch_.build_hierarchy();
}

TrackEstimate FtttTracker::localize(const GroupingSampling& group) {
  if (group.node_count() != map_->nodes().size())
    throw std::invalid_argument("FtttTracker: grouping sampling node count != map deployment");
  return localize(
      build_sampling_vector(group, config_.eps, config_.mode, config_.missing));
}

TrackEstimate FtttTracker::localize(const SamplingVector& vd) {
  FTTT_OBS_SPAN("tracker.localize");

  // Both paths run on the SoA signature table (bit-identical to the
  // scalar reference matchers, see core/batch_matcher.hpp).
  LocalizeRequest request{&vd, std::nullopt};
  if (config_.use_heuristic) {
    // Warm start from the previous localization when available; a cold
    // start begins at the field-center face (Algorithm 2's
    // Initialization()).
    request.start =
        previous_face_.value_or(map_->face_at(map_->grid().extent().center()));
    FTTT_OBS_COUNT("tracker.climb.calls", 1);
  } else {
    FTTT_OBS_COUNT("tracker.exhaustive.calls", 1);
  }
  std::vector<Localized> out;
  batch_.localize(std::span<const LocalizeRequest>(&request, 1), config_.fallback_similarity,
                  out);
  const Localized& localized = out.front();
  if (localized.fell_back) {
    ++stats_.fallbacks;
    FTTT_OBS_COUNT("tracker.fallbacks", 1);
  }
  const MatchResult& result = localized.match;

  ++stats_.localizations;
  stats_.faces_examined += result.faces_examined;
  FTTT_OBS_COUNT("tracker.localizations", 1);
  FTTT_OBS_COUNT("tracker.faces_examined", result.faces_examined);
  previous_face_ = result.face;
  return TrackEstimate{result.position, result.face, result.similarity};
}

std::vector<TrackEstimate> FtttTracker::localize_batch(
    const std::vector<const GroupingSampling*>& groups) {
  FTTT_OBS_SPAN("tracker.localize_batch");
  FTTT_OBS_HIST("tracker.batch.size", "vectors", groups.size());
  std::vector<SamplingVector> vds;
  vds.reserve(groups.size());
  for (const GroupingSampling* group : groups) {
    if (!group || group->node_count() != map_->nodes().size())
      throw std::invalid_argument(
          "FtttTracker: grouping sampling node count != map deployment");
    vds.push_back(build_sampling_vector(*group, config_.eps, config_.mode,
                                        config_.missing));
  }

  const std::vector<MatchResult> matches = batch_.match(vds);
  std::vector<TrackEstimate> estimates;
  estimates.reserve(matches.size());
  for (const MatchResult& m : matches) {
    ++stats_.localizations;
    stats_.faces_examined += m.faces_examined;
    estimates.push_back(TrackEstimate{m.position, m.face, m.similarity});
  }
  FTTT_OBS_COUNT("tracker.localizations", matches.size());
  return estimates;
}

std::vector<TrackEstimate> FtttTracker::localize_batch(
    const std::vector<GroupingSampling>& groups) {
  std::vector<const GroupingSampling*> ptrs;
  ptrs.reserve(groups.size());
  for (const GroupingSampling& g : groups) ptrs.push_back(&g);
  return localize_batch(ptrs);
}

}  // namespace fttt
