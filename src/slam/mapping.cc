#include "slam/mapping.hh"

#include <cmath>

#include "obs/trace.hh"

namespace ad::slam {

PriorMap
buildPriorMap(const sensors::World& world, const sensors::Camera& camera,
              int lane, const MappingParams& params)
{
    // Survey copy without transient actors.
    sensors::World survey;
    survey.road() = world.road();
    for (const auto& lm : world.landmarks())
        survey.landmarks().push_back(lm);

    PriorMap map;
    vision::OrbExtractor orb(params.orb);
    const double y = world.road().laneCenter(lane);

    // The survey runs before any frame: this root span encloses its
    // loc.fe.* extraction spans, which would otherwise have no parent.
    obs::TraceSpan span(obs::tracer(), "slam.survey", "loc");
    for (double x = 0.0; x < world.road().length;
         x += params.poseSpacing) {
        const Pose2 ego(x, y, 0.0);
        const sensors::Frame frame = camera.render(survey, ego);
        const auto features = orb.extract(frame.image);

        // Visible landmark rectangles for feature anchoring.
        struct VisibleBoard
        {
            const sensors::Landmark* lm;
            BBox rect;
        };
        std::vector<VisibleBoard> boards;
        for (const auto& lm : survey.landmarks()) {
            BBox rect;
            double depth;
            if (camera.landmarkRect(ego, lm, rect, depth))
                boards.push_back({&lm, rect});
        }

        for (const auto& f : features) {
            Vec2 worldPos;
            float height = 0.0f;
            bool anchored = false;

            for (const auto& b : boards) {
                if (!b.rect.contains(f.kp.x, f.kp.y))
                    continue;
                // Invert the board's rectangle mapping: image-left is
                // the +width/2 lateral side (see Camera::render).
                const double s = (f.kp.x - b.rect.x) / b.rect.w;
                const double t = (f.kp.y - b.rect.y) / b.rect.h;
                worldPos = b.lm->pos +
                    Vec2{0.0, b.lm->width / 2.0 - s * b.lm->width};
                height = static_cast<float>(
                    b.lm->baseHeight + (1.0 - t) * b.lm->height);
                anchored = true;
                break;
            }

            if (!anchored) {
                // Ground features (lane-marking dash corners).
                if (!camera.unprojectGround(ego, f.kp.x, f.kp.y, worldPos))
                    continue;
                // Reject very distant ground features: their world
                // position is too depth-sensitive to be map-worthy.
                if ((worldPos - ego.pos).norm() > 40.0)
                    continue;
                height = 0.0f;
            }

            if (map.findSimilar(worldPos, params.dedupeRadius, f.desc,
                                params.dedupeHamming) >= 0)
                continue;
            map.insert(worldPos, height, f.desc);
        }
    }
    return map;
}

} // namespace ad::slam
