#include "pipeline/simulation.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ad::pipeline {

Simulation::Simulation(const sensors::Scenario& scenario,
                       const slam::PriorMap* map,
                       const sensors::Camera* camera,
                       const planning::RoadGraph* roadGraph,
                       const SimulationParams& params)
    : params_(params), world_(scenario.world), camera_(camera),
      pipeline_(map, camera, roadGraph, params.pipeline),
      odometry_(params.odometrySeed),
      laneCenterY_(params.pipeline.laneCenterY)
{
    // Each frame's command drives the next frame's render, so every
    // frame must commit before step() returns.
    if (params.pipeline.depth != 1)
        fatal("Simulation: the closed loop needs pipeline.depth 1, got ",
              params.pipeline.depth);
    ego_.pose = scenario.ego.pose;
    ego_.speed = scenario.ego.speed;
    pipeline_.reset(ego_.pose, {ego_.speed, 0},
                    {world_.road().length - 10.0, laneCenterY_});
}

FrameOutput
Simulation::step()
{
    const double dt = params_.dt;
    world_.step(dt);

    const sensors::Frame frame =
        camera_->render(world_, ego_.pose, params_.conditions);
    FrameOutput out =
        std::move(pipeline_.submitFrame(frame.image, dt, ego_.speed)
                      .front());

    // Close the loop: the command drives the bicycle model; odometry
    // over the executed motion feeds the next frame's prediction.
    const Pose2 prevPose = ego_.pose;
    ego_ = planning::stepBicycleModel(ego_, out.command, dt);
    if (params_.useOdometry)
        pipeline_.feedOdometry(
            odometry_.measure(prevPose, ego_.pose, dt));

    // Metrics.
    ++metrics_.frames;
    metrics_.localizedFrames += out.localization.ok;
    metrics_.relocalizations += out.localization.relocalized;
    metrics_.missionReplans += out.missionReplanned;
    metrics_.distanceTraveled += (ego_.pose.pos - prevPose.pos).norm();
    metrics_.maxLaneError =
        std::max(metrics_.maxLaneError,
                 std::fabs(ego_.pose.pos.y - laneCenterY_));
    if (out.localization.ok)
        // Compare against the pose the frame was rendered from.
        metrics_.maxLocalizationError = std::max(
            metrics_.maxLocalizationError,
            out.localization.pose.distanceTo(prevPose));
    bool inCollision = false;
    for (const auto& actor : world_.actors()) {
        const double clearance =
            (actor.pose.pos - ego_.pose.pos).norm();
        metrics_.minActorClearance =
            std::min(metrics_.minActorClearance, clearance);
        inCollision |= clearance < params_.collisionRadius;
    }
    metrics_.collisionFrames += inCollision;
    speedSum_ += ego_.speed;
    metrics_.meanSpeed = speedSum_ / metrics_.frames;
    return out;
}

void
Simulation::run(int frames)
{
    for (int i = 0; i < frames; ++i)
        step();
}

} // namespace ad::pipeline
