/**
 * @file
 * Highway cruising, closed loop: the ego vehicle is driven by the
 * pipeline's own control output (pure pursuit + PI speed on the
 * conformal-lattice plan), perception runs on rendered frames, and the
 * example reports tracking continuity, lane keeping quality and a
 * platform comparison for the same drive under the paper's modeled
 * accelerator configurations.
 *
 * Usage: highway_scenario [--frames=150] [--seed=2]
 */

#include <cmath>
#include <cstdio>

#include "common/config.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/system_model.hh"
#include "planning/control.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 150);
    Rng rng(cfg.getInt("seed", 2));

    std::printf("== highway scenario (closed loop) ==\n");
    sensors::ScenarioParams sp;
    sp.roadLength = 400.0;
    sp.vehicles = 10;
    sensors::Scenario scenario = sensors::makeHighwayScenario(rng, sp);
    sensors::Camera camera(sensors::Resolution::HHD);
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1);

    pipeline::PipelineParams params;
    params.detector.inputSize = 160;
    params.detector.width = 0.25;
    params.trackerPool.tracker.cropSize = 32;
    params.trackerPool.tracker.width = 0.1;
    params.laneCenterY = scenario.world.road().laneCenter(1);
    params.motionPlanner.cruiseSpeed = 20.0;
    pipeline::Pipeline pipe(&map, &camera, nullptr, params);

    planning::VehicleState ego;
    ego.pose = scenario.ego.pose;
    ego.speed = 15.0;
    pipe.reset(ego.pose, {ego.speed, 0},
               {scenario.world.road().length - 10, params.laneCenterY});
    // Wheel odometry feeds the localizer's motion model -- important
    // in closed loop, where steering changes the heading.
    sensors::WheelOdometry odometry(17);

    sensors::World world = scenario.world;
    double worstLaneError = 0;
    double speedSum = 0;
    int trackedFrames = 0;
    int maxTracks = 0;
    const double dt = 0.1;

    for (int i = 0; i < frames; ++i) {
        world.step(dt);
        const sensors::Frame frame = camera.render(world, ego.pose);
        // At the default pipeline.depth of 1 submitFrame returns
        // exactly this frame's output.
        const auto out =
            pipe.submitFrame(frame.image, dt, ego.speed).front();

        // Close the loop: the pipeline's command drives the vehicle.
        const Pose2 prevPose = ego.pose;
        ego = planning::stepBicycleModel(ego, out.command, dt);
        pipe.feedOdometry(odometry.measure(prevPose, ego.pose, dt));
        if (ego.pose.pos.x > world.road().length - 30) {
            ego.pose.pos.x = 30; // loop the stretch
            pipe.localizer().reset(ego.pose, {ego.speed, 0});
        }

        worstLaneError = std::max(
            worstLaneError,
            std::fabs(ego.pose.pos.y - params.laneCenterY));
        speedSum += ego.speed;
        trackedFrames += !out.tracks.empty();
        maxTracks = std::max(maxTracks,
                             static_cast<int>(out.tracks.size()));
    }

    std::printf("closed-loop drive: %d frames\n", frames);
    std::printf("  worst lane error     %.2f m\n", worstLaneError);
    std::printf("  mean speed           %.1f m/s\n", speedSum / frames);
    std::printf("  frames with tracks   %d (max %d simultaneous)\n",
                trackedFrames, maxTracks);
    std::printf("  e2e latency          %s\n",
                pipe.endToEndLatency().summary().toString().c_str());

    // The same highway workload under the paper's platforms.
    std::printf("\nmodeled platform comparison (Figure 10 shape):\n");
    std::printf("  %-6s %10s %12s %8s\n", "all-on", "mean(ms)",
                "p99.99(ms)", "power(W)");
    pipeline::SystemModel model;
    for (int p = 0; p < accel::kNumPlatforms; ++p) {
        pipeline::SystemConfig c;
        c.det = c.tra = c.loc = static_cast<accel::Platform>(p);
        const auto a = model.assess(c, 30000, rng);
        std::printf("  %-6s %10.1f %12.1f %8.0f\n",
                    accel::platformName(c.det), a.meanMs, a.tailMs,
                    model.computePowerW(c));
    }
    return 0;
}
