/**
 * @file
 * Urban street scenario: pedestrians crossing, bicycles, dense signs.
 * Demonstrates the paper's predictability story on real execution --
 * the drive deliberately breaks the localizer's motion model mid-run
 * (a GPS-style reinitialization far from the truth) to force a
 * relocalization, and wanders off the mission route to trigger a
 * MISPLAN replan. The per-frame LOC latency log shows the
 * relocalization spike that motivates tail-latency metrics.
 *
 * Usage: urban_intersection [--frames=60] [--seed=3]
 */

#include <cmath>
#include <cstdio>

#include "common/config.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 60);
    Rng rng(cfg.getInt("seed", 3));

    std::printf("== urban intersection scenario ==\n");
    sensors::ScenarioParams sp;
    sp.roadLength = 250.0;
    sp.pedestrians = 5;
    sp.bicycles = 3;
    sensors::Scenario scenario = sensors::makeUrbanScenario(rng, sp);
    sensors::Camera camera(sensors::Resolution::HHD);
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1);
    std::printf("prior map: %zu points (%.0f KB)\n", map.size(),
                map.storageBytes() / 1e3);

    // A small road network for the mission planner.
    planning::RoadGraph graph;
    const double laneY = scenario.world.road().laneCenter(1);
    int prev = -1;
    for (double x = 0; x <= sp.roadLength; x += 50.0) {
        const int n = graph.addNode({x, laneY});
        if (prev >= 0)
            graph.addBidirectional(prev, n);
        prev = n;
    }

    pipeline::PipelineParams params;
    // Urban scenes need finer detector input: pedestrians and
    // bicycles are small (the accuracy-vs-resolution effect the
    // paper's Section 5.4 discusses).
    params.detector.inputSize = 224;
    params.detector.width = 0.25;
    params.trackerPool.tracker.cropSize = 32;
    params.trackerPool.tracker.width = 0.1;
    params.laneCenterY = laneY;
    params.motionPlanner.cruiseSpeed = 8.0;
    pipeline::Pipeline pipe(&map, &camera, &graph, params);

    Pose2 ego = scenario.ego.pose;
    const double speed = 8.0;
    pipe.reset(ego, {speed, 0}, {sp.roadLength - 10, laneY});

    sensors::World world = scenario.world;
    int relocalizations = 0;
    int pedestriansSeen = 0;
    double worstLocMs = 0;
    double normalLocSum = 0;
    int normalLocCount = 0;

    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        ego.pos.x += speed * 0.1;

        if (i == frames / 2) {
            // Break the motion model: teleport the localizer's belief
            // 80 m backward (sensor glitch / tunnel exit).
            std::printf("frame %d: corrupting pose belief by -80 m\n",
                        i);
            pipe.localizer().reset(
                Pose2(ego.pos.x - 80.0, ego.pos.y, 0.0), {speed, 0});
        }

        const sensors::Frame frame = camera.render(world, ego);
        // At the default pipeline.depth of 1 submitFrame returns
        // exactly this frame's output.
        const auto out = pipe.submitFrame(frame.image, 0.1, speed).front();

        if (out.localization.relocalized) {
            ++relocalizations;
            std::printf("frame %d: RELOCALIZED in %.1f ms (normal "
                        "frames avg %.1f ms) -> pose error %.2f m\n",
                        i, out.latencies.locMs,
                        normalLocCount
                            ? normalLocSum / normalLocCount
                            : 0.0,
                        out.localization.pose.distanceTo(ego));
            worstLocMs = std::max(worstLocMs, out.latencies.locMs);
        } else {
            normalLocSum += out.latencies.locMs;
            ++normalLocCount;
        }
        for (const auto& t : out.tracks)
            pedestriansSeen +=
                t.cls == sensors::ObjectClass::Pedestrian;
        if (out.missionReplanned)
            std::printf("frame %d: MISPLAN replanned the route\n", i);
    }

    std::printf("\nsummary over %d frames:\n", frames);
    std::printf("  relocalizations      %d (localizer total %d)\n",
                relocalizations, pipe.localizer().relocalizationCount());
    std::printf("  pedestrian tracks    %d frame-observations\n",
                pedestriansSeen);
    std::printf("  LOC latency          %s\n",
                pipe.locLatency().summary().toString().c_str());
    const auto s = pipe.locLatency().summary();
    std::printf("  LOC tail/mean        %.2fx -- the predictability "
                "argument of Section 2.4.2\n",
                s.mean > 0 ? s.worst / s.mean : 0.0);
    return 0;
}
