/**
 * @file
 * Quickstart: the smallest complete use of the library.
 *
 * Builds a synthetic highway world, surveys it into a prior map, runs
 * the full end-to-end pipeline (detection, tracking, localization,
 * fusion, motion planning, control) over a camera stream, prints the
 * per-stage latency statistics the paper reports, and checks a
 * modeled accelerator configuration against all Section 2.4 design
 * constraints.
 *
 * Usage: quickstart [--frames=100] [--seed=1]
 */

#include <cstdio>

#include "common/config.hh"
#include "pipeline/constraints.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 100);
    Rng rng(cfg.getInt("seed", 1));

    std::printf("== autodrive quickstart ==\n");

    // 1. A synthetic world and a camera.
    sensors::ScenarioParams sp;
    sp.roadLength = 300.0;
    sensors::Scenario scenario = sensors::makeHighwayScenario(rng, sp);
    sensors::Camera camera(sensors::Resolution::HHD);

    // 2. Survey the road into a prior map (the storage constraint's
    //    subject, Section 2.4.3).
    std::printf("surveying prior map...\n");
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1);
    std::printf("prior map: %zu landmarks, %.1f KB (%.1f points/m)\n",
                map.size(), map.storageBytes() / 1e3,
                map.pointsPerMeter());

    // 3. The end-to-end pipeline (measured mode, CPU-friendly scale).
    pipeline::PipelineParams params;
    params.detector.inputSize = 160;
    params.detector.width = 0.25;
    params.trackerPool.tracker.cropSize = 32;
    params.trackerPool.tracker.width = 0.1;
    params.laneCenterY = scenario.world.road().laneCenter(1);
    params.motionPlanner.cruiseSpeed = scenario.ego.speed;
    pipeline::Pipeline pipe(&map, &camera, nullptr, params);

    Pose2 ego = scenario.ego.pose;
    pipe.reset(ego, {scenario.ego.speed, 0},
               {scenario.world.road().length - 10, params.laneCenterY});

    // 4. Drive.
    sensors::World world = scenario.world;
    int localized = 0;
    int detections = 0;
    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        ego.pos.x += scenario.ego.speed * 0.1;
        if (ego.pos.x > world.road().length - 20)
            ego.pos.x = 20; // loop the stretch
        const sensors::Frame frame = camera.render(world, ego);
        // At the default pipeline.depth of 1 submitFrame returns
        // exactly this frame's output.
        const auto out =
            pipe.submitFrame(frame.image, 0.1, scenario.ego.speed)
                .front();
        localized += out.localization.ok;
        detections += static_cast<int>(out.detections.size());
    }

    std::printf("\nprocessed %d frames: %d localized, %d detections\n",
                frames, localized, detections);
    std::printf("per-stage latency (measured on this host):\n");
    std::printf("  DET     %s\n",
                pipe.detLatency().summary().toString().c_str());
    std::printf("  TRA     %s\n",
                pipe.traLatency().summary().toString().c_str());
    std::printf("  LOC     %s\n",
                pipe.locLatency().summary().toString().c_str());
    std::printf("  FUSION  %s\n",
                pipe.fusionLatency().summary().toString().c_str());
    std::printf("  MOTPLAN %s\n",
                pipe.motPlanLatency().summary().toString().c_str());
    std::printf("  E2E     %s\n",
                pipe.endToEndLatency().summary().toString().c_str());

    // 5. Check modeled accelerator designs against the paper's
    //    design constraints: the fastest design (GPU DET) trades away
    //    driving range; the all-ASIC design satisfies everything.
    pipeline::SystemModel model;
    pipeline::ConstraintChecker checker;
    const auto report = [&](const char* title,
                            const pipeline::SystemConfig& config) {
        std::printf("\nmodeled design check (%s, 8 cameras, KITTI "
                    "resolution):\n", title);
        const auto assessment = model.assess(config, 50000, rng);
        std::printf("  e2e mean %.1f ms, p99.99 %.1f ms; system %.0f W;"
                    " range -%.1f%%\n",
                    assessment.meanMs, assessment.tailMs,
                    assessment.power.totalW(),
                    assessment.rangeReductionPct);
        for (const auto& v : checker.check(assessment))
            std::printf("  [%s] %-14s %s\n", v.satisfied ? "ok" : "FAIL",
                        v.constraint.c_str(), v.detail.c_str());
    };

    pipeline::SystemConfig fastest;
    fastest.det = accel::Platform::Gpu;
    fastest.tra = accel::Platform::Asic;
    fastest.loc = accel::Platform::Asic;
    report("DET:GPU TRA:ASIC LOC:ASIC -- fastest", fastest);

    pipeline::SystemConfig frugal;
    frugal.det = accel::Platform::Asic;
    frugal.tra = accel::Platform::Asic;
    frugal.loc = accel::Platform::Asic;
    report("all-ASIC -- most efficient", frugal);
    return 0;
}
