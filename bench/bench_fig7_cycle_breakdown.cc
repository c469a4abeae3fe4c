/**
 * @file
 * Reproduces Figure 7: the cycle breakdown of the three bottleneck
 * engines, *measured* by executing the real algorithm implementations
 * on this host -- the DNN share of DET and TRA and the
 * feature-extraction share of LOC.
 *
 * Paper anchors: DNN is 99.4% of DET and 99.0% of TRA; FE is 85.9% of
 * LOC. (Our reduced-scale nets run a shallower decode pipeline on a
 * slower host, so the exact shares shift a little; the shape -- each
 * engine overwhelmingly dominated by its accelerable kernel -- is the
 * reproduced result.)
 *
 * Usage: bench_fig7_cycle_breakdown [--frames=20]
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/config.hh"
#include "pipeline/pipeline.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

int
main(int argc, char** argv)
{
    using namespace ad;
    const Config cfg = Config::fromArgs(argc, argv);
    const int frames = cfg.getInt("frames", 20);
    bench::printHeader("Figure 7",
                       "cycle breakdown of DET / TRA / LOC (measured "
                       "on this host)");

    Rng rng(7);
    sensors::ScenarioParams sp;
    sp.roadLength = 200.0;
    sp.vehicles = 6;
    sensors::Scenario scenario = sensors::makeHighwayScenario(rng, sp);
    sensors::Camera camera(sensors::Resolution::HHD);
    const slam::PriorMap map =
        slam::buildPriorMap(scenario.world, camera, 1);

    pipeline::PipelineParams params;
    params.detector.inputSize = 224;
    params.detector.width = 0.5; // deeper net: closer to paper scale
    params.trackerPool.tracker.cropSize = 63;
    params.trackerPool.tracker.width = 0.5; // paper-proportioned DNN
    params.trackerPool.alwaysRunTracker = true;
    params.laneCenterY = scenario.world.road().laneCenter(1);
    pipeline::Pipeline pipe(&map, &camera, nullptr, params);

    sensors::World world = scenario.world;
    Pose2 ego = scenario.ego.pose;
    pipe.reset(ego, {scenario.ego.speed, 0},
               {sp.roadLength - 10, params.laneCenterY});

    for (int i = 0; i < frames; ++i) {
        world.step(0.1);
        ego.pos.x += scenario.ego.speed * 0.1;
        if (ego.pos.x > world.road().length - 25)
            ego.pos.x = 25;
        const sensors::Frame frame = camera.render(world, ego);
        pipe.submitFrame(frame.image, 0.1, scenario.ego.speed);
    }

    const auto& c = pipe.cycleBreakdown();
    const double detTotal = c.detDnnMs + c.detOtherMs;
    const double traTotal = c.traDnnMs + c.traOtherMs;
    const double locTotal = c.locFeMs + c.locOtherMs;

    std::printf("%-8s %-22s %10s %8s\n", "engine", "portion", "ms",
                "share");
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "DET", "DNN", c.detDnnMs,
                100.0 * c.detDnnMs / detTotal);
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "", "Others (decode/NMS)",
                c.detOtherMs, 100.0 * c.detOtherMs / detTotal);
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "TRA", "DNN", c.traDnnMs,
                100.0 * c.traDnnMs / traTotal);
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "",
                "Others (crops/assoc)", c.traOtherMs,
                100.0 * c.traOtherMs / traTotal);
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "LOC",
                "Feature Extraction", c.locFeMs,
                100.0 * c.locFeMs / locTotal);
    std::printf("%-8s %-22s %10.1f %7.1f%%\n", "",
                "Others (match/solve)", c.locOtherMs,
                100.0 * c.locOtherMs / locTotal);

    std::printf("\npaper anchors: DNN 99.4%% of DET, 99.0%% of TRA; FE "
                "85.9%% of LOC.\nThe accelerable kernels dominate -> "
                "ideal acceleration candidates (Section 3.2).\n");
    return 0;
}
