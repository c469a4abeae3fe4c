/**
 * @file
 * Closed-loop simulation harness: world + camera + the end-to-end
 * pipeline + vehicle dynamics in one stepping loop. The pipeline's own
 * control commands drive the (bicycle-model) ego vehicle, wheel
 * odometry feeds the localizer, and the harness accumulates the
 * driving-quality metrics (lane keeping, clearances, localization
 * health) that complement the paper's latency-centric evaluation --
 * the "functional aspects" of predictability its Section 2.4.2 defers.
 */

#ifndef AD_PIPELINE_SIMULATION_HH
#define AD_PIPELINE_SIMULATION_HH

#include "pipeline/pipeline.hh"
#include "planning/control.hh"
#include "sensors/odometry.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"

namespace ad::pipeline {

/** Harness knobs. */
struct SimulationParams
{
    /** Pipeline knobs; `depth` must stay 1 (the loop is closed). */
    PipelineParams pipeline;
    double dt = 0.1;              ///< frame period (10 fps).
    bool useOdometry = true;      ///< feed wheel odometry to LOC.
    double collisionRadius = 1.6; ///< ego-center to actor-center (m).
    std::uint64_t odometrySeed = 5;
    sensors::RenderConditions conditions;
};

/** Accumulated driving-quality metrics. */
struct SimulationMetrics
{
    int frames = 0;
    int localizedFrames = 0;
    int relocalizations = 0;
    int collisionFrames = 0;   ///< frames inside an actor's radius.
    int missionReplans = 0;
    double distanceTraveled = 0;
    double maxLaneError = 0;   ///< |y - lane center| maximum.
    double maxLocalizationError = 0; ///< vs ground truth.
    double minActorClearance = 1e9;
    double meanSpeed = 0;
};

/**
 * Owns a copy of the scenario world and drives it closed loop. The
 * prior map and camera are borrowed and must outlive the simulation.
 */
class Simulation
{
  public:
    /**
     * @param scenario scenario to run (world copied, ego start used).
     * @param map prior map for localization.
     * @param camera camera for rendering and perception.
     * @param roadGraph optional mission road network.
     * @param params harness knobs.
     */
    Simulation(const sensors::Scenario& scenario,
               const slam::PriorMap* map, const sensors::Camera* camera,
               const planning::RoadGraph* roadGraph,
               const SimulationParams& params);

    /** Advance one frame; returns that frame's pipeline output. */
    FrameOutput step();

    /** Run n frames. */
    void run(int frames);

    const SimulationMetrics& metrics() const { return metrics_; }
    const planning::VehicleState& ego() const { return ego_; }
    const sensors::World& world() const { return world_; }
    Pipeline& pipeline() { return pipeline_; }

  private:
    SimulationParams params_;
    sensors::World world_;
    const sensors::Camera* camera_;
    Pipeline pipeline_;
    planning::VehicleState ego_;
    sensors::WheelOdometry odometry_;
    double laneCenterY_;
    SimulationMetrics metrics_;
    double speedSum_ = 0;
};

} // namespace ad::pipeline

#endif // AD_PIPELINE_SIMULATION_HH
