/**
 * @file
 * serve_det_int8: eight staggered 10 fps camera streams served by one
 * MultiStreamServer over the measured int8 DET engine (the pipeline's
 * DET: input 160, width 0.25) at nn.threads = 1, with the default
 * batch policy (max 8, 6 ms window) and admission. Open loop on the
 * server's own arrival schedule; the engine is wrapped in a
 * delegating BatchEngine that times every runBatch call from outside.
 *
 * Latencies are the server's: virtual-clock arrivals, plus the
 * wall-measured batch time, plus the serve layer's modeled 1.5 ms
 * post cost. The generator cannot run late (arrivals are virtual
 * events), so its lateness is 0 by construction.
 *
 * The yardstick is sampled after every fourth batch and around every
 * group of set-ups. The delegating engine hands the server each batch
 * time scaled by the host factor of the last nine samples, so the
 * server's whole schedule (batching, admission, shedding) runs on
 * host-normalized time. Throughput and set-up times are scaled the
 * same way.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "nn/fusion.hh"
#include "nn/kernel_context.hh"
#include "nn/models.hh"
#include "nn/quant.hh"
#include "nn/tensor.hh"
#include "sensors/world.hh"
#include "serve/serve.hh"
#include "workloads.hh"
#include "yardstick.hh"

namespace adbench {

namespace {

using namespace ad;

constexpr int kStreams = 8;
constexpr int kInput = 160;
constexpr double kWidth = 0.25;
constexpr std::int64_t kRoundFrames = 50; ///< frames/stream per run().
constexpr int kSetupsPerRound = 8; ///< set-ups before every round.
constexpr int kVariants = 8;
constexpr std::uint64_t kDetSeed = 1; ///< the pipeline's DET seed.
constexpr std::int64_t kSampleEvery = 4;  ///< batches per yardstick sample.
constexpr std::size_t kBracket = 9; ///< samples each side of a set-up group.

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(v));
    return bits;
}

/**
 * The bit pattern NnBatchEngine folds into its output checksum for
 * one served item: the summed output elements, in element order.
 */
std::uint64_t
sumBits(const nn::Tensor& out)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
        sum += out.data()[i];
    return bitsOf(sum);
}

/** What the timing engine accumulates over every rig of a run. */
struct ServeStats
{
    double busyMs = 0.0;
    double yardMs = 0.0; ///< yardstick time inside MultiStreamServer::run.
    std::int64_t items = 0;
    std::int64_t batches = 0;
    /** Items of batches whose served outputs did not check. */
    std::int64_t servedMismatched = 0;
    std::vector<double> tracedMs, untracedMs;
    /** Every batch composition (stream ids in batch order) → items. */
    std::map<std::vector<int>, std::int64_t> compositions;
};

/**
 * Delegating engine: forwards each batch to the measured engine and
 * stamps the call from outside. It checks what was served, batch by
 * batch: the engine XORs each item's summed-output bits into its
 * checksum, so the checksum's change over one call must equal the
 * XOR of the reference single forwards' bits for that batch's
 * streams. (The cumulative checksum cannot be used: it cancels when a
 * stream is served an even number of times.) After every fourth call
 * it samples the yardstick, and it returns the engine's time scaled
 * by the host factor of the last samples.
 */
class TimedEngine final : public serve::BatchEngine
{
  public:
    /** @param expected per-stream reference bits (see sumBits). */
    TimedEngine(serve::NnBatchEngine& inner, ServeStats& stats,
                const std::vector<std::uint64_t>& expected, Yardstick& yard,
                Tracer& tr)
        : inner_(inner), stats_(stats), expected_(expected), yard_(yard),
          tr_(tr)
    {
    }

    double
    runBatch(const serve::Batch& batch) override
    {
        const std::uint64_t before = bitsOf(inner_.outputChecksum());
        const double t0 = nowMs();
        const double ms = inner_.runBatch(batch);
        const double t1 = nowMs();
        const std::int64_t id = stats_.batches++;
        const auto size = static_cast<std::int64_t>(batch.size());
        std::vector<int> comp;
        std::uint64_t expect = 0;
        for (const auto& item : batch.items) {
            comp.push_back(item.ticket.stream);
            expect ^= expected_[static_cast<std::size_t>(
                item.ticket.stream)];
        }
        if ((before ^ bitsOf(inner_.outputChecksum())) != expect)
            stats_.servedMismatched += size;
        stats_.compositions[comp] += size;
        // Traced runs trace every other batch, so the tracing overhead
        // is measured under the same host conditions.
        const bool traced = tr_.enabled() && id % 2;
        (traced ? stats_.tracedMs : stats_.untracedMs).push_back(t1 - t0);
        stats_.busyMs += t1 - t0;
        stats_.items += size;
        if (traced) {
            const int root = tr_.span("nn.batch", t0, t1, -1, id);
            tr_.span("nn.engine", t0, t0 + ms, root, id);
            tr_.count("serve.items", static_cast<double>(batch.size()));
            tr_.count("serve.batches", 1);
        }
        if (id % kSampleEvery == 0)
            stats_.yardMs += yard_.sample();
        return ms * yard_.recentFactor();
    }

  private:
    serve::NnBatchEngine& inner_;
    ServeStats& stats_;
    const std::vector<std::uint64_t>& expected_;
    Yardstick& yard_;
    Tracer& tr_;
};

/** The program objects one setup constructs. */
struct Rig
{
    explicit Rig(nn::Network n) : net(std::move(n)) {}

    nn::Network net;
    std::unique_ptr<serve::NnBatchEngine> engine;
    std::unique_ptr<TimedEngine> timed;
    std::unique_ptr<serve::MultiStreamServer> server;
};

serve::ServeParams
serveParams(int variant)
{
    serve::ServeParams sp;
    sp.streams = kStreams;
    sp.seed = 29 + static_cast<std::uint64_t>(variant);
    sp.governor.enabled = true;
    sp.governor.budgetMs = sp.stream.deadlineMs;
    return sp;
}

/** Seeded uniform [0, 1] tensor (the range fromImage produces). */
nn::Tensor
uniformTensor(Rng& rng)
{
    nn::Tensor t(1, kInput, kInput);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform());
    return t;
}

bool
sameBits(const nn::Tensor& a, const nn::Tensor& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

RunResult
runServe(const RunOptions& opt, Tracer& tr)
{
    const int variant = static_cast<int>(opt.seed % kVariants);
    const serve::ServeParams sp = serveParams(variant);

    // --- Inputs (outside set-up): per-stream frames + calibration. ---
    Rng inputRng(1000 + static_cast<std::uint64_t>(variant));
    std::vector<nn::Tensor> inputs;
    for (int s = 0; s < kStreams; ++s)
        inputs.push_back(uniformTensor(inputRng));
    Rng calRng(kDetSeed ^ 0xAD0C0DE5ULL);
    std::vector<nn::Tensor> calibration;
    for (int s = 0; s < 2; ++s)
        calibration.push_back(uniformTensor(calRng));
    const nn::Shape shape{1, kInput, kInput};

    // --- Set-up: build + quantize + lower + engine + server. ---
    // A group of set-ups runs before every round, so their median
    // shares the timed phase's host conditions. The last rig of a
    // group serves the round; only one rig is alive at a time.
    ServeStats stats;
    std::vector<std::uint64_t> expected(kStreams); // filled below.
    Yardstick yard;
    std::vector<double> setupS, rawSetupS;
    std::unique_ptr<Rig> rig;
    const auto setUpGroup = [&] {
        const std::size_t y0 = yard.count();
        yard.sampleMany(kBracket);
        std::vector<double> group;
        for (int k = 0; k < kSetupsPerRound; ++k) {
            rig.reset();
            auto engineInputs = inputs;
            const double s0 = nowMs();
            nn::Network net = nn::buildNetwork(nn::detectorSpec(
                kInput, kWidth, sensors::kNumObjectClasses));
            Rng weightRng(kDetSeed);
            nn::initDetectorWeights(net, weightRng);
            nn::quantizeNetwork(net, calibration);
            nn::lowerNetwork(net, shape);
            const double s1 = nowMs();
            auto next = std::make_unique<Rig>(std::move(net));
            next->engine = std::make_unique<serve::NnBatchEngine>(
                next->net, std::move(engineInputs), 1);
            next->timed = std::make_unique<TimedEngine>(
                *next->engine, stats, expected, yard, tr);
            next->server = std::make_unique<serve::MultiStreamServer>(
                sp, *next->timed);
            const double s2 = nowMs();
            tr.span("nn.build", s0, s1, -1,
                    -1 - static_cast<std::int64_t>(setupS.size()));
            group.push_back((s2 - s0) / 1000.0);
            rig = std::move(next);
        }
        yard.sampleMany(kBracket);
        const double f = yard.factor(y0, yard.count());
        for (const double g : group) {
            rawSetupS.push_back(g);
            setupS.push_back(g * f);
        }
    };
    setUpGroup();

    RunResult res;
    // Reference outputs: one serial forward per stream input.
    std::vector<nn::Tensor> single;
    Digest singleDigest;
    for (const auto& in : inputs) {
        single.push_back(rig->net.forward(in));
        singleDigest.bytes(single.back().data(),
                           single.back().size() * sizeof(float));
        expected[single.size() - 1] = sumBits(single.back());
    }
    if (opt.record) {
        res.recorded.push_back("serve_det_int8 " + std::to_string(variant) +
                               " 0 " + hex(singleDigest.value()));
        std::printf("digest: recorded (variant %d)\n", variant);
        return res;
    }

    // --- Timed phase: rounds of MultiStreamServer::run. ---
    std::vector<double> latencies;
    std::vector<double> roundFactors;
    double runMs = 0.0;     ///< wall time in run(), yardstick excluded.
    double normRunMs = 0.0; ///< the same, host-normalized.
    std::int64_t arrived = 0, admitted = 0, shed = 0;
    std::int64_t degraded = 0, onTime = 0;
    double waitMs = 0.0;
    bool conserved = true;
    const std::size_t minRequests = samplesForTail(kTailPct);
    const CpuTicks ticks0 = readCpuTicks();
    for (int round = 0;; ++round) {
        if (round > 0)
            setUpGroup();
        const std::size_t y0 = yard.count();
        const double yardMs0 = stats.yardMs;
        const double t0 = nowMs();
        const serve::ServeReport rep = rig->server->run(kRoundFrames);
        const double t1 = nowMs();
        const double programMs = t1 - t0 - (stats.yardMs - yardMs0);
        roundFactors.push_back(yard.factor(y0, yard.count()));
        runMs += programMs;
        normRunMs += programMs * roundFactors.back();
        tr.span("serve.run", t0, t1, -1, -1 - round);
        const auto& lat = rig->server->admittedRecorder().samples();
        latencies.insert(latencies.end(), lat.begin(), lat.end());
        arrived += rep.framesArrived;
        admitted += rep.framesAdmitted;
        shed += rep.framesShed;
        degraded += rep.framesDegraded;
        onTime += rig->server->onTimeServed();
        waitMs += rep.meanBatchWaitMs *
                  static_cast<double>(rep.framesAdmitted);
        conserved = conserved &&
                    rep.framesArrived == kStreams * kRoundFrames &&
                    rep.framesAdmitted + rep.framesCoasted +
                            rep.framesShed ==
                        rep.framesArrived;
        if (runMs >= opt.seconds * 1000.0 &&
            latencies.size() >= minRequests)
            break;
    }
    const double steal = stealShare(ticks0, readCpuTicks());
    conserved = conserved && stats.items == admitted;

    // --- Output check: every batch composition seen, recomputed. ---
    std::int64_t recomputedMismatched = 0;
    const nn::KernelContext serial = nn::KernelContext::serial();
    for (const auto& [comp, served] : stats.compositions) {
        std::vector<nn::Tensor> batch;
        for (const int s : comp)
            batch.push_back(inputs[static_cast<std::size_t>(s)]);
        const auto outs = rig->net.forwardBatch(batch, serial);
        bool same = outs.size() == comp.size();
        for (std::size_t i = 0; same && i < comp.size(); ++i)
            same = sameBits(outs[i], single[static_cast<std::size_t>(
                                         comp[i])]);
        if (!same)
            recomputedMismatched += served;
    }
    const DigestTable table(opt.digestFile);
    const bool digestOk =
        table.find("serve_det_int8", variant, 0) ==
        hex(singleDigest.value());
    const std::int64_t mismatched =
        digestOk ? std::min(admitted, stats.servedMismatched +
                                          recomputedMismatched)
                 : admitted;

    res.attempted = arrived;
    // Shed requests were refused, not failed: they count as misses in
    // on_time_share. A failure is an output that does not check.
    res.failed = mismatched;
    res.correct = digestOk && mismatched == 0 && conserved;
    std::printf("digest: %s (variant %d; served outputs: %lld of %lld "
                "items mismatched; %zu batch compositions recomputed: "
                "%lld items mismatched; conservation %s)\n",
                res.correct ? "OK" : "MISMATCH", variant,
                static_cast<long long>(stats.servedMismatched),
                static_cast<long long>(stats.items),
                stats.compositions.size(),
                static_cast<long long>(recomputedMismatched),
                conserved ? "ok" : "VIOLATED");
    const Tail tail = tailOf(latencies, kTailPct);
    std::printf("tail: p%g over n=%zu requests (%zu beyond) %s\n",
                tail.pct, tail.n, tail.beyond,
                tail.supported ? "supported" : "UNSUPPORTED");
    std::printf("timed: %.3f s in MultiStreamServer::run (yardstick "
                "excluded), %lld arrived, %lld served, %lld shed, "
                "generator lateness 0 ms (virtual arrivals), %zu set-ups, "
                "steal share %.4f\n",
                runMs / 1000.0, static_cast<long long>(arrived),
                static_cast<long long>(admitted),
                static_cast<long long>(shed), setupS.size(), steal);
    printHostSpeed(yard, roundFactors);
    std::printf("raw: throughput_per_s %.4f setup_s %.6f (not "
                "host-normalized; serve latencies are normalized inside "
                "the server's schedule)\n",
                static_cast<double>(admitted) / (runMs / 1000.0),
                median(rawSetupS));
    if (!tail.supported)
        res.correct = false;

    if (!tr.enabled()) {
        const std::int64_t good =
            std::max<std::int64_t>(0, onTime - mismatched);
        res.metrics = endToEnd(latencies, tail, admitted, normRunMs, good,
                               arrived, setupS);
        return res;
    }

    const double overhead =
        median(stats.tracedMs) / median(stats.untracedMs) - 1.0;
    std::printf("tracing overhead: traced median batch %.4f ms vs "
                "untraced %.4f ms (%+.2f%%, %zu vs %zu batches)\n",
                median(stats.tracedMs), median(stats.untracedMs),
                100.0 * overhead, stats.tracedMs.size(),
                stats.untracedMs.size());
    const auto profile = nn::specProfile(
        nn::detectorSpec(kInput, kWidth, sensors::kNumObjectClasses));
    const double items = tr.counter("serve.items");
    const double arrivedD = static_cast<double>(arrived);
    res.metrics = {
        {"nn.batch_ms", tr.meanMs("nn.batch"), "ms"},
        {"nn.item_ms", tr.totalMs("nn.batch") / items, "ms"},
        {"nn.macs_per_item",
         static_cast<double>(
             profile.flopsOfKind(nn::LayerKind::Conv) +
             profile.flopsOfKind(nn::LayerKind::FullyConnected)) /
             2.0,
         "count"},
        {"nn.bytes_per_item",
         static_cast<double>(profile.totalWeightBytes() +
                             profile.totalActivationBytes()),
         "bytes"},
        {"nn.build_s", tr.medianMs("nn.build") / 1000.0, "s"},
        {"serve.queue_wait_ms",
         waitMs / static_cast<double>(admitted), "ms"},
        {"serve.batch_size_mean", items / tr.counter("serve.batches"),
         "count"},
        {"serve.engine_busy_share", stats.busyMs / runMs, "share"},
        {"serve.shed_share", static_cast<double>(shed) / arrivedD,
         "share"},
        {"serve.degraded_share", static_cast<double>(degraded) / arrivedD,
         "share"},
    };
    return res;
}

} // namespace adbench
