/**
 * @file
 * Tests for the key=value configuration store and its command-line
 * parser, which drive the bench harness parameter sweeps. Also the
 * knob-documentation gate: every key a config reader reads must
 * appear in docs/CONFIG.md.
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <set>
#include <sstream>

#include "common/config.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "mapserve/sim.hh"
#include "obs/obs.hh"
#include "pipeline/fault_injector.hh"
#include "pipeline/governor.hh"
#include "serve/serve.hh"

namespace {

using ad::Config;

TEST(Config, SetAndGet)
{
    Config cfg;
    cfg.set("frames", "100");
    cfg.set("rate", "2.5");
    cfg.set("verbose", "true");
    cfg.set("name", "kitti");
    EXPECT_TRUE(cfg.has("frames"));
    EXPECT_FALSE(cfg.has("missing"));
    EXPECT_EQ(cfg.getInt("frames", 0), 100);
    EXPECT_DOUBLE_EQ(cfg.getDouble("rate", 0.0), 2.5);
    EXPECT_TRUE(cfg.getBool("verbose", false));
    EXPECT_EQ(cfg.getString("name"), "kitti");
}

TEST(Config, DefaultsWhenMissing)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("n", 7), 7);
    EXPECT_DOUBLE_EQ(cfg.getDouble("x", 1.5), 1.5);
    EXPECT_FALSE(cfg.getBool("flag", false));
    EXPECT_EQ(cfg.getString("s", "dft"), "dft");
}

TEST(Config, BoolSpellings)
{
    Config cfg;
    for (const char* v : {"true", "1", "yes", "on"}) {
        cfg.set("k", v);
        EXPECT_TRUE(cfg.getBool("k", false)) << v;
    }
    for (const char* v : {"false", "0", "no", "off"}) {
        cfg.set("k", v);
        EXPECT_FALSE(cfg.getBool("k", true)) << v;
    }
}

TEST(Config, ParseEqualsForm)
{
    std::array<const char*, 3> argv = {"prog", "--frames=50",
                                       "--scenario=urban"};
    Config cfg = Config::fromArgs(argv.size(),
                                  const_cast<char**>(argv.data()));
    EXPECT_EQ(cfg.getInt("frames", 0), 50);
    EXPECT_EQ(cfg.getString("scenario"), "urban");
}

TEST(Config, ParseSpaceSeparatedAndFlag)
{
    std::array<const char*, 5> argv = {"prog", "--frames", "25", "--fast",
                                       "--mode=modeled"};
    Config cfg = Config::fromArgs(argv.size(),
                                  const_cast<char**>(argv.data()));
    EXPECT_EQ(cfg.getInt("frames", 0), 25);
    EXPECT_TRUE(cfg.getBool("fast", false));
    EXPECT_EQ(cfg.getString("mode"), "modeled");
}

TEST(Config, LastValueWins)
{
    std::array<const char*, 3> argv = {"prog", "--n=1", "--n=2"};
    Config cfg = Config::fromArgs(argv.size(),
                                  const_cast<char**>(argv.data()));
    EXPECT_EQ(cfg.getInt("n", 0), 2);
}

TEST(Config, WarnUnreadKeysSuggestsNearestReadKey)
{
    Config cfg;
    cfg.set("faults", "0.1");
    cfg.set("trace", "out.json");
    cfg.set("fault.drop-p", "0.1");
    cfg.set("zzzzzzzzzzzz", "1");
    // A key is known once a reader asks for it, set or not; has()
    // counts as a read.
    EXPECT_DOUBLE_EQ(cfg.getDouble("faults", 0.0), 0.1);
    EXPECT_DOUBLE_EQ(cfg.getDouble("fault.drop_p", 0.0), 0.0);
    EXPECT_TRUE(cfg.has("trace"));
    EXPECT_EQ(cfg.readKeys(),
              (std::set<std::string>{"fault.drop_p", "faults", "trace"}));

    // The typo of a read key gets the suggestion, an unrelated key is
    // ignored, and the read keys draw no warning.
    testing::internal::CaptureStderr();
    EXPECT_EQ(cfg.warnUnreadKeys(), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown config key '--fault.drop-p'; did you "
                       "mean '--fault.drop_p'?"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("unknown config key '--zzzzzzzzzzzz' (ignored)"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("'--faults'"), std::string::npos) << err;
    EXPECT_EQ(err.find("'--trace'"), std::string::npos) << err;
}

TEST(Config, EveryRegisteredKnobIsDocumented)
{
    // docs/CONFIG.md is the manual's knob reference. A key is known
    // because a reader reads it, so this gate runs every library
    // reader on an empty Config and takes the keys they asked for,
    // then adds the keys the tools read themselves: each must appear
    // verbatim (as `key`) in the document.
    std::ifstream in(AD_SOURCE_DIR "/docs/CONFIG.md");
    ASSERT_TRUE(in) << "docs/CONFIG.md missing";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    const Config empty;
    (void)ad::obs::setupFromConfig(empty);
    (void)ad::pipeline::FaultInjectorParams::fromConfig(empty);
    (void)ad::pipeline::GovernorParams::fromConfig(empty);
    (void)ad::serve::ServeParams::fromConfig(empty);
    (void)ad::serve::ModeledEngineParams::fromConfig(empty);
    (void)ad::fleet::FleetParams::fromConfig(empty);
    (void)ad::fleet::LoadGenParams::fromConfig(empty);
    (void)ad::mapserve::MapServeSimParams::fromConfig(empty);
    std::vector<std::string> keys(empty.readKeys().begin(),
                                  empty.readKeys().end());
    // The tool-private keys, kept in sync by hand with the reads in
    // tools/adrun.cc, tools/adserve.cc, tools/adfleet.cc and
    // tools/admapserve.cc.
    for (const char* k :
         {"scenario", "frames", "resolution", "seed", "csv",
          "det-input", "det-width", "summary", "length", "nn.threads",
          "nn.precision", "pipeline.depth", "pipeline.seed",
          "obs.budget_ms"})
        keys.push_back(k);
    for (const char* k :
         {"streams", "period-ms", "stagger", "measured", "serve-json"})
        keys.push_back(k);
    for (const char* k : {"fleet-json", "map-json"})
        keys.push_back(k);

    for (const auto& key : keys)
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << "knob \"" << key
            << "\" is not documented in docs/CONFIG.md";
}

TEST(Config, ObsSetupLeavesTheDeadlineBudgetToAdrun)
{
    // Only adrun has a deadline watchdog, so only adrun reads
    // obs.budget_ms; every other tool that sets up observability must
    // warn on the key instead of silently accepting it.
    const Config empty;
    (void)ad::obs::setupFromConfig(empty);
    EXPECT_EQ(empty.readKeys().count("obs.budget_ms"), 0u);
    EXPECT_EQ(empty.readKeys().count("obs.flight"), 1u);
}

} // namespace
