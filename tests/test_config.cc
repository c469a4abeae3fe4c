/**
 * @file
 * Tests for the key=value configuration store and its command-line
 * parser, which drive the bench harness parameter sweeps. Also the
 * knob-documentation gate: every registered config key must appear
 * in docs/CONFIG.md.
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
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

TEST(Config, WarnUnknownKeysSuggestsNearestKnownKey)
{
    const std::vector<std::string> known = {"faults", "fault.drop_p",
                                            "obs.budget_ms",
                                            "nn.threads"};
    // All keys known: nothing to warn about.
    Config clean;
    clean.set("faults", "0.1");
    clean.set("nn.threads", "4");
    EXPECT_EQ(clean.warnUnknownKeys(known), 0);

    // A near-miss spelling counts as one unknown key (and the warning
    // it prints suggests the intended key; the count is what the API
    // contract exposes).
    Config typo;
    typo.set("fault.drop-p", "0.1");
    EXPECT_EQ(typo.warnUnknownKeys(known), 1);

    // Completely alien keys still count, with no plausible suggestion.
    Config alien;
    alien.set("zzzzzzzzzzzz", "1");
    alien.set("faults", "0.2");
    EXPECT_EQ(alien.warnUnknownKeys(known), 1);
}

TEST(Config, EveryRegisteredKnobIsDocumented)
{
    // docs/CONFIG.md is the manual's knob reference. This gate makes
    // it impossible to register a new key -- in a knownConfigKeys()
    // registry or in a tool's knownKeys() list -- without adding a
    // row there: every key below must appear verbatim (as `key`) in
    // the document.
    std::ifstream in(AD_SOURCE_DIR "/docs/CONFIG.md");
    ASSERT_TRUE(in) << "docs/CONFIG.md missing";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    std::vector<std::string> keys;
    for (const auto& k : ad::obs::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::pipeline::FaultInjectorParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::pipeline::GovernorParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : ad::fleet::FleetParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : ad::fleet::RebalanceParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : ad::fleet::LoadGenParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::mapserve::MapServeSimParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::mapserve::TileServerParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::mapserve::MapClientParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k : ad::serve::ServeParams::knownConfigKeys())
        keys.push_back(k);
    for (const auto& k :
         ad::serve::ModeledEngineParams::knownConfigKeys())
        keys.push_back(k);
    // The tool-private lists, kept in sync by hand with the
    // knownKeys() of tools/adrun.cc, tools/adserve.cc,
    // tools/adfleet.cc and tools/admapserve.cc.
    for (const char* k :
         {"scenario", "frames", "resolution", "seed", "csv",
          "det-input", "det-width", "summary", "length", "nn.threads",
          "nn.precision", "pipeline.depth", "pipeline.seed"})
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

} // namespace
