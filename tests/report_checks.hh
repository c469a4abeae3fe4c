/**
 * @file
 * Checks shared by the serving tiers' report tests: tampering breaks
 * the named invariant, and the JSON form parses back to the struct.
 */

#ifndef AD_TESTS_REPORT_CHECKS_HH
#define AD_TESTS_REPORT_CHECKS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace ad::test {

/**
 * `real` has no violations, and each tampered copy of it reports one
 * whose message contains the case's invariant name.
 */
template <typename Report>
void
expectTampersNamed(
    const Report& real,
    const std::vector<std::pair<std::string, std::function<void(Report&)>>>&
        cases)
{
    ASSERT_EQ(real.violations(), std::vector<std::string>{});
    for (const auto& [invariant, tamper] : cases) {
        Report r = real;
        tamper(r);
        const std::vector<std::string> v = r.violations();
        EXPECT_TRUE(std::any_of(v.begin(), v.end(),
                                [&](const std::string& m) {
                                    return m.find(invariant) !=
                                           std::string::npos;
                                }))
            << invariant;
    }
}

/** Each key of `doc` holds exactly the wanted value. */
inline void
expectFields(const obs::json::Value& doc,
             const std::vector<std::pair<std::string, obs::json::Value>>&
                 fields)
{
    for (const auto& [key, want] : fields) {
        const obs::json::Value* got = doc.find(key);
        ASSERT_NE(got, nullptr) << key;
        // dump() writes equal values, and only those, as equal bytes.
        EXPECT_EQ(obs::json::dump(*got), obs::json::dump(want)) << key;
    }
}

/** parse(dump(value)), which must succeed. */
inline obs::json::Value
roundTrip(const obs::json::Value& value)
{
    std::string error;
    const auto back = obs::json::parse(obs::json::dump(value), &error);
    EXPECT_TRUE(back.has_value()) << error;
    return back.value_or(obs::json::Value{});
}

} // namespace ad::test

#endif // AD_TESTS_REPORT_CHECKS_HH
