/**
 * @file
 * The one gtest entry point every test binary links.
 *
 * Death tests run in the "threadsafe" style: each re-executes the
 * binary up to the death statement instead of forking. A fork copies
 * only the calling thread, so once an earlier test has started the
 * shared worker pool, a forked child that exits through fatal() runs
 * static destructors that join pool threads it does not have, and
 * hangs or crashes. Re-executing starts the child with no pool, so a
 * binary run whole behaves as it does under ctest's one case per
 * process.
 */

#include <gtest/gtest.h>

int
main(int argc, char** argv)
{
    // Before InitGoogleTest, so --gtest_death_test_style still wins.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
