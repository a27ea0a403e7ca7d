/**
 * @file
 * Per-process scratch directories for file-backed tests.
 *
 * A fixed path under ::testing::TempDir() is shared by every process
 * on the host: two test binaries running the same suite at once (two
 * build trees, or a crash-sweep stage beside a ctest run) would
 * overwrite and then delete each other's backing files. makeTempDir()
 * creates a fresh directory with mkdtemp instead, so its name is
 * unique to the call; the caller removes it when done.
 */

#ifndef XPG_TESTS_TEMP_DIR_HPP
#define XPG_TESTS_TEMP_DIR_HPP

#include <gtest/gtest.h>

#include <stdlib.h>

#include <string>

#include "util/logging.hpp"

namespace xpg {

/** Create and return a new directory named @p tag plus a unique
 *  suffix under ::testing::TempDir(). */
inline std::string
makeTempDir(const std::string &tag)
{
    std::string path = ::testing::TempDir() + "/" + tag + "_XXXXXX";
    if (::mkdtemp(path.data()) == nullptr)
        XPG_FATAL("cannot create a directory from " + path);
    return path;
}

} // namespace xpg

#endif // XPG_TESTS_TEMP_DIR_HPP
