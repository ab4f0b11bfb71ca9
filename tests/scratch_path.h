#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace mflush::test {

/// `<TempDir>/<prefix><test name>-<pid>` for the running test: distinct per
/// test and per test process, so two runs of the suite at once never share
/// or delete each other's scratch files and directories. Nothing is
/// created.
inline std::filesystem::path scratch_path(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::path(::testing::TempDir()) /
         (prefix + info->name() + "-" + std::to_string(::getpid()));
}

}  // namespace mflush::test
