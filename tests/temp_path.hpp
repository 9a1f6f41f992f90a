// A per-test temp file name, shared by the tests that write files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace gnna::test {

/// A path under TempDir() that only the running test of this process
/// writes, `<suite>.<test>.<pid>.<name>`, so that tests run in parallel and
/// suites of two build trees run at once keep apart. The test removes it.
inline std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + t->test_suite_name() + "." + t->name() + "." +
         std::to_string(::getpid()) + "." + name;
}

}  // namespace gnna::test
