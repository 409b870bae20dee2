// Per-test temp directories. ctest runs every gtest case as its own
// process and `ctest -j` runs several at once, so a fixed file name under
// ::testing::TempDir() is shared by every case (and every concurrent test
// run) that uses it: one case's cleanup deletes another's cache file
// mid-run. A ScopedTestDir is private to the running test and process,
// starts empty, and is removed with its contents when it goes out of scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>

namespace pa::test_util {

class ScopedTestDir {
 public:
  /// `<TempDir>/pa-<suite>.<test>-<pid>-<n>`; `n` tells apart several
  /// directories made by one test.
  ScopedTestDir() {
    static std::atomic<unsigned> seq{0};
    std::string name = "pa-";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info())
      name += std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name)
      if (c == '/') c = '_';  // parameterized suite and test names
    name += "-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq.fetch_add(1));
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }
  /// A path for `name` inside the directory (the file is not created).
  std::string file(std::string_view name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

}  // namespace pa::test_util
