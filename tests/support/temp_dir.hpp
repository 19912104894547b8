// A temporary directory per test object: a fresh path under the system temp
// directory, created on construction and removed with everything in it on
// destruction. The name carries the pid and a per-process counter, so two
// test processes running at once (ctest -j) or two objects in one process
// never share a directory, and no run finds a previous run's files.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace sp::testsupport {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("sp-test-" + std::to_string(::getpid()) + "-" + std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return dir_.string(); }
  /// `name` inside the directory.
  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  static inline std::atomic<int> counter_{0};
  std::filesystem::path dir_;
};

}  // namespace sp::testsupport
