// gtest prints a ParamPreset by its name, so gtest_discover_tests names
// each preset-parameterized ctest after the value (…/toy, …/test) rather
// than after the enum's raw bytes.
#pragma once

#include <ostream>

#include "ec/params.hpp"

namespace sp::ec {

inline void PrintTo(ParamPreset preset, std::ostream* os) {
  switch (preset) {
    case ParamPreset::kToy:
      *os << "toy";
      return;
    case ParamPreset::kTest:
      *os << "test";
      return;
    case ParamPreset::kFull:
      *os << "full";
      return;
  }
}

}  // namespace sp::ec
