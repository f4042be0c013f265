// Small statistics helpers shared by the runner and the layer ladder.
#pragma once

#include <algorithm>
#include <vector>

namespace perfbench {

/// Median of `values` (the mean of the middle two for an even count); 0 if empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace perfbench
