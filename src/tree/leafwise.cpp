#include "tree/leafwise.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flaml {
namespace treegrow {

GrowState::GrowState(const BinMapper& mapper_in, const PackedBins& packed_in,
                     const std::vector<std::uint32_t>& rows, int n_threads_in,
                     Rng& rng_in)
    : mapper(mapper_in),
      packed(packed_in),
      kernel(active_hist_kernel()),
      pool(n_threads_in > 1 ? &shared_pool() : nullptr),
      n_threads(n_threads_in),
      rng(rng_in),
      offsets(histogram_offsets(mapper_in)),
      buffer_(rows) {
  FLAML_CHECK(!buffer_.empty());
  FLAML_CHECK(packed.n_features() == mapper.n_features());
}

std::vector<int> GrowState::sample_features(const std::vector<int>& from,
                                            double fraction) {
  if (fraction >= 1.0) return from;
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(fraction * static_cast<double>(from.size()))));
  std::vector<int> sampled = from;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform_index(sampled.size() - i);
    std::swap(sampled[i], sampled[j]);
  }
  sampled.resize(k);
  return sampled;
}

std::size_t GrowState::partition(std::size_t begin, std::size_t count,
                                 const SplitInfo& split) {
  const auto feature = static_cast<std::size_t>(split.feature);
  const int missing_bin = mapper.feature(feature).missing_bin();
  auto goes_left = [&](int b) {
    if (split.missing_only) return b != missing_bin;
    if (b == missing_bin) return split.missing_left;
    if (split.categorical) return b == split.bin;
    return b <= split.bin;
  };
  // One code per row at stride n_features; instantiated per code width so
  // the width branch stays outside the row loop.
  auto run = [&](const auto* codes) {
    codes += feature;
    const std::size_t stride = packed.n_features();
    right_.clear();
    std::size_t write = begin;
    for (std::size_t i = begin; i < begin + count; ++i) {
      const std::uint32_t pos = buffer_[i];
      if (goes_left(codes[pos * stride])) {
        buffer_[write++] = pos;
      } else {
        right_.push_back(pos);
      }
    }
    std::copy(right_.begin(), right_.end(),
              buffer_.begin() + static_cast<std::ptrdiff_t>(write));
    return write - begin;
  };
  return packed.wide() ? run(packed.codes16()) : run(packed.codes8());
}

void GrowState::fill_node(Tree& tree, std::int32_t node, const SplitInfo& split) const {
  TreeNode& n = tree.node(static_cast<std::size_t>(node));
  n.feature = split.feature;
  n.split_gain = std::max(split.gain, 0.0);
  if (split.missing_only) {
    n.categorical = false;
    n.threshold = std::numeric_limits<float>::infinity();
    n.missing_left = false;
  } else if (split.categorical) {
    n.categorical = true;
    n.category = split.bin;
    n.missing_left = false;
  } else {
    n.categorical = false;
    n.threshold =
        mapper.feature(static_cast<std::size_t>(split.feature)).threshold_for(split.bin);
    n.missing_left = split.missing_left;
  }
}

}  // namespace treegrow
}  // namespace flaml
