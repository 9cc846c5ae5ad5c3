// One bin layout: training reads only the row-major PackedBins that
// BinMapper::encode_packed builds (src/tree/binning.h). These differential
// tests hold that layout to the column-major oracle — BinMapper::encode +
// PackedBins::pack — code for code, and the grower's row partition over it
// (treegrow::GrowState::partition) to a partition of the oracle columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "support/prop.h"
#include "tree/binning.h"
#include "tree/leafwise.h"

namespace flaml {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

enum class ColumnKind {
  Continuous,
  FewValues,
  Categorical,
  WideCategorical,  // cardinality 300: codes above a byte at any max_bin
  Constant,
  AllMissing,
};
constexpr ColumnKind kKinds[] = {ColumnKind::Continuous,  ColumnKind::FewValues,
                                 ColumnKind::Categorical, ColumnKind::WideCategorical,
                                 ColumnKind::Constant,    ColumnKind::AllMissing};

// A dataset whose columns are the given kinds, with NaNs sprinkled at
// `missing` rate into every column that is not constant.
Dataset mixed_data(Rng& rng, std::size_t n_rows,
                   const std::vector<ColumnKind>& kinds, double missing) {
  std::vector<ColumnInfo> infos;
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    const std::string name = "c" + std::to_string(c);
    switch (kinds[c]) {
      case ColumnKind::Categorical:
        infos.push_back({name, ColumnType::Categorical, 7});
        break;
      case ColumnKind::WideCategorical:
        infos.push_back({name, ColumnType::Categorical, 300});
        break;
      default:
        infos.push_back({name, ColumnType::Numeric, 0});
    }
  }
  Dataset data(Task::Regression, infos);
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    std::vector<float> col(n_rows);
    for (float& v : col) {
      switch (kinds[c]) {
        case ColumnKind::Continuous:
          v = static_cast<float>(rng.normal());
          break;
        case ColumnKind::FewValues:
          v = static_cast<float>(rng.uniform_index(5));
          break;
        case ColumnKind::Categorical:
          v = static_cast<float>(rng.uniform_index(7));
          break;
        case ColumnKind::WideCategorical:
          v = static_cast<float>(rng.uniform_index(300));
          break;
        case ColumnKind::Constant:
          v = 3.5f;
          break;
        case ColumnKind::AllMissing:
          v = kNaN;
          break;
      }
      if (kinds[c] != ColumnKind::Constant && rng.bernoulli(missing)) v = kNaN;
    }
    data.set_column(c, std::move(col));
  }
  data.set_labels(std::vector<double>(n_rows, 0.0));
  return data;
}

void expect_same_codes(const PackedBins& got, const PackedBins& want,
                       const std::string& what) {
  ASSERT_EQ(got.n_rows(), want.n_rows()) << what;
  ASSERT_EQ(got.n_features(), want.n_features()) << what;
  ASSERT_EQ(got.wide(), want.wide()) << what;
  ASSERT_EQ(got.bytes(), want.bytes()) << what;
  for (std::size_t r = 0; r < got.n_rows(); ++r) {
    for (std::size_t f = 0; f < got.n_features(); ++f) {
      ASSERT_EQ(got.bin(r, f), want.bin(r, f))
          << what << " row " << r << " feature " << f;
    }
  }
}

// The direct packed encode equals the column oracle packed afterwards, over
// the full view, a prefix (zero rows included) and a shuffled subset; and
// it is row-independent: the first n rows of the full encode equal the
// encode of the n-row prefix.
FLAML_PROP(PackedEncodeProp, EqualsPackedColumnOracle, 40) {
  const std::size_t n_rows = 1 + prop.rng.uniform_index(400);
  std::vector<ColumnKind> kinds(1 + prop.rng.uniform_index(7));
  for (ColumnKind& kind : kinds) {
    kind = kKinds[prop.rng.uniform_index(std::size(kKinds))];
  }
  const double missing = prop.rng.bernoulli(0.5) ? prop.rng.uniform(0.0, 0.3) : 0.0;
  const Dataset data = mixed_data(prop.rng, n_rows, kinds, missing);
  // Half the cases sit at the u8/u16 boundary: at max_bin <= 255 every code
  // fits a byte; above it, codes fit only while the top bins stay empty.
  constexpr int kBoundary[] = {255, 256, 257, 1024};
  const int max_bin = prop.rng.bernoulli(0.5)
                          ? kBoundary[prop.rng.uniform_index(std::size(kBoundary))]
                          : 2 + static_cast<int>(prop.rng.uniform_index(300));
  const DataView view(data);
  const BinMapper mapper = BinMapper::fit(view, max_bin);

  std::vector<std::uint32_t> shuffled(n_rows);
  std::iota(shuffled.begin(), shuffled.end(), 0u);
  for (std::size_t i = n_rows; i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[prop.rng.uniform_index(i)]);
  }
  shuffled.resize(prop.rng.uniform_index(n_rows + 1));
  const std::size_t n = prop.rng.uniform_index(n_rows + 1);
  const DataView views[] = {view, view.prefix(n), view.prefix(0),
                            DataView(data, shuffled)};
  for (const DataView& v : views) {
    expect_same_codes(mapper.encode_packed(v), PackedBins::pack(mapper.encode(v)),
                      "max_bin " + std::to_string(max_bin) + " rows " +
                          std::to_string(v.n_rows()));
  }

  const PackedBins full = mapper.encode_packed(view);
  const PackedBins prefix = mapper.encode_packed(view.prefix(n));
  ASSERT_EQ(prefix.n_rows(), n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t f = 0; f < kinds.size(); ++f) {
      ASSERT_EQ(prefix.bin(r, f), full.bin(r, f)) << "row " << r << " feature " << f;
    }
  }
}

// The width is the narrowest that holds every code actually present: one
// continuous column binned right at the byte boundary, with and without a
// missing value (whose bin is the largest code).
TEST(PackedEncodeProp, WidthFollowsTheLargestCode) {
  struct Case {
    int max_bin;
    bool with_missing;
    bool wide;
  };
  const Case cases[] = {{255, false, false}, {255, true, false}, {256, false, false},
                        {256, true, true},   {257, false, true}, {1024, true, true}};
  for (const Case& c : cases) {
    Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0}});
    std::vector<float> col(3000);
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = static_cast<float>(i) * 0.5f;
    if (c.with_missing) col[1234] = kNaN;
    data.set_column(0, std::move(col));
    data.set_labels(std::vector<double>(3000, 0.0));
    const DataView view(data);
    const BinMapper mapper = BinMapper::fit(view, c.max_bin);
    ASSERT_EQ(mapper.feature(0).n_value_bins, c.max_bin);
    const PackedBins packed = mapper.encode_packed(view);
    const std::string what = "max_bin " + std::to_string(c.max_bin) +
                             (c.with_missing ? " with missing" : "");
    EXPECT_EQ(packed.wide(), c.wide) << what;
    expect_same_codes(packed, PackedBins::pack(mapper.encode(view)), what);
  }
}

// --- the row partition over the packed codes ------------------------------

using treegrow::GrowState;
using treegrow::SplitInfo;

// The column-major reference: stable partition of `rows` by the oracle
// column of the split feature.
std::vector<std::uint32_t> oracle_partition(const BinnedMatrix& binned,
                                            const BinMapper& mapper,
                                            const std::vector<std::uint32_t>& rows,
                                            const SplitInfo& split, std::size_t& n_left) {
  const auto f = static_cast<std::size_t>(split.feature);
  const int missing_bin = mapper.feature(f).missing_bin();
  std::vector<std::uint32_t> left, right;
  for (std::uint32_t pos : rows) {
    const int b = binned.bin(pos, f);
    bool goes_left;
    if (split.missing_only) {
      goes_left = b != missing_bin;
    } else if (b == missing_bin) {
      goes_left = split.missing_left;
    } else if (split.categorical) {
      goes_left = b == split.bin;
    } else {
      goes_left = b <= split.bin;
    }
    (goes_left ? left : right).push_back(pos);
  }
  n_left = left.size();
  left.insert(left.end(), right.begin(), right.end());
  return left;
}

enum class SplitKind { Numeric, NumericMissingLeft, Categorical, MissingOnly };

// Partition a random segment of a shuffled row buffer, then a child of it,
// for every split kind at both code widths; each result must equal the
// oracle's stable partition of the same segment.
FLAML_PROP(PackedPartitionProp, MatchesColumnOracle, 6) {
  // Enough distinct values that max_bin = 1024 yields codes above a byte.
  const std::size_t n_rows = 1200 + prop.rng.uniform_index(800);
  const Dataset data = mixed_data(
      prop.rng, n_rows,
      {ColumnKind::Continuous, ColumnKind::Categorical, ColumnKind::FewValues}, 0.1);
  const DataView view(data);
  for (int max_bin : {255, 1024}) {
    const BinMapper mapper = BinMapper::fit(view, max_bin);
    const PackedBins packed = mapper.encode_packed(view);
    ASSERT_EQ(packed.wide(), max_bin > 255);
    const BinnedMatrix binned = mapper.encode(view);

    for (SplitKind kind : {SplitKind::Numeric, SplitKind::NumericMissingLeft,
                           SplitKind::Categorical, SplitKind::MissingOnly}) {
      std::vector<std::uint32_t> rows(n_rows);
      std::iota(rows.begin(), rows.end(), 0u);
      for (std::size_t i = n_rows; i > 1; --i) {
        std::swap(rows[i - 1], rows[prop.rng.uniform_index(i)]);
      }
      Rng grow_rng(prop.rng.next());
      GrowState state(mapper, packed, rows, 1, grow_rng);

      auto draw_split = [&] {
        SplitInfo split;
        split.gain = 1.0;
        if (kind == SplitKind::Categorical) {
          split.feature = 1;
          split.categorical = true;
          split.bin = static_cast<int>(prop.rng.uniform_index(7));
        } else {
          split.feature = prop.rng.bernoulli(0.5) ? 0 : 2;
          const int value_bins = mapper.feature(static_cast<std::size_t>(split.feature))
                                     .n_value_bins;
          split.bin = static_cast<int>(prop.rng.uniform_index(
              static_cast<std::size_t>(std::max(1, value_bins - 1))));
          split.missing_left = kind == SplitKind::NumericMissingLeft;
          split.missing_only = kind == SplitKind::MissingOnly;
        }
        return split;
      };

      std::size_t begin = prop.rng.uniform_index(n_rows / 4);
      std::size_t count = n_rows / 2 + prop.rng.uniform_index(n_rows / 4);
      for (int depth = 0; depth < 2; ++depth) {
        const SplitInfo split = draw_split();
        const std::vector<std::uint32_t> before(state.rows(begin),
                                                state.rows(begin) + count);
        std::size_t want_left = 0;
        const std::vector<std::uint32_t> want =
            oracle_partition(binned, mapper, before, split, want_left);
        const std::size_t got_left = state.partition(begin, count, split);
        const std::string what = "max_bin " + std::to_string(max_bin) + " kind " +
                                 std::to_string(static_cast<int>(kind)) + " depth " +
                                 std::to_string(depth);
        ASSERT_EQ(got_left, want_left) << what;
        const std::vector<std::uint32_t> got(state.rows(begin),
                                             state.rows(begin) + count);
        ASSERT_EQ(got, want) << what;
        // Recurse into the larger side.
        if (got_left < count - got_left) {
          begin += got_left;
          count -= got_left;
        } else {
          count = got_left;
        }
        if (count == 0) break;
      }
    }
  }
}

}  // namespace
}  // namespace flaml
