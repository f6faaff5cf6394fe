#include "stats/correlation.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stats/correlation_kernels.h"

namespace cad::stats {
namespace {

TEST(PearsonTest, PerfectPositive) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, KnownValue) {
  // Hand-computed: x = {1,2,3}, y = {1,3,2} -> r = 0.5.
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 3, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.5, 1e-12);
}

TEST(PearsonTest, ConstantSeriesGivesZero) {
  const std::vector<double> x = {5, 5, 5, 5};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
  EXPECT_EQ(PearsonCorrelation(y, x), 0.0);
}

TEST(PearsonTest, TooShortGivesZero) {
  const std::vector<double> x = {1};
  EXPECT_EQ(PearsonCorrelation(x, x), 0.0);
}

TEST(PearsonTest, AffineInvariance) {
  cad::Rng rng(3);
  std::vector<double> x(64), y(64), y_affine(64);
  for (int i = 0; i < 64; ++i) {
    x[i] = rng.Gaussian();
    y[i] = 0.7 * x[i] + 0.3 * rng.Gaussian();
    y_affine[i] = 5.0 * y[i] - 11.0;  // positive affine transform
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), PearsonCorrelation(x, y_affine),
              1e-12);
}

TEST(PearsonTest, SymmetricAndBounded) {
  cad::Rng rng(4);
  std::vector<double> x(32), y(32);
  for (int i = 0; i < 32; ++i) {
    x[i] = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  const double r = PearsonCorrelation(x, y);
  EXPECT_NEAR(r, PearsonCorrelation(y, x), 1e-14);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(CorrelationMatrixTest, MatchesPairwise) {
  cad::Rng rng(7);
  const int n = 6, len = 40;
  ts::MultivariateSeries series(n, len);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < len; ++t) series.set_value(i, t, rng.Gaussian());
  }
  const CorrelationMatrix corr = WindowCorrelationMatrix(series, 5, 30);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(corr.at(i, i), 1.0);
    for (int j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(corr.at(i, j), corr.at(j, i));
      const double expected = PearsonCorrelation(series.sensor_window(i, 5, 30),
                                                 series.sensor_window(j, 5, 30));
      EXPECT_NEAR(corr.at(i, j), i == j ? 1.0 : expected, 1e-10);
    }
  }
}

TEST(CorrelationMatrixTest, DegenerateSensorRowIsZero) {
  ts::MultivariateSeries series(2, 10);
  for (int t = 0; t < 10; ++t) {
    series.set_value(0, t, 3.0);               // constant
    series.set_value(1, t, static_cast<double>(t));
  }
  const CorrelationMatrix corr = WindowCorrelationMatrix(series, 0, 10);
  EXPECT_EQ(corr.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(corr.at(0, 0), 1.0);
}

TEST(CorrelationMatrixTest, CorrelatedGroupDetected) {
  // Two sensors driven by one factor correlate strongly; the third is
  // independent noise.
  cad::Rng rng(11);
  const int len = 200;
  ts::MultivariateSeries series(3, len);
  for (int t = 0; t < len; ++t) {
    const double f = rng.Gaussian();
    series.set_value(0, t, f + 0.1 * rng.Gaussian());
    series.set_value(1, t, -f + 0.1 * rng.Gaussian());
    series.set_value(2, t, rng.Gaussian());
  }
  const CorrelationMatrix corr = WindowCorrelationMatrix(series, 0, len);
  EXPECT_LT(corr.at(0, 1), -0.9);
  EXPECT_LT(std::abs(corr.at(0, 2)), 0.3);
}

// ---- The tiled kernel against the per-cell loop, bit for bit -------------

// The per-cell kernel the tiled one replaced, kept verbatim as the reference:
// sensor-major residuals and one sequential dot product per cell. Dense
// n x n, row-major, unit diagonal.
std::vector<double> PerCellReference(const ts::MultivariateSeries& series,
                                     int start, int w, CorrelationKind kind) {
  const int n = series.n_sensors();
  std::vector<double> corr(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) corr[static_cast<size_t>(i) * n + i] = 1.0;
  std::vector<double> residuals(static_cast<size_t>(n) * w, 0.0);
  std::vector<uint8_t> degenerate(n, 0);
  for (int i = 0; i < n; ++i) {
    std::span<const double> x = series.sensor_window(i, start, w);
    std::vector<double> ranked;
    if (kind == CorrelationKind::kSpearman) {
      ranked = RankTransform(x);
      x = ranked;
    }
    double mean = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(w);
    double norm_sq = 0.0;
    double* res = residuals.data() + static_cast<size_t>(i) * w;
    for (int t = 0; t < w; ++t) {
      res[t] = x[t] - mean;
      norm_sq += res[t] * res[t];
    }
    if (norm_sq < 1e-12) {
      degenerate[i] = 1;
      continue;
    }
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (int t = 0; t < w; ++t) res[t] *= inv_norm;
  }
  for (int i = 0; i < n; ++i) {
    if (degenerate[i]) continue;
    const double* xi = residuals.data() + static_cast<size_t>(i) * w;
    for (int j = i + 1; j < n; ++j) {
      if (degenerate[j]) continue;
      const double* xj = residuals.data() + static_cast<size_t>(j) * w;
      double dot = 0.0;
      for (int t = 0; t < w; ++t) dot += xi[t] * xj[t];
      if (dot > 1.0) dot = 1.0;
      if (dot < -1.0) dot = -1.0;
      corr[static_cast<size_t>(i) * n + j] = dot;
      corr[static_cast<size_t>(j) * n + i] = dot;
    }
  }
  return corr;
}

// Community-correlated readings over `length` samples. Every fifth sensor is
// constant (degenerate), and every third is quantized so ranks tie.
ts::MultivariateSeries KernelSeries(int n, int length) {
  cad::Rng rng(static_cast<uint64_t>(1000 * n + length));
  ts::MultivariateSeries series(n, length);
  std::vector<double> factor(4, 0.0);
  for (int t = 0; t < length; ++t) {
    for (double& f : factor) f = 0.8 * f + 0.6 * rng.Gaussian();
    for (int i = 0; i < n; ++i) {
      double v = (i % 2 == 0 ? 1.0 : -1.0) * factor[i % 4] +
                 0.4 * rng.Gaussian() + 10.0 * i;
      if (i % 5 == 4) v = 2.5;
      if (i % 3 == 2) v = std::round(v * 2.0) / 2.0;
      series.set_value(i, t, v);
    }
  }
  return series;
}

// Every cell of `corr` has the bits of the dense reference.
void ExpectBitIdentical(const CorrelationMatrix& corr,
                        const std::vector<double>& reference) {
  const int n = corr.size();
  int mismatches = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double got = corr.at(i, j);
      const double want = reference[static_cast<size_t>(i) * n + j];
      if (std::memcmp(&got, &want, sizeof(double)) != 0 && ++mismatches <= 5) {
        ADD_FAILURE() << "cell (" << i << ", " << j << "): got " << got
                      << ", per-cell loop " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Every tile kernel this CPU runs (the production pick and each narrower
// one) against the per-cell loop, under Pearson and Spearman, on one thread
// and on three.
class CorrelationKernelReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorrelationKernelReferenceTest, BitIdenticalToPerCellLoop) {
  const auto [n, w] = GetParam();
  const int start = 3;
  const ts::MultivariateSeries series = KernelSeries(n, start + w + 2);
  CorrelationScratch scratch;
  CorrelationMatrix corr;
  for (CorrelationKind kind :
       {CorrelationKind::kPearson, CorrelationKind::kSpearman}) {
    const std::vector<double> reference =
        PerCellReference(series, start, w, kind);
    for (const internal::TileKernel& kernel :
         internal::SupportedTileKernels()) {
      for (int n_threads : {1, 3}) {
        // Reused scratch and matrix, as in the engine's rounds.
        internal::WindowCorrelationMatrixWithKernel(
            series, start, w, kind, n_threads, kernel, &scratch, &corr);
        ASSERT_EQ(corr.size(), n);
        SCOPED_TRACE(::testing::Message()
                     << (kind == CorrelationKind::kPearson ? "pearson"
                                                           : "spearman")
                     << " kernel=" << kernel.name
                     << " threads=" << n_threads);
        ExpectBitIdentical(corr, reference);
      }
    }
  }
}

std::string ShapeName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  // Appended piecewise: operator+ on a temporary trips GCC 12's -Wrestrict
  // false positive (PR105651) under -Werror.
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += "_w";
  name += std::to_string(std::get<1>(info.param));
  return name;
}

// Both sides of the 24-sensor switch, and the edges of the 8- and 32-column
// tiles and of the 4-row block (25 ... 130).
INSTANTIATE_TEST_SUITE_P(
    Shapes, CorrelationKernelReferenceTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 8, 9, 17, 23, 24, 25, 31,
                                         32, 33, 63, 64, 65, 129, 130, 406),
                       ::testing::Values(2, 3, 31, 86)),
    ShapeName);

// The IS-5 plant (1,266 sensors, window 73).
INSTANTIATE_TEST_SUITE_P(Is5Shape, CorrelationKernelReferenceTest,
                         ::testing::Values(std::make_tuple(1266, 73)),
                         ShapeName);

// Every block of every kernel reads only the residuals and their spare rows:
// they end right at an unreadable page, so a read past the spare rows or the
// padded columns faults. (Without the spare rows, the baseline kernel of a
// GCC 12 -march=native build reads past the last time step.) Each shape runs
// at the tightest stride the kernels accept and at the matrix's own.
TEST(CorrelationKernelBoundsTest, BlocksReadNothingPastTheResiduals) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  struct Shape {
    int n, w, stride;
  };
  std::vector<Shape> shapes;
  for (const auto& [n, w] : {std::pair{25, 3}, std::pair{33, 86},
                             std::pair{64, 31}, std::pair{130, 2},
                             std::pair{406, 86}}) {
    const int aligned = (n + internal::kResidualAlign - 1) /
                        internal::kResidualAlign * internal::kResidualAlign;
    shapes.push_back({n, w, aligned});
    shapes.push_back({n, w, internal::ResidualStride(n)});
  }
  for (const auto& [n, w, stride] : shapes) {
    const size_t values = static_cast<size_t>(w) * stride;
    const size_t bytes =
        (values + static_cast<size_t>(internal::kResidualSpareRows) * stride) *
        sizeof(double);
    const size_t mapped = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(base, MAP_FAILED);
    char* guard = static_cast<char*>(base) + mapped - page;
    ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);
    double* res = reinterpret_cast<double*>(guard - bytes);
    for (size_t k = 0; k < bytes / sizeof(double); ++k) {
      res[k] = k < values ? static_cast<double>(k % 7) / 7.0 : 0.0;
    }
    CorrelationMatrix corr;
    corr.Resize(n);
    for (const internal::TileKernel& kernel :
         internal::SupportedTileKernels()) {
      SCOPED_TRACE(::testing::Message() << kernel.name << " n=" << n
                                        << " w=" << w << " stride=" << stride);
      for (int i = 0; i + 1 < n; i += kernel.block_rows) {
        kernel.block(res, stride, w, n, i, &corr);
      }
      // Cell (0, n - 1): the first row against the last column.
      double dot = 0.0;
      for (int t = 0; t < w; ++t) {
        dot += res[static_cast<size_t>(t) * stride] *
               res[static_cast<size_t>(t) * stride + n - 1];
      }
      EXPECT_EQ(corr.at(0, n - 1), std::clamp(dot, -1.0, 1.0));
    }
    ASSERT_EQ(munmap(base, mapped), 0);
  }
}

// The matrix's stride is an odd number of 64-byte lines, so a sensor's
// transposed writes, one per time step, do not pile into a few L1 sets.
TEST(CorrelationKernelBoundsTest, ResidualStrideIsAnOddNumberOfLines) {
  EXPECT_EQ(internal::ResidualStride(1266), 1288);  // IS-5
  EXPECT_EQ(internal::ResidualStride(406), 424);    // IS-3
  for (int n = 1; n <= 1300; ++n) {
    const int stride = internal::ResidualStride(n);
    EXPECT_GE(stride, n);
    EXPECT_EQ(stride % 8, 0) << n;
    EXPECT_EQ(stride / 8 % 2, 1) << n;
  }
}

TEST(CorrelationKernelPickTest, ProductionRunsTheWidestSupportedKernel) {
  const std::span<const internal::TileKernel> kernels =
      internal::SupportedTileKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(&internal::ActiveTileKernel(), &kernels.front());
  EXPECT_STREQ(kernels.back().name, "baseline-2x8");
#if defined(__x86_64__)
  // The list follows the CPU: the AVX-512 kernel is listed exactly when the
  // host (and its OS) runs AVX-512F.
  std::vector<std::string> want;
  if (__builtin_cpu_supports("avx512f")) want.push_back("avx512f-4x32");
  want.push_back("baseline-2x8");
  std::vector<std::string> got;
  for (const internal::TileKernel& kernel : kernels) got.push_back(kernel.name);
  EXPECT_EQ(got, want);
#endif
}

// ---- The packed triangle -------------------------------------------------

TEST(CorrelationMatrixLayoutTest, ResetIsTheIdentity) {
  CorrelationMatrix corr(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) corr.set(i, j, 0.5);
  }
  corr.Reset(6);
  ASSERT_EQ(corr.size(), 6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) EXPECT_EQ(corr.at(i, j), i == j ? 1.0 : 0.0);
  }
}

TEST(CorrelationMatrixLayoutTest, SetIsVisibleFromBothSides) {
  const int n = 9;
  CorrelationMatrix corr(n);
  // A distinct value per pair, written from alternating sides.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v = 0.01 * (i * n + j);
      if ((i + j) % 2 == 0) {
        corr.set(i, j, v);
      } else {
        corr.set(j, i, v);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(corr.at(i, i), 1.0);
    for (int j = i + 1; j < n; ++j) {
      EXPECT_EQ(corr.at(i, j), 0.01 * (i * n + j)) << i << "," << j;
      EXPECT_EQ(corr.at(i, j), corr.at(j, i));
    }
  }
}

TEST(CorrelationMatrixLayoutTest, UpperRowAddressesTheCellsRightOfTheDiagonal) {
  const int n = 7;
  CorrelationMatrix corr;
  corr.Resize(n);
  for (int i = 0; i < n; ++i) {
    const std::span<double> row = corr.upper_row(i);
    ASSERT_EQ(row.size(), static_cast<size_t>(n - 1 - i));
    for (size_t m = 0; m < row.size(); ++m) row[m] = -0.001 * (i * n + m);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      EXPECT_EQ(corr.at(j, i), -0.001 * (i * n + (j - i - 1)));
    }
  }
  // Every cell belongs to exactly one row: writing row 2 changes only it.
  corr.upper_row(2)[1] = 0.75;
  EXPECT_EQ(corr.at(2, 4), 0.75);
  EXPECT_EQ(corr.at(4, 2), 0.75);
  EXPECT_EQ(corr.at(1, 4), -0.001 * (1 * n + 2));
  EXPECT_EQ(corr.at(3, 4), -0.001 * (3 * n + 0));
}

TEST(CorrelationMatrixLayoutTest, StoresOnlyTheUpperTriangle) {
  // A 1-sensor matrix has no off-diagonal cells; a 2-sensor one has one.
  CorrelationMatrix one(1);
  EXPECT_EQ(one.at(0, 0), 1.0);
  EXPECT_TRUE(one.upper_row(0).empty());
  CorrelationMatrix two(2);
  EXPECT_EQ(two.upper_row(0).size(), 1u);
  EXPECT_TRUE(two.upper_row(1).empty());
  two.set(1, 0, -0.25);
  EXPECT_EQ(two.upper_row(0)[0], -0.25);
}

// ---- Non-finite readings -------------------------------------------------

// 8 sensors in two anti-correlated groups; sensor 3's reading at t = 5 is
// `bad`. Big enough for n_threads = 3 to split the work.
ts::MultivariateSeries SeriesWithReading(double bad) {
  cad::Rng rng(29);
  const int n = 8, len = 24;
  ts::MultivariateSeries series(n, len);
  for (int t = 0; t < len; ++t) {
    const double f = rng.Gaussian();
    for (int i = 0; i < n; ++i) {
      series.set_value(i, t, (i < 4 ? f : -f) + 0.5 * rng.Gaussian());
    }
  }
  series.set_value(3, 5, bad);
  return series;
}

// Every cell of `got` has the bits of the same cell of `want`.
void ExpectSameBits(const CorrelationMatrix& got, const CorrelationMatrix& want,
                    int n_threads) {
  ASSERT_EQ(got.size(), want.size());
  for (int i = 0; i < got.size(); ++i) {
    for (int j = 0; j < got.size(); ++j) {
      const double a = got.at(i, j);
      const double b = want.at(i, j);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "n_threads " << n_threads << " cell " << i << "," << j << ": "
          << a << " vs " << b;
    }
  }
}

// Sensor 3 with reading `bad` correlates exactly as when its whole window
// is constant: 0 with every sensor, every other cell unchanged.
void ExpectDegenerate(double bad, CorrelationKind kind) {
  ts::MultivariateSeries flat = SeriesWithReading(0.0);
  for (int t = 0; t < 24; ++t) flat.set_value(3, t, 1.0);
  for (int n_threads : {1, 3}) {
    ExpectSameBits(
        WindowCorrelationMatrix(SeriesWithReading(bad), 0, 24, kind, n_threads),
        WindowCorrelationMatrix(flat, 0, 24, kind, n_threads), n_threads);
  }
}

// Under Spearman, ±Inf ranks as the window's extreme: the matrix equals the
// one with a finite stand-in beyond every other reading.
void ExpectRanksAs(double inf, double stand_in) {
  for (int n_threads : {1, 3}) {
    const CorrelationMatrix corr = WindowCorrelationMatrix(
        SeriesWithReading(inf), 0, 24, CorrelationKind::kSpearman, n_threads);
    ExpectSameBits(corr,
                   WindowCorrelationMatrix(SeriesWithReading(stand_in), 0, 24,
                                           CorrelationKind::kSpearman,
                                           n_threads),
                   n_threads);
    EXPECT_NE(corr.at(3, 0), 0.0);  // still correlated, not degenerate
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(CorrelationMatrixTest, PearsonNaNReadingIsDegenerate) {
  ExpectDegenerate(kNaN, CorrelationKind::kPearson);
}

TEST(CorrelationMatrixTest, SpearmanNaNReadingIsDegenerate) {
  ExpectDegenerate(kNaN, CorrelationKind::kSpearman);
}

TEST(CorrelationMatrixTest, PearsonPositiveInfReadingIsDegenerate) {
  ExpectDegenerate(kInf, CorrelationKind::kPearson);
}

TEST(CorrelationMatrixTest, PearsonNegativeInfReadingIsDegenerate) {
  ExpectDegenerate(-kInf, CorrelationKind::kPearson);
}

TEST(CorrelationMatrixTest, SpearmanPositiveInfReadingRanksHighest) {
  ExpectRanksAs(kInf, 1e6);
}

TEST(CorrelationMatrixTest, SpearmanNegativeInfReadingRanksLowest) {
  ExpectRanksAs(-kInf, -1e6);
}

// Finite readings whose window sum overflows have no finite mean: a NaN row
// before, a degenerate sensor now. Readings near 1e300 overflow only the
// squared norm, which already gave +0.0.
TEST(CorrelationMatrixTest, OverflowingWindowIsDegenerate) {
  for (double scale : {1e307, 1e300}) {
    ts::MultivariateSeries series(3, 30);
    for (int t = 0; t < 30; ++t) {
      series.set_value(0, t, scale * (1.0 + (t % 3)));
      series.set_value(1, t, std::sin(0.3 * t));
      series.set_value(2, t, std::cos(0.2 * t) + 0.1 * t);
    }
    const CorrelationMatrix corr = WindowCorrelationMatrix(series, 0, 30);
    const double zero = 0.0;
    for (int j : {1, 2}) {
      const double got = corr.at(0, j);
      EXPECT_EQ(std::memcmp(&got, &zero, sizeof(double)), 0)
          << "scale " << scale << " cell 0," << j << ": " << got;
    }
    EXPECT_FALSE(std::isnan(corr.at(1, 2)));
  }
}

}  // namespace
}  // namespace cad::stats
