#include "stats/correlation.h"

#include "check/check.h"
#include "stats/correlation_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <thread>

namespace cad::stats {

namespace {

constexpr double kEpsilon = 1e-12;

using internal::kResidualAlign;
using internal::kResidualSpareRows;
// Below 24 sensors most of a tile's cells lie on or below the diagonal, and
// one dot product per cell is about as fast or faster. Measured per kernel at
// 8 to 48 sensors (w 32 and 86, -O3), the tiles overtake the per-cell loop at
// 12-16 sensors (AVX-512) and 16-24 (baseline); from 24 up both kernels win,
// so one switch serves both.
constexpr int kMinTiledSensors = 24;

double ClampUnit(double r) {
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
}

// Cells of rows i ... i + R - 1 (the ones below n - 1) from the time-major
// residuals `res`, row stride `stride`. Tiles of R rows x C columns start at
// the multiple of C at or before i + 1; the cells on or below the diagonal
// they also compute are dropped. Every cell starts at 0.0 and adds
// x_i[t] * x_j[t] for t = 0 ... w-1 in order: the per-cell loop's sequence.
// Always inlined, so each wrapper below compiles it for its own target.
template <int R, int C>
[[gnu::always_inline]] inline void TriangleTiles(
    const double* res, int stride, int w, int n, int i,
    CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  static_assert(kResidualAlign % C == 0 && kResidualAlign % R == 0);
  const int rows = std::min(R, n - 1 - i);
  for (int j0 = (i + 1) / C * C; j0 < n; j0 += C) {
    double acc[R][C] = {};
    for (int t = 0; t < w; ++t) {
      const double* rt = res + static_cast<size_t>(t) * stride;
      const double* xj = rt + j0;
      for (int c = 0; c < C; ++c) {
        for (int r = 0; r < R; ++r) acc[r][c] += rt[i + r] * xj[c];
      }
    }
    const int end = std::min(C, n - j0);
    for (int r = 0; r < rows; ++r) {
      const std::span<double> row = out->upper_row(i + r);  // col i+r+1+m
      for (int c = std::max(0, i + r + 1 - j0); c < end; ++c) {
        row[static_cast<size_t>(j0 + c - i - r - 1)] = ClampUnit(acc[r][c]);
      }
    }
  }
}

// The two instantiations. Tile shapes are measured, not derived (IS-5 shape,
// -O3): GCC 12 keeps these in registers, while under AVX-512, 4 x 16 is on
// par with 4 x 32 and 2 x 32 about 2x slower.
void TilesBaseline(const double* res, int stride, int w, int n, int i,
                   CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  TriangleTiles<2, 8>(res, stride, w, n, i, out);
}

#if defined(__x86_64__)
[[gnu::target("avx512f")]] void TilesAvx512(const double* res, int stride,
                                            int w, int n, int i,
                                            CorrelationMatrix* out)
    CAD_REALTIME_AUDITED {
  TriangleTiles<4, 32>(res, stride, w, n, i, out);
}
#endif

// Widest first; the baseline, last, runs on every host, so the supported
// kernels are a suffix of the table.
constexpr std::array kTileKernels = {
#if defined(__x86_64__)
    internal::TileKernel{"avx512f-4x32", 4, TilesAvx512},
#endif
    internal::TileKernel{"baseline-2x8", 2, TilesBaseline},
};

// Index of the widest kernel this CPU and OS run.
size_t FirstSupportedKernel() CAD_REALTIME_AUDITED {
#if defined(__x86_64__)
  __builtin_cpu_init();  // idempotent; covers callers in static initializers
  return __builtin_cpu_supports("avx512f") ? 0 : 1;
#else
  return 0;
#endif
}

// Row i's cells one dot product at a time over the sensor-major residuals
// `res` (sensor i at res + i * w): the kernel below kMinTiledSensors sensors,
// where a tile would mostly compute cells on or below the diagonal.
void TriangleRow(const double* res, int w, int n, int i,
                 CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  const std::span<double> row = out->upper_row(i);  // column i + 1 + m
  const double* xi = res + static_cast<size_t>(i) * w;
  for (int j = i + 1; j < n; ++j) {
    const double* xj = res + static_cast<size_t>(j) * w;
    double dot = 0.0;
    for (int t = 0; t < w; ++t) dot += xi[t] * xj[t];
    row[static_cast<size_t>(j - i - 1)] = ClampUnit(dot);
  }
}

}  // namespace

namespace internal {

std::span<const TileKernel> SupportedTileKernels() CAD_REALTIME_AUDITED {
  return std::span<const TileKernel>(kTileKernels).subspan(
      FirstSupportedKernel());
}

const TileKernel& ActiveTileKernel() CAD_REALTIME_AUDITED {
  return SupportedTileKernels().front();
}

}  // namespace internal

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  CAD_CHECK(x.size() == y.size(), "correlation of unequal-length series");
  const size_t n = x.size();
  if (n < 2) return 0.0;
  double mean_x = 0.0, mean_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx < kEpsilon || syy < kEpsilon) return 0.0;
  // Clamp rounding drift so callers can rely on [-1, 1].
  return ClampUnit(sxy / std::sqrt(sxx * syy));
}

void RankTransformInto(std::span<const double> x, std::vector<int>* order,
                       std::vector<double>* ranks) {
  const int n = static_cast<int>(x.size());
  order->resize(n);
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(),
            [&](int a, int b) { return x[a] < x[b]; });
  ranks->assign(n, 0.0);
  int i = 0;
  while (i < n) {
    int j = i;
    while (j + 1 < n && x[(*order)[j + 1]] == x[(*order)[i]]) ++j;
    const double shared = (static_cast<double>(i) + j) / 2.0 + 1.0;
    for (int idx = i; idx <= j; ++idx) (*ranks)[(*order)[idx]] = shared;
    i = j + 1;
  }
}

std::vector<double> RankTransform(std::span<const double> x) {
  std::vector<int> order;
  std::vector<double> ranks;
  RankTransformInto(x, &order, &ranks);
  return ranks;
}

double SpearmanCorrelation(std::span<const double> x,
                           std::span<const double> y) {
  CAD_CHECK(x.size() == y.size(), "correlation of unequal-length series");
  if (x.size() < 2) return 0.0;
  const std::vector<double> rx = RankTransform(x);
  const std::vector<double> ry = RankTransform(y);
  return PearsonCorrelation(rx, ry);
}

void WindowCorrelationMatrixInto(const ts::MultivariateSeries& series,
                                 int start, int w, CorrelationKind kind,
                                 int n_threads, CorrelationScratch* scratch,
                                 CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  internal::WindowCorrelationMatrixWithKernel(series, start, w, kind,
                                              n_threads,
                                              internal::ActiveTileKernel(),
                                              scratch, out);
}

void internal::WindowCorrelationMatrixWithKernel(
    const ts::MultivariateSeries& series, int start, int w,
    CorrelationKind kind, int n_threads, const TileKernel& kernel,
    CorrelationScratch* scratch, CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  const int n = series.n_sensors();
  CAD_CHECK(start >= 0 && start + w <= series.length(), "window out of range");
  out->Resize(n);

  // Center and unit-normalize each sensor's window (rank-transformed first
  // for Spearman); the correlation of two sensors is then a dot product.
  // The tiles read the residuals time-major: row t holds every sensor's
  // value at t, padded with zero columns to ResidualStride(n), and
  // kResidualSpareRows zero rows follow the last one. The per-cell kernel
  // reads them sensor-major. A degenerate sensor's residuals are all 0, so
  // its every product, and so its every cell, is +0.0.
  const bool tiled = n >= kMinTiledSensors;
  const int stride = tiled ? internal::ResidualStride(n) : n;
  const size_t sensor_step = tiled ? 1 : static_cast<size_t>(w);
  const size_t time_step = tiled ? static_cast<size_t>(stride) : 1;
  const size_t values = static_cast<size_t>(w) * stride;
  std::vector<double>& residuals = scratch->residuals;
  residuals.resize(values + (tiled ? kResidualSpareRows * time_step : 0));
  std::fill(residuals.begin() + static_cast<std::ptrdiff_t>(values),
            residuals.end(), 0.0);
  std::vector<double>& centered = scratch->centered;
  centered.resize(static_cast<size_t>(w));
  for (int i = 0; i < stride; ++i) {
    std::span<const double> x;
    if (i < n) x = series.sensor_window(i, start, w);
    if (kind == CorrelationKind::kSpearman && !x.empty()) {
      if (std::any_of(x.begin(), x.end(),
                      [](double v) { return std::isnan(v); })) {
        x = {};  // no order to rank by
      } else {
        RankTransformInto(x, &scratch->rank_order, &scratch->ranked);
        x = scratch->ranked;
      }
    }
    double inv_norm = 0.0;
    if (!x.empty()) {
      double mean = 0.0;
      for (double v : x) mean += v;
      mean /= static_cast<double>(w);
      double norm_sq = 0.0;
      for (int t = 0; t < w; ++t) {
        centered[t] = x[t] - mean;
        norm_sq += centered[t] * centered[t];
      }
      if (std::isfinite(mean) && std::isfinite(norm_sq) &&
          norm_sq >= kEpsilon) {
        inv_norm = 1.0 / std::sqrt(norm_sq);
      }
    }
    if (inv_norm == 0.0) std::fill(centered.begin(), centered.end(), 0.0);
    double* res = residuals.data() + static_cast<size_t>(i) * sensor_step;
    for (int t = 0; t < w; ++t) {
      res[static_cast<size_t>(t) * time_step] = centered[t] * inv_norm;
    }
  }

  // Row blocks (the kernel's block height; one row per block below
  // kMinTiledSensors) are split over threads with a balanced interleaving
  // (block b costs about n - b * height columns, so striding blocks across
  // threads evens the load). Each cell is written by exactly one thread and
  // the arithmetic per cell is fixed, so results are identical for any
  // thread count.
  const int block_rows = tiled ? kernel.block_rows : 1;
  auto compute_blocks = [&](int first_block, int n_blocks_stride) {
    for (int i = first_block * block_rows; i + 1 < n;
         i += n_blocks_stride * block_rows) {
      if (tiled) {
        kernel.block(residuals.data(), stride, w, n, i, out);
      } else {
        TriangleRow(residuals.data(), w, n, i, out);
      }
    }
  };

  if (n_threads <= 1 || n < 2 * n_threads) {
    compute_blocks(0, 1);
  } else {
    std::vector<std::thread> workers;
    // cad-lint: allow(CL007) opt-in n_threads>1 path; the engine's default single-thread configuration never reaches it
    workers.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) {
      // cad-lint: allow(CL007) thread spawn on the opt-in n_threads>1 path only
      workers.emplace_back(compute_blocks, t, n_threads);
    }
    // cad-lint: allow(CL007) join on the opt-in n_threads>1 path only
    for (std::thread& worker : workers) worker.join();
  }
}

CorrelationMatrix WindowCorrelationMatrix(const ts::MultivariateSeries& series,
                                          int start, int w,
                                          CorrelationKind kind, int n_threads) {
  CorrelationMatrix corr;
  CorrelationScratch scratch;
  WindowCorrelationMatrixInto(series, start, w, kind, n_threads, &scratch,
                              &corr);
  return corr;
}

}  // namespace cad::stats
