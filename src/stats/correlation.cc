#include "stats/correlation.h"

#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

namespace cad::stats {

namespace {

constexpr double kEpsilon = 1e-12;

// The register tile of the triangle kernel: kTileRows rows against
// kTileCols columns, 16 accumulators.
constexpr int kTileRows = 2;
constexpr int kTileCols = 8;
// Below three tiles' width most of a tile's cells lie on or below the
// diagonal, and one dot product per cell is faster (measured at 8 to 32
// sensors); from 24 sensors up the tiles win.
constexpr int kMinTiledSensors = 3 * kTileCols;

double ClampUnit(double r) {
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
}

// Cells (i, j > i) and (i + 1, j > i + 1) of the triangle, i + 1 < n, from
// the time-major residuals `res` (row stride `stride`, a multiple of
// kTileCols). Tiles start at the multiple of kTileCols at or before i + 1;
// the few cells on or below the diagonal they also compute are dropped.
void TriangleRowPair(const double* res, int stride, int w, int n, int i,
                     CorrelationMatrix* out) CAD_REALTIME_AUDITED {
  const std::span<double> row0 = out->upper_row(i);      // column i + 1 + m
  const std::span<double> row1 = out->upper_row(i + 1);  // column i + 2 + m
  for (int j0 = (i + 1) / kTileCols * kTileCols; j0 < n; j0 += kTileCols) {
    double acc0[kTileCols] = {};
    double acc1[kTileCols] = {};
    for (int t = 0; t < w; ++t) {
      const double* rt = res + static_cast<size_t>(t) * stride;
      const double x0 = rt[i];
      const double x1 = rt[i + 1];
      const double* xj = rt + j0;
      for (int c = 0; c < kTileCols; ++c) {
        acc0[c] += x0 * xj[c];
        acc1[c] += x1 * xj[c];
      }
    }
    const int end = std::min(kTileCols, n - j0);
    for (int c = std::max(0, i + 1 - j0); c < end; ++c) {
      row0[static_cast<size_t>(j0 + c - i - 1)] = ClampUnit(acc0[c]);
    }
    for (int c = std::max(0, i + 2 - j0); c < end; ++c) {
      row1[static_cast<size_t>(j0 + c - i - 2)] = ClampUnit(acc1[c]);
    }
  }
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
  const int n = series.n_sensors();
  CAD_CHECK(start >= 0 && start + w <= series.length(), "window out of range");
  out->Resize(n);

  // Center and unit-normalize each sensor's window (rank-transformed first
  // for Spearman); the correlation of two sensors is then a dot product.
  // The tiles read the residuals time-major: row t holds every sensor's
  // value at t, padded with zero columns to a whole tile. The per-cell kernel
  // reads them sensor-major. A degenerate sensor's residuals are all 0, so
  // its every product, and so its every cell, is +0.0.
  const bool tiled = n >= kMinTiledSensors;
  const int stride = tiled ? (n + kTileCols - 1) / kTileCols * kTileCols : n;
  const size_t sensor_step = tiled ? 1 : static_cast<size_t>(w);
  const size_t time_step = tiled ? static_cast<size_t>(stride) : 1;
  std::vector<double>& residuals = scratch->residuals;
  residuals.resize(static_cast<size_t>(w) * stride);
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

  // Row blocks are split over threads with a balanced interleaving (block b
  // costs about n - 2b tiles' worth of columns, so striding blocks across
  // threads evens the load). Each cell is written by exactly one thread and
  // the arithmetic per cell is fixed, so results are identical for any
  // thread count.
  auto compute_blocks = [&](int first_block, int n_blocks_stride) {
    for (int i = first_block * kTileRows; i + 1 < n;
         i += n_blocks_stride * kTileRows) {
      if (tiled) {
        TriangleRowPair(residuals.data(), stride, w, n, i, out);
      } else {
        TriangleRow(residuals.data(), w, n, i, out);
        TriangleRow(residuals.data(), w, n, i + 1, out);
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
