// The triangle-tile kernels behind WindowCorrelationMatrixInto, for
// cad_stats itself and its tests and benches. No public header includes this
// one.
//
// One tile loop (correlation.cc) is compiled twice, each at its own tile
// shape: for baseline x86-64 (2 x 8, SSE2 registers) and under
// [[gnu::target("avx512f")]] (4 x 32). SupportedTileKernels() lists the ones
// this CPU and its OS can run, widest first, and the matrix uses the first.
// Every kernel gives every cell the same bits (see the file comment of
// correlation.h).
#ifndef CAD_STATS_CORRELATION_KERNELS_H_
#define CAD_STATS_CORRELATION_KERNELS_H_

#include <span>

#include "common/realtime.h"
#include "stats/correlation.h"
#include "ts/multivariate_series.h"

namespace cad::stats::internal {

// The time-major residual rows hold n rounded up to a multiple of this: the
// widest tile, and so a multiple of every kernel's tile width and block
// height. No tile reads a column, nor a block a row value, past it.
inline constexpr int kResidualAlign = 32;

// The row stride the matrix uses for n sensors: n rounded up to a multiple
// of kResidualAlign, plus one unread 64-byte line (8 values). The aligned
// width is always a whole number of 256-byte groups, i.e. an even number of
// lines; the extra line makes the stride an odd number of lines, so a
// sensor's w transposed residual writes, one per row, spread over L1's sets
// instead of sharing a few (at IS-5, 1,280 values are 10,240 B, 2,048 mod
// 4,096, and put all 73 writes in 2 of 64 sets; 1,288 spreads them).
inline constexpr int ResidualStride(int n) {
  static_assert(kResidualAlign % 16 == 0, "aligned rows are even lines");
  return (n + kResidualAlign - 1) / kResidualAlign * kResidualAlign + 8;
}

// Zero rows after the last time step. GCC 12's loop vectorizer may load a
// block's R row values at time t as part of a vector it fills from the next
// time steps' rows, and then use only the lanes of time t: up to
// 8 lanes / 2 rows - 1 = 3 rows past t for a 2-row block under AVX-512 (the
// baseline kernel under -march=native). The spare rows keep those loads
// inside the buffer; the guard-page test in tests/stats/correlation_test.cc
// checks every kernel against it.
inline constexpr int kResidualSpareRows = 3;

struct TileKernel {
  const char* name;  // ISA and tile shape, e.g. "avx512f-4x32"
  int block_rows;    // rows per block, the unit threads split the triangle by
  // Cells of rows i ... i + block_rows - 1 of the triangle (rows from n - 1
  // on have none), from the time-major residuals `res`: w rows of `stride`
  // values, stride at least n rounded up to a multiple of kResidualAlign
  // (ResidualStride(n) in the matrix), then kResidualSpareRows zero rows; i
  // a multiple of block_rows. Reads nothing outside those
  // (w + kResidualSpareRows) * stride values, and no column of a row from
  // n rounded up to kResidualAlign on.
  void (*block)(const double* res, int stride, int w, int n, int i,
                CorrelationMatrix* out);
};

// The kernels this CPU and OS support, widest first. Never empty: the
// baseline kernel, last, runs on every host. Reads the CPUID bits libgcc
// caches, which report AVX-512 only once the OS has enabled the ZMM
// register state, so the call is cheap and safe on any host.
std::span<const TileKernel> SupportedTileKernels() CAD_REALTIME_AUDITED;

// The kernel WindowCorrelationMatrixInto uses: the first supported one.
const TileKernel& ActiveTileKernel() CAD_REALTIME_AUDITED;

// WindowCorrelationMatrixInto with `kernel` for the tiles (from 24 sensors
// up; smaller matrices take the per-cell path whatever the kernel).
void WindowCorrelationMatrixWithKernel(const ts::MultivariateSeries& series,
                                       int start, int w, CorrelationKind kind,
                                       int n_threads, const TileKernel& kernel,
                                       CorrelationScratch* scratch,
                                       CorrelationMatrix* out)
    CAD_REALTIME_AUDITED;

}  // namespace cad::stats::internal

#endif  // CAD_STATS_CORRELATION_KERNELS_H_
