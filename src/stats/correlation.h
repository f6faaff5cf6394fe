// Correlation measures (paper Section III-B): TSG edge weights are the
// correlation of two sensors' readings within one window.
//
// Pearson is the paper's choice; Spearman (rank) correlation is offered as a
// robustness extension — invariant to monotone distortions and insensitive
// to heavy-tailed spikes, at an O(w log w) per-sensor ranking cost.
//
// Layout. A CorrelationMatrix stores only the n(n-1)/2 cells above the
// diagonal, row by row (row i holds (i, i+1) ... (i, n-1)); at(i, j) reads
// either half and the diagonal reads 1. The matrix kernel below writes each
// row once through upper_row, and the kNN builder reads the rows back in the
// same order.
//
// Kernel. The matrix form precomputes each sensor's centered, unit-norm
// residuals (ranked first for Spearman), stored time-major: w rows of n
// values, zero-padded to a multiple of 32 columns. The triangle is then
// computed in register tiles of R rows against C columns, whose R x C
// independent sums the compiler keeps in vector registers. O(n*w + n^2*w)
// flops. One tile loop is compiled twice (correlation_kernels.h): for
// baseline x86-64 at 2 x 8 (SSE2) and under [[gnu::target("avx512f")]] at
// 4 x 32. Each call runs the AVX-512 one when the CPU and OS support it,
// picked from libgcc's cached CPUID bits (__builtin_cpu_supports, which
// reports AVX-512 only once the OS has enabled its register state), and the
// baseline one otherwise; there is no option. Below 24 sensors, where most
// of a tile would fall on or below the diagonal, the residuals stay
// sensor-major and each cell is one dot product (the fleet's 8-sensor
// tenants take this path; IS-3 and IS-5 the tiles).
//
// Bitwise identity. Each cell still starts at 0.0, adds x_i[t] * x_j[t] for
// t = 0 ... w-1 in order and is clamped to [-1, 1]: the same operation
// sequence as a per-cell dot product, only R x C cells at a time. Vector
// lanes are independent cells, so the vector width changes how many cells
// advance together, never the sequence of any one. cad_stats compiles with
// -ffp-contract=off, PUBLIC so that its consumers follow it too: an FMA
// rounds x * y + acc once, and GCC would otherwise fuse the product into the
// sum under the avx512f target (and everywhere under -march=native). So
// every kernel gives the same bits, on every host and for any thread count
// (rows are split over threads by block). The reference test in
// tests/stats/correlation_test.cc compares every cell of every kernel the
// host runs with memcmp, on both sides of the 24-sensor switch, and the
// `native` stage of tools/verify_matrix.sh repeats it under -march=native.
//
// Degenerate windows correlate 0 with every sensor (and 1 with themselves)
// instead of NaN: a constant window, a Pearson window whose mean or squared
// norm is not finite (a NaN or ±Inf reading, or a sum that overflows), and a
// Spearman window holding a NaN — the one value the rank sort cannot order.
// ±Inf readings still rank as the extremes under Spearman.
#ifndef CAD_STATS_CORRELATION_H_
#define CAD_STATS_CORRELATION_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "check/check.h"
#include "common/realtime.h"
#include "ts/multivariate_series.h"

namespace cad::stats {

enum class CorrelationKind {
  kPearson,
  kSpearman,
};

// Pearson correlation of two equal-length series; 0 when either is constant.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

// Spearman rank correlation (ties get average ranks); 0 when constant.
double SpearmanCorrelation(std::span<const double> x,
                           std::span<const double> y);

// Symmetric correlation matrix with unit diagonal. Only the n(n-1)/2 cells
// above the diagonal are stored, row by row (see the file comment).
class CorrelationMatrix {
 public:
  CorrelationMatrix() = default;
  explicit CorrelationMatrix(int n) { Reset(n); }

  // Re-shapes to the n x n identity. Capacity is retained, so a matrix reused
  // across rounds of the same width never reallocates.
  void Reset(int n) {
    Resize(n);
    std::fill(values_.begin(), values_.end(), 0.0);
  }

  // Re-shapes to n x n and leaves the cells as they are: for writers that
  // fill every cell of every upper_row.
  void Resize(int n) {
    n_ = n;
    values_.resize(RowOffset(n));
  }

  int size() const { return n_; }
  double at(int i, int j) const { return i == j ? 1.0 : values_[Index(i, j)]; }
  // Sets cells (i, j) and (j, i); i != j.
  void set(int i, int j, double v) {
    CAD_DCHECK(i != j, "the diagonal of a correlation matrix is fixed at 1");
    values_[Index(i, j)] = v;
  }

  // Cells (i, i+1) ... (i, n-1): element m is cell (i, i+1+m).
  std::span<double> upper_row(int i) {
    return {values_.data() + RowOffset(i), static_cast<size_t>(n_ - 1 - i)};
  }
  std::span<const double> upper_row(int i) const {
    return {values_.data() + RowOffset(i), static_cast<size_t>(n_ - 1 - i)};
  }

 private:
  // Cells stored before row i: (n-1) + (n-2) + ... + (n-i); for i = n, the
  // whole triangle.
  size_t RowOffset(int i) const {
    return static_cast<size_t>(i) * static_cast<size_t>(2 * n_ - i - 1) / 2;
  }
  size_t Index(int i, int j) const {
    return i < j ? RowOffset(i) + static_cast<size_t>(j - i - 1)
                 : RowOffset(j) + static_cast<size_t>(i - j - 1);
  }

  int n_ = 0;
  std::vector<double> values_;
};

// Reusable buffers for WindowCorrelationMatrixInto. Buffers grow to the
// problem size on first use and are reused verbatim afterwards, so the
// steady-state recomputation touches no heap.
struct CorrelationScratch {
  std::vector<double> residuals;  // (w + 3 spare rows) x stride time-major
                                  // for the tiles, n x w sensor-major below
                                  // 24 sensors; 0 for degenerate sensors
                                  // and the padding
  std::vector<double> centered;   // one sensor's window minus its mean
  std::vector<double> ranked;     // Spearman only: one sensor's ranks
  std::vector<int> rank_order;    // Spearman only: argsort scratch
};

// Correlation matrix of all sensor pairs within window [start, start + w) of
// `series`. Degenerate sensors (see the file comment) correlate 0 with
// everything. `n_threads` > 1 splits the rows over threads (results
// identical).
CorrelationMatrix WindowCorrelationMatrix(
    const ts::MultivariateSeries& series, int start, int w,
    CorrelationKind kind = CorrelationKind::kPearson, int n_threads = 1);

// Allocation-free form: writes into `out` using `scratch`'s buffers.
// Bitwise-identical to WindowCorrelationMatrix for every input.
void WindowCorrelationMatrixInto(const ts::MultivariateSeries& series,
                                 int start, int w, CorrelationKind kind,
                                 int n_threads, CorrelationScratch* scratch,
                                 CorrelationMatrix* out) CAD_REALTIME_AUDITED;

// Average ranks of `x` (ties share the mean rank); the Spearman transform.
std::vector<double> RankTransform(std::span<const double> x);

// Allocation-free form; `order` is argsort scratch, `ranks` the output.
void RankTransformInto(std::span<const double> x, std::vector<int>* order,
                       std::vector<double>* ranks);

}  // namespace cad::stats

#endif  // CAD_STATS_CORRELATION_H_
