#include "graph/knn_graph.h"

#include "check/check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace cad::graph {

namespace {

// The selection order: larger |corr| first, then the smaller index.
constexpr auto Stronger = [](const KnnCandidate& a, const KnnCandidate& b) {
  if (a.strength != b.strength) return a.strength > b.strength;
  return a.vertex < b.vertex;
};

// Offers `candidate` to the bounded heap [heap, heap + capacity) holding
// *size entries. The root is the weakest kept pick: no entry is Stronger
// than its children. Inline: a call per offer costs more than the offer
// (a third of the 8-sensor build).
inline void Offer(KnnCandidate* heap, int capacity, int* size,
           const KnnCandidate& candidate) CAD_REALTIME_AUDITED {
  int hole;
  if (*size < capacity) {
    hole = (*size)++;
    while (hole > 0 && Stronger(heap[(hole - 1) / 2], candidate)) {
      heap[hole] = heap[(hole - 1) / 2];
      hole = (hole - 1) / 2;
    }
  } else {
    if (!Stronger(candidate, heap[0])) return;
    hole = 0;
    for (int child = 1; child < capacity; child = 2 * hole + 1) {
      if (child + 1 < capacity && Stronger(heap[child], heap[child + 1])) {
        ++child;  // the weaker child
      }
      if (!Stronger(candidate, heap[child])) break;
      heap[hole] = heap[child];
      hole = child;
    }
  }
  heap[hole] = candidate;
}

}  // namespace

void BuildKnnGraphInto(const stats::CorrelationMatrix& corr,
                       const KnnGraphOptions& options, KnnScratch* scratch,
                       Graph* out, KnnGraphStats* stats) CAD_REALTIME_AUDITED {
  const int n = corr.size();
  CAD_CHECK(options.k >= 1, "k must be >= 1");
  out->Reset(n);
  Graph& graph = *out;

  // Top-k selection: every pair above tau is offered to both endpoints.
  const int capacity = std::min(options.k, std::max(n - 1, 0));
  std::vector<KnnCandidate>& heaps = scratch->heaps;
  heaps.resize(static_cast<size_t>(n) * static_cast<size_t>(capacity));
  std::vector<int>& heap_size = scratch->heap_size;
  heap_size.assign(static_cast<size_t>(n), 0);
  const auto heap = [&](int u) {
    return heaps.data() +
           static_cast<size_t>(u) * static_cast<size_t>(capacity);
  };
  int candidate_pairs = 0;
  for (int u = 0; u < n; ++u) {
    const std::span<const double> row = corr.upper_row(u);  // cells (u, u+1+m)
    for (size_t m = 0; m < row.size(); ++m) {
      const double strength = std::abs(row[m]);
      if (!(strength >= options.tau)) continue;
      const int v = u + 1 + static_cast<int>(m);
      ++candidate_pairs;
      Offer(heap(u), capacity, &heap_size[static_cast<size_t>(u)],
            {strength, v});
      Offer(heap(v), capacity, &heap_size[static_cast<size_t>(v)],
            {strength, u});
    }
  }

  // Symmetric union: pick (u, v) becomes bit max(u, v) of row min(u, v).
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  std::vector<uint64_t>& picked = scratch->picked;
  picked.assign(static_cast<size_t>(n) * words, 0);
  for (int u = 0; u < n; ++u) {
    const KnnCandidate* picks = heap(u);
    for (int idx = 0; idx < heap_size[static_cast<size_t>(u)]; ++idx) {
      const int lo = std::min(u, picks[idx].vertex);
      const int hi = std::max(u, picks[idx].vertex);
      picked[static_cast<size_t>(lo) * words + static_cast<size_t>(hi) / 64] |=
          uint64_t{1} << (hi % 64);
    }
  }

  // Edges in (u, v) lexicographic order, weights read from the triangle.
  for (int u = 0; u < n; ++u) {
    const std::span<const double> row = corr.upper_row(u);
    const uint64_t* bits = picked.data() + static_cast<size_t>(u) * words;
    for (size_t word = static_cast<size_t>(u) / 64; word < words; ++word) {
      for (uint64_t rest = bits[word]; rest != 0; rest &= rest - 1) {
        const int v = static_cast<int>(word * 64) + std::countr_zero(rest);
        graph.AddEdge(u, v, row[static_cast<size_t>(v - u - 1)]);
      }
    }
  }
  if (stats != nullptr) {
    stats->candidate_pairs = candidate_pairs;
    stats->kept_edges = static_cast<int>(graph.n_edges());
  }
}

Graph BuildKnnGraph(const stats::CorrelationMatrix& corr,
                    const KnnGraphOptions& options, KnnGraphStats* stats) {
  Graph graph;
  KnnScratch scratch;
  BuildKnnGraphInto(corr, options, &scratch, &graph, stats);
  return graph;
}

}  // namespace cad::graph
