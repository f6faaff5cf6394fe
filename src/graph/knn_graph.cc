#include "graph/knn_graph.h"

#include "check/check.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace cad::graph {

namespace {

// The selection order: larger |corr| first, then the smaller index.
constexpr auto Stronger = [](const KnnCandidate& a, const KnnCandidate& b) {
  if (a.strength != b.strength) return a.strength > b.strength;
  return a.vertex < b.vertex;
};

// The weakest pick of a vertex that keeps all its candidates: no candidate
// is weaker, since |r| is never negative.
constexpr KnnCandidate kKeepAll{-1.0, 0};

// |r| histogram buckets over [tau, 1]; the top one also takes |r| > 1.
constexpr size_t kBuckets = 65;
constexpr double kTopBucket = kBuckets - 1;

// The bucket of a candidate strength (>= tau): floor((strength - tau) *
// scale), clamped to [0, 64] in double before the conversion to an integer,
// so a strength of +Inf or above 1 (or the NaN of Inf * 0) never reaches an
// out-of-range cast. Monotone in strength, because the subtraction and the
// multiplication by scale >= 0 both round monotonically; scale 0 (tau >= 1)
// puts every candidate in bucket 0.
inline size_t Bucket(double strength, double tau, double scale) {
  const double bucket = (strength - tau) * scale;
  if (bucket >= kTopBucket) return kBuckets - 1;
  return bucket >= 0.0 ? static_cast<size_t>(bucket) : 0;
}

}  // namespace

void BuildKnnGraphInto(const stats::CorrelationMatrix& corr,
                       const KnnGraphOptions& options, KnnScratch* scratch,
                       Graph* out, KnnGraphStats* stats) CAD_REALTIME_AUDITED {
  const int n = corr.size();
  CAD_CHECK(options.k >= 1, "k must be >= 1");
  const auto n_lists = static_cast<size_t>(n);
  const double tau = options.tau;

  // Scan: every cell with |r| >= tau, in (u, v) order, stored as {v, r} at
  // the front of `lists`. row_counts[u] counts row u's pairs, offsets[x]
  // every candidate of vertex x.
  std::vector<Graph::Neighbor>& lists = scratch->lists;
  std::vector<int>& row_counts = scratch->row_counts;
  std::vector<int>& offsets = scratch->offsets;
  row_counts.assign(n_lists, 0);
  offsets.assign(n_lists + 1, 0);
  int count = 0;
  for (int u = 0; u < n; ++u) {
    const std::span<const double> row = corr.upper_row(u);  // cells (u, u+1+m)
    EnsureSize(&lists, static_cast<size_t>(count) + row.size());
    const int row_start = count;
    for (size_t m = 0; m < row.size(); ++m) {
      if (!(std::abs(row[m]) >= tau)) continue;
      const int v = u + 1 + static_cast<int>(m);
      lists[count++] = {v, row[m]};
      ++offsets[v];
    }
    row_counts[u] = count - row_start;
    offsets[u] += row_counts[u];
  }

  // Gather, in place: the running sums make offsets[x] the end of list x,
  // and the pairs, taken last to first, are written to the back of both
  // endpoints' lists, moving each offset back to its list's start. Filled
  // back to front in reverse (u, v) order, every list ends up in ascending
  // neighbour order. No write lands on a pair not yet taken: pair p goes
  // to position p plus the lower-neighbour entries of the vertices up to
  // its row in the row's list, and past every pair of its row in the other.
  for (int x = 1; x < n; ++x) offsets[x] += offsets[x - 1];
  offsets[n] = 2 * count;
  EnsureSize(&lists, 2 * static_cast<size_t>(count));
  int pair = count;
  for (int u = n - 1; u >= 0; --u) {
    for (int i = 0; i < row_counts[u]; ++i) {
      const Graph::Neighbor cell = lists[--pair];  // {v, r} of pair (u, v)
      lists[--offsets[cell.vertex]] = {u, cell.weight};
      lists[--offsets[u]] = cell;
    }
  }

  // Select: the weakest kept pick of every vertex with more candidates than
  // it may keep — the capacity-th under Stronger, looked for only in the
  // histogram bucket that holds it.
  const int capacity = std::min(options.k, std::max(n - 1, 0));
  const double scale = tau < 1.0 ? kTopBucket / (1.0 - tau) : 0.0;
  std::vector<KnnCandidate>& weakest = scratch->weakest;
  weakest.assign(n_lists, kKeepAll);
  std::vector<KnnCandidate>& bucket = scratch->bucket;
  EnsureSize(&bucket, n_lists);
  for (int x = 0; x < n; ++x) {
    const Graph::Neighbor* const first = lists.data() + offsets[x];
    const Graph::Neighbor* const last = lists.data() + offsets[x + 1];
    if (last - first <= capacity) continue;
    std::array<int, kBuckets> histogram{};
    for (const Graph::Neighbor* nb = first; nb != last; ++nb) {
      ++histogram[Bucket(std::abs(nb->weight), tau, scale)];
    }
    size_t top = kBuckets - 1;
    int above = 0;  // candidates in the buckets above `top`
    while (above + histogram[top] < capacity) above += histogram[top--];
    KnnCandidate* members = bucket.data();
    for (const Graph::Neighbor* nb = first; nb != last; ++nb) {
      const double strength = std::abs(nb->weight);
      if (Bucket(strength, tau, scale) == top) {
        *members++ = {strength, nb->vertex};
      }
    }
    KnnCandidate* const nth = bucket.data() + (capacity - above - 1);
    std::nth_element(bucket.data(), nth, members, Stronger);
    weakest[x] = *nth;
  }

  // Keep and fill: a pair stays when it is at or above the weakest kept pick
  // of either endpoint. Compacting in place keeps every list ascending.
  int kept = 0;
  for (int x = 0; x < n; ++x) {
    const int begin = offsets[x];
    const int end = offsets[x + 1];
    offsets[x] = kept;
    for (int i = begin; i < end; ++i) {
      const Graph::Neighbor nb = lists[i];
      const double strength = std::abs(nb.weight);
      if (!Stronger(weakest[x], {strength, nb.vertex}) ||
          !Stronger(weakest[nb.vertex], {strength, x})) {
        lists[kept++] = nb;
      }
    }
  }
  offsets[n] = kept;
  out->AssignAdjacency(offsets,
                       {lists.data(), static_cast<size_t>(kept)});
  if (stats != nullptr) {
    stats->candidate_pairs = count;
    stats->kept_edges = static_cast<int>(out->n_edges());
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
