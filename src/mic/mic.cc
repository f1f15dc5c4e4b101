#include "mic/mic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>
#include <utility>

#include "mic/simd.h"

namespace invarnetx::mic {
namespace internal {

void StableOrder(const std::vector<double>& v, std::vector<int>* order) {
  order->resize(v.size());
  std::iota(order->begin(), order->end(), 0);
  // Sorting by (value, index) with std::sort yields exactly the permutation
  // std::stable_sort yields under a value-only comparator, without the
  // temporary merge buffer stable_sort heap-allocates per call.
  std::sort(order->begin(), order->end(), [&v](int a, int b) {
    if (v[a] != v[b]) return v[a] < v[b];
    return a < b;
  });
}

void EquipartitionY(const std::vector<double>& y, const std::vector<int>& order,
                    int rows, YPartition* out) {
  const int n = static_cast<int>(y.size());
  out->row_of_point.assign(y.size(), 0);
  out->num_rows = 0;
  if (n == 0 || rows < 1) return;

  int row = 0;
  int in_row = 0;
  int i = 0;
  while (i < n) {
    int j = 1;
    while (i + j < n && y[order[i + j]] == y[order[i]]) ++j;
    // Target size of the current row, counting its points among the ones
    // still to distribute over the remaining rows.
    double desired = static_cast<double>(n - i + in_row) /
                     static_cast<double>(rows - row);
    // Close the current row first when absorbing this tie-run would deviate
    // from the target size more than stopping short does.
    if (in_row > 0 && row < rows - 1 &&
        std::fabs(in_row + j - desired) > std::fabs(in_row - desired)) {
      ++row;
      in_row = 0;
      desired = static_cast<double>(n - i) / static_cast<double>(rows - row);
    }
    for (int t = 0; t < j; ++t) out->row_of_point[order[i + t]] = row;
    in_row += j;
    i += j;
    if (row < rows - 1 && in_row >= desired) {
      ++row;
      in_row = 0;
    }
  }
  // Count non-empty rows: row ids are assigned densely from 0.
  int max_row = 0;
  for (int r : out->row_of_point) max_row = std::max(max_row, r);
  out->num_rows = max_row + 1;
}

void BuildClumps(const std::vector<double>& x, const std::vector<int>& order,
                 const std::vector<int>& row_of_point, ClumpPartition* out) {
  const int n = static_cast<int>(x.size());
  out->boundaries.clear();
  out->boundaries.push_back(0);
  out->row_in_x_order.resize(x.size());
  if (n == 0) return;

  for (int t = 0; t < n; ++t) out->row_in_x_order[t] = row_of_point[order[t]];

  // Atomic groups share an x value; a group is "uniform" when all its points
  // lie in one Q row (uniform groups with the same row chain into one clump).
  int i = 0;
  int clump_row = -2;  // -2: no open clump; -1: open heterogeneous clump
  int count_in_clump = 0;
  while (i < n) {
    int j = 1;
    while (i + j < n && x[order[i + j]] == x[order[i]]) ++j;
    int group_row = out->row_in_x_order[i];
    for (int t = 1; t < j; ++t) {
      if (out->row_in_x_order[i + t] != group_row) {
        group_row = -1;
        break;
      }
    }
    const bool mergeable = clump_row >= 0 && group_row == clump_row;
    if (count_in_clump > 0 && !mergeable) {
      out->boundaries.push_back(out->boundaries.back() + count_in_clump);
      count_in_clump = 0;
    }
    count_in_clump += j;
    clump_row = group_row;
    if (group_row == -1) {
      // A heterogeneous group can never merge with its successor.
      out->boundaries.push_back(out->boundaries.back() + count_in_clump);
      count_in_clump = 0;
      clump_row = -2;
    }
    i += j;
  }
  if (count_in_clump > 0) {
    out->boundaries.push_back(out->boundaries.back() + count_in_clump);
  }
}

void BuildSuperclumps(const std::vector<int>& boundaries, int max_clumps,
                      std::vector<int>* out) {
  const int k = static_cast<int>(boundaries.size()) - 1;
  if (k <= max_clumps || max_clumps < 1) {
    out->assign(boundaries.begin(), boundaries.end());
    return;
  }
  const int n = boundaries.back();
  out->clear();
  out->push_back(0);
  int used = 0;      // superclumps closed so far
  int assigned = 0;  // points assigned so far
  for (int t = 1; t <= k; ++t) {
    const int size_if_closed = boundaries[t] - assigned;
    const double desired = static_cast<double>(n - assigned) /
                           static_cast<double>(max_clumps - used);
    const bool last_chance = (k - t) < (max_clumps - used);
    if (!last_chance && size_if_closed < desired && t < k) continue;
    out->push_back(boundaries[t]);
    assigned = boundaries[t];
    ++used;
    if (used == max_clumps) break;
  }
  if (out->back() != n) {
    if (used >= max_clumps) {
      // The cap is already reached but points remain (the break above fired
      // before the last boundary): merge the leftovers into the final
      // superclump instead of emitting a max_clumps+1-th one, which would
      // violate the cap OptimizeXAxis sizes its DP tables for.
      out->back() = n;
    } else {
      out->push_back(n);
    }
  }
}

double RowEntropy(const std::vector<int>& row_of_point, int num_rows,
                  std::vector<int>* counts_scratch) {
  if (row_of_point.empty()) return 0.0;
  counts_scratch->assign(static_cast<size_t>(num_rows), 0);
  for (int r : row_of_point) ++(*counts_scratch)[static_cast<size_t>(r)];
  const double n = static_cast<double>(row_of_point.size());
  double h = 0.0;
  for (int c : *counts_scratch) {
    if (c == 0) continue;
    const double p = c / n;
    h -= p * std::log(p);
  }
  return h;
}

namespace {

// Start of row np in the triangular term table.
size_t TermRow(int np) {
  return static_cast<size_t>(np) * (static_cast<size_t>(np) + 1) / 2;
}

// Appends the term-table rows up to min(points, kTermTableMaxPoints). Each
// entry is the exact expression the reference kernel evaluates inline, so a
// table lookup returns the same bits; entry 0 is +0.0 where the reference
// skips the term instead.
void GrowTermTable(int points, MicWorkspace* workspace) {
  const int max_np = std::min(points, kTermTableMaxPoints);
  if (max_np <= workspace->terms_max_np) return;
  workspace->terms.resize(TermRow(max_np + 1));
  for (int np = workspace->terms_max_np + 1; np <= max_np; ++np) {
    double* row = workspace->terms.data() + TermRow(np);
    row[0] = 0.0;
    for (int npq = 1; npq <= np; ++npq) {
      row[npq] = npq * std::log(static_cast<double>(npq) / np);
    }
  }
  workspace->terms_max_np = max_np;
}

}  // namespace

void OptimizeXAxis(const std::vector<int>& boundaries,
                   const std::vector<int>& row_in_x_order, int num_rows,
                   int max_cols, MicWorkspace* workspace,
                   std::vector<double>* best) {
  const int k = static_cast<int>(boundaries.size()) - 1;
  best->assign(static_cast<size_t>(std::max(max_cols, 1)), 0.0);
  if (k < 1 || max_cols < 1) return;
  const int rows = num_rows;

  // cum[t * rows + q] = points in the first t clumps that lie in row q:
  // the vector-of-vector table of the reference kernel flattened into one
  // contiguous row-major buffer (one cache-friendly block, no per-row
  // allocations).
  workspace->cum.assign(static_cast<size_t>(k + 1) * rows, 0);
  int* cum = workspace->cum.data();
  for (int t = 1; t <= k; ++t) {
    int* cur = cum + static_cast<size_t>(t) * rows;
    const int* prev = cum + static_cast<size_t>(t - 1) * rows;
    std::copy(prev, prev + rows, cur);
    for (int p = boundaries[t - 1]; p < boundaries[t]; ++p) {
      ++cur[row_in_x_order[p]];
    }
  }

  // Column score for clumps (s, t]: sum_q n_pq ln(n_pq / n_p). The total
  // objective over a partition is -n * H(Q|P), which is additive over
  // columns, enabling the interval-partition DP below. The score of a given
  // (s, t] is independent of the column budget l, so it is memoized once
  // here instead of being recomputed (with its ln calls) for every l - the
  // dominant saving of the flat-table kernel.
  //
  // The table is t-major - col_score[t * stride + s] - so the DP's inner
  // reduction over s streams one contiguous row per t; that layout is what
  // lets DpRowMax run in vector lanes.
  //
  // Each term n_pq ln(n_pq / n_p) is read from the workspace's term table,
  // so a column score is a branch-free sum of table entries in q order. An
  // empty cell adds the table's +0.0 where the reference adds nothing; the
  // running sum is never -0.0 (see SimdLevel), so that leaves it
  // bit-identical. Columns wider than the table evaluate the term inline.
  GrowTermTable(boundaries[k], workspace);
  const double* terms = workspace->terms.data();
  const size_t stride = static_cast<size_t>(k) + 1;
  workspace->col_score.resize(stride * stride);
  for (int t = 1; t <= k; ++t) {
    const int* cum_t = cum + static_cast<size_t>(t) * rows;
    double* score_row = workspace->col_score.data() + t * stride;
    for (int s = 0; s < t; ++s) {
      const int np = boundaries[t] - boundaries[s];
      const int* cum_s = cum + static_cast<size_t>(s) * rows;
      double acc = 0.0;
      if (np <= kTermTableMaxPoints) {
        const double* term = terms + TermRow(np);
        for (int q = 0; q < rows; ++q) acc += term[cum_t[q] - cum_s[q]];
      } else {
        for (int q = 0; q < rows; ++q) {
          const int npq = cum_t[q] - cum_s[q];
          if (npq > 0) acc += npq * std::log(static_cast<double>(npq) / np);
        }
      }
      score_row[s] = acc;
    }
  }
  const double* col_score = workspace->col_score.data();

  const int cols = std::min(max_cols, k);
  constexpr double kNegInf = -1e300;
  // dp[t] = best objective partitioning the first t clumps into l columns.
  workspace->dp.assign(static_cast<size_t>(k) + 1, kNegInf);
  for (int t = 1; t <= k; ++t) {
    workspace->dp[t] = col_score[t * stride];  // s = 0 row
  }
  (*best)[0] = workspace->dp[static_cast<size_t>(k)];
  workspace->next.assign(static_cast<size_t>(k) + 1, kNegInf);
  for (int l = 2; l <= cols; ++l) {
    std::fill(workspace->next.begin(), workspace->next.end(), kNegInf);
    const double* dp = workspace->dp.data();
    for (int t = l; t <= k; ++t) {
      workspace->next[static_cast<size_t>(t)] =
          DpRowMax(dp, col_score + static_cast<size_t>(t) * stride, l - 1, t);
    }
    workspace->dp.swap(workspace->next);
    (*best)[static_cast<size_t>(l - 1)] = workspace->dp[static_cast<size_t>(k)];
  }
  // More columns than clumps cannot help; extend with the exactly-k value.
  for (int l = cols + 1; l <= max_cols; ++l) {
    (*best)[static_cast<size_t>(l - 1)] = (*best)[static_cast<size_t>(cols - 1)];
  }
  // Refinement never decreases I(P;Q); make the vector cumulative-max so
  // entry l-1 is "best with at most l columns".
  for (size_t l = 1; l < best->size(); ++l) {
    (*best)[l] = std::max((*best)[l], (*best)[l - 1]);
  }
}

// ------------------------------------------- allocating convenience forms --

YPartition EquipartitionY(const std::vector<double>& y, int rows) {
  std::vector<int> order;
  StableOrder(y, &order);
  YPartition out;
  EquipartitionY(y, order, rows, &out);
  return out;
}

ClumpPartition BuildClumps(const std::vector<double>& x,
                           const std::vector<int>& row_of_point) {
  std::vector<int> order;
  StableOrder(x, &order);
  ClumpPartition out;
  BuildClumps(x, order, row_of_point, &out);
  return out;
}

std::vector<int> BuildSuperclumps(const std::vector<int>& boundaries,
                                  int max_clumps) {
  std::vector<int> out;
  BuildSuperclumps(boundaries, max_clumps, &out);
  return out;
}

double RowEntropy(const std::vector<int>& row_of_point, int num_rows) {
  std::vector<int> counts;
  return RowEntropy(row_of_point, num_rows, &counts);
}

std::vector<double> OptimizeXAxis(const std::vector<int>& boundaries,
                                  const std::vector<int>& row_in_x_order,
                                  int num_rows, int max_cols) {
  MicWorkspace workspace;
  std::vector<double> best;
  OptimizeXAxis(boundaries, row_in_x_order, num_rows, max_cols, &workspace,
                &best);
  return best;
}

}  // namespace internal

namespace {

Status ValidateInputs(const std::vector<double>& x,
                      const std::vector<double>& y,
                      const MicOptions& options) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("Mic: series length mismatch");
  }
  if (x.size() < 4) {
    return Status::InvalidArgument("Mic: need at least 4 points");
  }
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("Mic: alpha must be in (0, 1]");
  }
  if (options.clump_factor < 1) {
    return Status::InvalidArgument("Mic: clump_factor must be >= 1");
  }
  return Status::Ok();
}

int GridBound(size_t n, double alpha) {
  return std::max(
      static_cast<int>(std::pow(static_cast<double>(n), alpha)), 4);
}

// Accumulates characteristic-matrix entries for one axis orientation into
// the workspace's dense matrix: `axis_x` is partitioned into columns,
// `axis_y` equipartitioned into rows. `order_x`/`order_y` are the
// StableOrder permutations of the two axes, computed once per Mic() call -
// every row count ny reuses them, where the reference kernel re-sorted both
// axes inside this loop. `swapped` indicates the orientation relative to
// the caller's (x, y).
void ScanOrientation(const std::vector<double>& axis_x,
                     const std::vector<double>& axis_y,
                     const std::vector<int>& order_x,
                     const std::vector<int>& order_y, int grid_bound,
                     int clump_factor, bool swapped, MicWorkspace* ws) {
  const double n = static_cast<double>(axis_x.size());
  const int dim = ws->char_dim;
  for (int ny = 2; ny * 2 <= grid_bound; ++ny) {
    const int max_nx = grid_bound / ny;
    if (max_nx < 2) break;
    internal::EquipartitionY(axis_y, order_y, ny, &ws->q);
    if (ws->q.num_rows < 2) continue;
    const double h_q =
        internal::RowEntropy(ws->q.row_of_point, ws->q.num_rows,
                             &ws->row_counts);
    internal::BuildClumps(axis_x, order_x, ws->q.row_of_point, &ws->clumps);
    internal::BuildSuperclumps(ws->clumps.boundaries, clump_factor * max_nx,
                               &ws->superclumps);
    internal::OptimizeXAxis(ws->superclumps, ws->clumps.row_in_x_order,
                            ws->q.num_rows, max_nx, ws, &ws->best);
    for (int nx = 2; nx <= max_nx; ++nx) {
      const double mi = h_q + ws->best[static_cast<size_t>(nx - 1)] / n;
      const double norm = std::log(static_cast<double>(std::min(nx, ny)));
      double entry = norm > 0.0 ? mi / norm : 0.0;
      entry = std::clamp(entry, 0.0, 1.0);
      const size_t cell = swapped
                              ? static_cast<size_t>(ny) * dim + nx
                              : static_cast<size_t>(nx) * dim + ny;
      if (entry > ws->char_matrix[cell]) ws->char_matrix[cell] = entry;
    }
  }
}

// Derives MIC / MEV / MCN / MAS from the dense characteristic matrix.
// Iteration runs nx-major / ny-minor, the same lexicographic (nx, ny) order
// the reference kernel's std::map produced, so max/min tie-breaks (best
// grid, MCN) are bit-identical. Cells < 0 hold no entry (entries are
// clamped to [0, 1]).
MicResult Summarize(const double* matrix, int dim) {
  MicResult result;
  for (int nx = 2; nx < dim; ++nx) {
    for (int ny = 2; ny < dim; ++ny) {
      const double value = matrix[static_cast<size_t>(nx) * dim + ny];
      if (value < 0.0) continue;
      if (value > result.mic) {
        result.mic = value;
        result.best_x = nx;
        result.best_y = ny;
      }
      if (nx == 2 || ny == 2) {
        result.mev = std::max(result.mev, value);
      }
    }
  }
  double min_cells = 0.0;
  bool found = false;
  for (int nx = 2; nx < dim; ++nx) {
    for (int ny = 2; ny < dim; ++ny) {
      const double value = matrix[static_cast<size_t>(nx) * dim + ny];
      if (value < 0.0) continue;
      if (value >= result.mic - 1e-9) {
        const double cells = std::log2(static_cast<double>(nx) * ny);
        if (!found || cells < min_cells) {
          min_cells = cells;
          found = true;
        }
      }
      // The transposed grid is one direct index away in the dense layout
      // (the reference kernel paid a std::map::find per entry here).
      const double mirror = matrix[static_cast<size_t>(ny) * dim + nx];
      if (mirror >= 0.0) {
        result.mas = std::max(result.mas, std::fabs(value - mirror));
      }
    }
  }
  result.mcn = found ? min_cells : 0.0;
  return result;
}

}  // namespace

Result<MicResult> Mic(const std::vector<double>& x,
                      const std::vector<double>& y, const MicOptions& options,
                      MicWorkspace* workspace) {
  INVARNETX_RETURN_IF_ERROR(ValidateInputs(x, y, options));
  const int grid_bound = GridBound(x.size(), options.alpha);
  // Both grid dimensions are >= 2, so neither exceeds grid_bound / 2.
  const int dim = grid_bound / 2 + 1;
  workspace->char_dim = dim;
  workspace->char_matrix.assign(static_cast<size_t>(dim) * dim, -1.0);
  // One stable sort per axis per call; both orientations and every grid row
  // count share the two orders.
  internal::StableOrder(x, &workspace->order_x);
  internal::StableOrder(y, &workspace->order_y);
  ScanOrientation(x, y, workspace->order_x, workspace->order_y, grid_bound,
                  options.clump_factor, /*swapped=*/false, workspace);
  ScanOrientation(y, x, workspace->order_y, workspace->order_x, grid_bound,
                  options.clump_factor, /*swapped=*/true, workspace);
  return Summarize(workspace->char_matrix.data(), dim);
}

Result<MicResult> Mic(const std::vector<double>& x,
                      const std::vector<double>& y,
                      const MicOptions& options) {
  MicWorkspace workspace;
  return Mic(x, y, options, &workspace);
}

Result<double> MicScore(const std::vector<double>& x,
                        const std::vector<double>& y,
                        const MicOptions& options, MicWorkspace* workspace) {
  Result<MicResult> r = Mic(x, y, options, workspace);
  if (!r.ok()) return r.status();
  return r.value().mic;
}

Result<double> MicScore(const std::vector<double>& x,
                        const std::vector<double>& y,
                        const MicOptions& options) {
  MicWorkspace workspace;
  return MicScore(x, y, options, &workspace);
}

// ----------------------------------------------- reference implementation --

namespace {

// Characteristic matrix of the reference kernel, keyed by (columns over the
// caller's x, rows over the caller's y). Each entry is the larger of the
// two one-sided ApproxMaxMI approximations, as in the reference MINE
// implementation.
using CharMap = std::map<std::pair<int, int>, double>;

// The seed kernel's DP verbatim: vector-of-vector cumulative table and a
// column score recomputed (with its ln calls) for every column budget l.
// The workspace kernel memoizes the (l-independent) column scores in a flat
// table instead; keeping the naive form here makes the reference a genuine
// pre-optimization oracle for both values and cost.
std::vector<double> ReferenceOptimizeXAxis(
    const std::vector<int>& boundaries, const std::vector<int>& row_in_x_order,
    int num_rows, int max_cols) {
  const int k = static_cast<int>(boundaries.size()) - 1;
  std::vector<double> best(static_cast<size_t>(std::max(max_cols, 1)), 0.0);
  if (k < 1 || max_cols < 1) return best;

  // cum[t][q] = points in the first t clumps that lie in row q.
  std::vector<std::vector<int>> cum(
      static_cast<size_t>(k) + 1,
      std::vector<int>(static_cast<size_t>(num_rows), 0));
  for (int t = 1; t <= k; ++t) {
    cum[static_cast<size_t>(t)] = cum[static_cast<size_t>(t - 1)];
    for (int p = boundaries[t - 1]; p < boundaries[t]; ++p) {
      ++cum[static_cast<size_t>(t)][static_cast<size_t>(row_in_x_order[p])];
    }
  }

  auto column_score = [&](int s, int t) {
    const int np = boundaries[t] - boundaries[s];
    if (np == 0) return 0.0;
    double acc = 0.0;
    for (int q = 0; q < num_rows; ++q) {
      const int npq = cum[static_cast<size_t>(t)][static_cast<size_t>(q)] -
                      cum[static_cast<size_t>(s)][static_cast<size_t>(q)];
      if (npq > 0) acc += npq * std::log(static_cast<double>(npq) / np);
    }
    return acc;
  };

  const int cols = std::min(max_cols, k);
  constexpr double kNegInf = -1e300;
  std::vector<double> dp(static_cast<size_t>(k) + 1, kNegInf);
  for (int t = 1; t <= k; ++t) dp[static_cast<size_t>(t)] = column_score(0, t);
  best[0] = dp[static_cast<size_t>(k)];
  std::vector<double> next(static_cast<size_t>(k) + 1, kNegInf);
  for (int l = 2; l <= cols; ++l) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (int t = l; t <= k; ++t) {
      double v = kNegInf;
      for (int s = l - 1; s < t; ++s) {
        const double cand = dp[static_cast<size_t>(s)] + column_score(s, t);
        if (cand > v) v = cand;
      }
      next[static_cast<size_t>(t)] = v;
    }
    dp.swap(next);
    best[static_cast<size_t>(l - 1)] = dp[static_cast<size_t>(k)];
  }
  for (int l = cols + 1; l <= max_cols; ++l) {
    best[static_cast<size_t>(l - 1)] = best[static_cast<size_t>(cols - 1)];
  }
  for (size_t l = 1; l < best.size(); ++l) {
    best[l] = std::max(best[l], best[l - 1]);
  }
  return best;
}

void ReferenceScanOrientation(const std::vector<double>& axis_x,
                              const std::vector<double>& axis_y,
                              int grid_bound, int clump_factor, bool swapped,
                              CharMap* matrix) {
  const double n = static_cast<double>(axis_x.size());
  for (int ny = 2; ny * 2 <= grid_bound; ++ny) {
    const int max_nx = grid_bound / ny;
    if (max_nx < 2) break;
    internal::YPartition q = internal::EquipartitionY(axis_y, ny);
    if (q.num_rows < 2) continue;
    const double h_q = internal::RowEntropy(q.row_of_point, q.num_rows);
    internal::ClumpPartition clumps =
        internal::BuildClumps(axis_x, q.row_of_point);
    const std::vector<int> super = internal::BuildSuperclumps(
        clumps.boundaries, clump_factor * max_nx);
    const std::vector<double> best = ReferenceOptimizeXAxis(
        super, clumps.row_in_x_order, q.num_rows, max_nx);
    for (int nx = 2; nx <= max_nx; ++nx) {
      const double mi = h_q + best[static_cast<size_t>(nx - 1)] / n;
      const double norm = std::log(static_cast<double>(std::min(nx, ny)));
      double entry = norm > 0.0 ? mi / norm : 0.0;
      entry = std::clamp(entry, 0.0, 1.0);
      const std::pair<int, int> key =
          swapped ? std::make_pair(ny, nx) : std::make_pair(nx, ny);
      auto [it, inserted] = matrix->emplace(key, entry);
      if (!inserted) it->second = std::max(it->second, entry);
    }
  }
}

MicResult ReferenceSummarize(const CharMap& matrix) {
  MicResult result;
  for (const auto& [key, value] : matrix) {
    if (value > result.mic) {
      result.mic = value;
      result.best_x = key.first;
      result.best_y = key.second;
    }
    if (key.first == 2 || key.second == 2) {
      result.mev = std::max(result.mev, value);
    }
  }
  double min_cells = 0.0;
  bool found = false;
  for (const auto& [key, value] : matrix) {
    if (value >= result.mic - 1e-9) {
      const double cells =
          std::log2(static_cast<double>(key.first) * key.second);
      if (!found || cells < min_cells) {
        min_cells = cells;
        found = true;
      }
    }
    auto mirror = matrix.find({key.second, key.first});
    if (mirror != matrix.end()) {
      result.mas = std::max(result.mas, std::fabs(value - mirror->second));
    }
  }
  result.mcn = found ? min_cells : 0.0;
  return result;
}

}  // namespace

Result<MicResult> MicReference(const std::vector<double>& x,
                               const std::vector<double>& y,
                               const MicOptions& options) {
  INVARNETX_RETURN_IF_ERROR(ValidateInputs(x, y, options));
  const int grid_bound = GridBound(x.size(), options.alpha);
  CharMap matrix;
  ReferenceScanOrientation(x, y, grid_bound, options.clump_factor,
                           /*swapped=*/false, &matrix);
  ReferenceScanOrientation(y, x, grid_bound, options.clump_factor,
                           /*swapped=*/true, &matrix);
  return ReferenceSummarize(matrix);
}

}  // namespace invarnetx::mic
