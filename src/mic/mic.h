#ifndef INVARNETX_MIC_MIC_H_
#define INVARNETX_MIC_MIC_H_

#include <vector>

#include "common/status.h"

namespace invarnetx::mic {

// Options for the MINE approximation of the Maximal Information Coefficient
// (Reshef et al., "Detecting novel associations in large data sets",
// Science 2011). B(n) = max(floor(n^alpha), 4) bounds the grid resolution
// (x * y <= B); `clump_factor` (c in the paper) caps the candidate column
// edges at c * x superclumps.
struct MicOptions {
  double alpha = 0.6;
  int clump_factor = 15;
};

// Result of a MIC computation: the score, the grid that achieved it, and
// the companion MINE statistics derived from the characteristic matrix
// (Reshef et al. 2011, Table 2):
//   MEV (maximum edge value)     - strength of the best functional fit,
//                                  max M(x,y) over grids with x=2 or y=2;
//   MCN (minimum cell number)    - complexity, log2(x*y) of the smallest
//                                  grid achieving (1-eps) * MIC;
//   MAS (maximum asymmetry score)- non-monotonicity, max |M(x,y)-M(y,x)|.
struct MicResult {
  double mic = 0.0;
  int best_x = 0;  // columns of the maximizing grid
  int best_y = 0;  // rows of the maximizing grid
  double mev = 0.0;
  double mcn = 0.0;
  double mas = 0.0;
};

namespace internal {

// Equipartitions the values into at most `rows` groups of near-equal size,
// keeping ties together. Returns a row id per input index (0-based), and the
// number of non-empty rows actually used.
struct YPartition {
  std::vector<int> row_of_point;  // indexed by original point index
  int num_rows = 0;
};

// Clump edges for the x-axis given a row assignment: maximal runs of
// x-ordered points that share a Q row form one clump; points with equal x
// always share a clump. Returns cumulative point counts (size k+1, first 0,
// last n) and, aligned with x order, the row of each point.
struct ClumpPartition {
  std::vector<int> boundaries;      // cumulative counts, boundaries[0] == 0
  std::vector<int> row_in_x_order;  // Q row of the t-th point in x order
};

// Widest column (in points) whose npq * ln(npq / np) terms come from the
// workspace's term table; wider columns evaluate the term inline. 256 is
// FleetConfig::window_capacity's default, so every served window is covered.
inline constexpr int kTermTableMaxPoints = 256;

}  // namespace internal

// Reusable scratch memory for the MIC kernel. Every buffer the grid search
// needs - axis sort orders, the y-partition, clump edges, the flat DP
// tables, the term table and the dense characteristic matrix - lives here
// and is resized (never shrunk) per call, so a warm workspace makes Mic()
// perform zero heap allocations in steady state. Buffers grow to the
// high-water mark of the series lengths seen; for B = grid_bound(n) the
// dense characteristic matrix costs (B/2 + 1)^2 doubles (~43 KB at
// n = 4096), the column-score table (c * B/2 + 1)^2 doubles, and the term
// table (m + 1)(m + 2)/2 doubles for m = min(n, kTermTableMaxPoints):
// ~17 KB at n = 64, at most ~265 KB.
//
// A workspace is NOT thread-safe: use one instance per thread. The mining
// fan-out keeps one per pool worker via ThreadLocalInstance<MicWorkspace>()
// (see common/parallel.h); pool workers are long-lived, so the buffers
// amortize across every subsequent association matrix.
struct MicWorkspace {
  // Per-axis stable sort orders, computed once per Mic() call and shared by
  // every grid row count in both orientations.
  std::vector<int> order_x;
  std::vector<int> order_y;
  internal::YPartition q;            // y-axis equipartition of the
                                     // current orientation
  internal::ClumpPartition clumps;   // x-axis clumps of the current
                                     // orientation
  std::vector<int> superclumps;      // coarsened clump boundaries
  std::vector<int> row_counts;       // RowEntropy histogram scratch
  std::vector<int> cum;              // (k+1) x num_rows row-major cumulative
                                     // per-row counts
  std::vector<double> col_score;     // (k+1)^2 memoized column scores,
                                     // t-major: [t * (k+1) + s] = score of
                                     // clump interval (s, t], so the DP's
                                     // per-t reduction over s is contiguous
                                     // (the layout mic/simd.h lanes read)
  std::vector<double> terms;         // triangular term table: row np (at
                                     // np * (np + 1) / 2) holds, for
                                     // npq = 0..np, 0.0 and then
                                     // npq * ln(npq / np); its values do not
                                     // depend on the series, so rows are
                                     // only ever appended
  int terms_max_np = -1;             // last row held in `terms`
  std::vector<double> dp;            // DP tables of OptimizeXAxis
  std::vector<double> next;
  std::vector<double> best;
  std::vector<double> char_matrix;   // dense char_dim x char_dim grid of
                                     // characteristic-matrix entries,
                                     // -1.0 == no entry
  int char_dim = 0;
};

// Computes MIC(x, y) in [0, 1]. Requires x.size() == y.size() >= 4.
// Deterministic: no randomness is involved.
//
// Implementation: for every grid shape (nx, ny) with nx * ny <= B(n), the
// y-axis is equipartitioned into ny rows and the x-axis partition into at
// most nx columns is optimized by dynamic programming over clump edges
// (ApproxMaxMI); the characteristic matrix entry is the normalized maximum
// over both axis orientations, and MIC is the matrix maximum.
//
// `workspace` provides the kernel's scratch memory; a warm workspace makes
// the call allocation-free. Results are bit-identical for any workspace
// state (cold, warm, or warmed by different inputs) and to MicReference().
Result<MicResult> Mic(const std::vector<double>& x,
                      const std::vector<double>& y, const MicOptions& options,
                      MicWorkspace* workspace);

// Convenience overload with a private, call-local workspace.
Result<MicResult> Mic(const std::vector<double>& x,
                      const std::vector<double>& y,
                      const MicOptions& options = MicOptions());

// Convenience wrappers returning only the score.
Result<double> MicScore(const std::vector<double>& x,
                        const std::vector<double>& y,
                        const MicOptions& options, MicWorkspace* workspace);
Result<double> MicScore(const std::vector<double>& x,
                        const std::vector<double>& y,
                        const MicOptions& options = MicOptions());

// Reference implementation: the original allocating kernel (per-call sorts,
// map-backed characteristic matrix, vector-of-vector DP tables). Kept as
// the exactness oracle - tests assert the workspace kernel above returns
// bit-identical MicResults - and as readable documentation of the
// algorithm. Not for production use: several times slower than Mic().
Result<MicResult> MicReference(const std::vector<double>& x,
                               const std::vector<double>& y,
                               const MicOptions& options = MicOptions());

namespace internal {

// Fills `order` with the indices of `v` sorted ascending by value, ties by
// index - the exact permutation std::stable_sort produces from an iota
// order, computed with std::sort (no temporary-buffer allocation).
void StableOrder(const std::vector<double>& v, std::vector<int>* order);

// Workspace forms of the kernel stages. Each writes its result into an
// out-parameter whose capacity is reused across calls; `order` is the
// StableOrder permutation of the partitioned axis, hoisted out so the
// per-row-count loop in the grid scan never re-sorts.
void EquipartitionY(const std::vector<double>& y,
                    const std::vector<int>& order, int rows, YPartition* out);
void BuildClumps(const std::vector<double>& x, const std::vector<int>& order,
                 const std::vector<int>& row_of_point, ClumpPartition* out);
void BuildSuperclumps(const std::vector<int>& boundaries, int max_clumps,
                      std::vector<int>* out);
void OptimizeXAxis(const std::vector<int>& boundaries,
                   const std::vector<int>& row_in_x_order, int num_rows,
                   int max_cols, MicWorkspace* workspace,
                   std::vector<double>* best);
double RowEntropy(const std::vector<int>& row_of_point, int num_rows,
                  std::vector<int>* counts_scratch);

// Allocating convenience forms (sort internally / return by value), used by
// unit tests and MicReference; results are identical to the workspace forms.
YPartition EquipartitionY(const std::vector<double>& y, int rows);
ClumpPartition BuildClumps(const std::vector<double>& x,
                           const std::vector<int>& row_of_point);
std::vector<int> BuildSuperclumps(const std::vector<int>& boundaries,
                                  int max_clumps);
std::vector<double> OptimizeXAxis(const std::vector<int>& boundaries,
                                  const std::vector<int>& row_in_x_order,
                                  int num_rows, int max_cols);
double RowEntropy(const std::vector<int>& row_of_point, int num_rows);

}  // namespace internal

}  // namespace invarnetx::mic

#endif  // INVARNETX_MIC_MIC_H_
