// Microbenchmarks (google-benchmark) of the computational kernels: MIC
// scoring vs series length, ARX association vs length, ARIMA fitting and
// one-step prediction, the pairwise association matrix, and signature-
// database queries vs database size. Not a paper table; these quantify the
// costs behind Table 1 and back the paper's scalability claim (local,
// per-context modeling keeps each unit of work small).

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "arx/arx.h"
#include "common/random.h"
#include "core/association.h"
#include "core/invariants.h"
#include "core/sigdb.h"
#include "mic/mic.h"
#include "mic/simd.h"
#include "telemetry/trace.h"
#include "timeseries/arima.h"

// Allocation counting: this binary replaces the global allocation functions
// with counting delegates to malloc/free so the MIC benchmarks can report
// allocations per call alongside latency (the zero-allocation claim of the
// workspace kernel is a perf property worth tracking, not just a test).
namespace {
std::atomic<uint64_t> g_heap_allocations{0};

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using invarnetx::Rng;

// Attaches "allocs_per_call" from a counter snapshot taken around the
// benchmark loop.
void ReportAllocsPerCall(benchmark::State& state, uint64_t allocs_before) {
  const uint64_t total = HeapAllocations() - allocs_before;
  state.counters["allocs_per_call"] =
      state.iterations() > 0
          ? static_cast<double>(total) / static_cast<double>(state.iterations())
          : 0.0;
}

std::vector<double> NoisyLine(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(0.02 * i + rng.Gaussian(0.0, 0.3));
  }
  return out;
}

// Cold path: a call-local workspace, so every call grows its buffers from
// scratch (upper bound on per-call allocation cost).
void BM_MicScore(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> x = NoisyLine(n, 1);
  const std::vector<double> y = NoisyLine(n, 2);
  const uint64_t allocs_before = HeapAllocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::mic::MicScore(x, y));
  }
  ReportAllocsPerCall(state, allocs_before);
}
BENCHMARK(BM_MicScore)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

// Steady-state path of the mining fan-out: one warm reusable workspace.
// allocs_per_call must read 0 - the kernel's zero-allocation guarantee.
void BM_MicScoreWorkspace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> x = NoisyLine(n, 1);
  const std::vector<double> y = NoisyLine(n, 2);
  invarnetx::mic::MicWorkspace workspace;
  benchmark::DoNotOptimize(
      invarnetx::mic::MicScore(x, y, &workspace));  // warm the buffers
  const uint64_t allocs_before = HeapAllocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::mic::MicScore(x, y, &workspace));
  }
  ReportAllocsPerCall(state, allocs_before);
}
BENCHMARK(BM_MicScoreWorkspace)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

// Forced-scalar counterpart of BM_MicScoreWorkspace: the same warm
// workspace with SIMD dispatch pinned to the portable tier, so the table
// quantifies what the vector DP lanes buy (the two rows return bit-identical
// scores - only the latency differs).
void BM_MicScoreWorkspaceScalar(benchmark::State& state) {
  const invarnetx::mic::SimdLevel saved = invarnetx::mic::ActiveSimdLevel();
  invarnetx::mic::SetSimdLevel(invarnetx::mic::SimdLevel::kScalar);
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> x = NoisyLine(n, 1);
  const std::vector<double> y = NoisyLine(n, 2);
  invarnetx::mic::MicWorkspace workspace;
  benchmark::DoNotOptimize(
      invarnetx::mic::MicScore(x, y, &workspace));  // warm the buffers
  const uint64_t allocs_before = HeapAllocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::mic::MicScore(x, y, &workspace));
  }
  ReportAllocsPerCall(state, allocs_before);
  invarnetx::mic::SetSimdLevel(saved);
}
BENCHMARK(BM_MicScoreWorkspaceScalar)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

// Pre-workspace kernel (per-call sorts, map-backed characteristic matrix,
// nested DP tables), kept as the exactness oracle: the before/after of the
// zero-allocation rewrite in one table.
void BM_MicReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> x = NoisyLine(n, 1);
  const std::vector<double> y = NoisyLine(n, 2);
  const uint64_t allocs_before = HeapAllocations();
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::mic::MicReference(x, y));
  }
  ReportAllocsPerCall(state, allocs_before);
}
BENCHMARK(BM_MicReference)->Arg(30)->Arg(60)->Arg(120)->Arg(240);

void BM_ArxAssociation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<double> x = NoisyLine(n, 1);
  const std::vector<double> y = NoisyLine(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::arx::ArxAssociationScore(x, y));
  }
}
BENCHMARK(BM_ArxAssociation)->Arg(60)->Arg(120)->Arg(240);

void BM_ArimaFitAuto(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<double> series;
  double v = 1.0;
  for (int i = 0; i < n; ++i) {
    v = 0.3 + 0.7 * v + rng.Gaussian(0.0, 0.05);
    series.push_back(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::ts::FitArimaAuto(series));
  }
}
BENCHMARK(BM_ArimaFitAuto)->Arg(120)->Arg(480);

void BM_ArimaPredictOneStep(benchmark::State& state) {
  auto model = invarnetx::ts::ArimaModel::FromParameters(
      invarnetx::ts::ArimaOrder{2, 1, 1}, {0.4, 0.2}, {0.3}, 0.01, 1.0);
  invarnetx::ts::ArimaPredictor predictor(model.value());
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Observe(rng.Gaussian(1.0, 0.05)));
  }
}
BENCHMARK(BM_ArimaPredictOneStep);

void BM_SignatureQuery(benchmark::State& state) {
  const int db_size = static_cast<int>(state.range(0));
  constexpr int kBits = 250;
  Rng rng(5);
  invarnetx::core::SignatureDatabase db;
  for (int s = 0; s < db_size; ++s) {
    invarnetx::core::Signature sig;
    sig.problem = "problem-" + std::to_string(s % 15);
    for (int b = 0; b < kBits; ++b) {
      sig.bits.push_back(rng.Bernoulli(0.2) ? 1 : 0);
    }
    (void)db.Add(std::move(sig));
  }
  std::vector<uint8_t> tuple;
  for (int b = 0; b < kBits; ++b) tuple.push_back(rng.Bernoulli(0.2) ? 1 : 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.Query(tuple, invarnetx::core::SimilarityMetric::kJaccard));
  }
}
BENCHMARK(BM_SignatureQuery)->Arg(30)->Arg(300)->Arg(3000);

void BM_AssociationMatrix(benchmark::State& state) {
  // Full 325-pair MIC matrix of one node trace - the Invar-C unit of work.
  const int ticks = static_cast<int>(state.range(0));
  Rng rng(6);
  invarnetx::telemetry::NodeTrace node;
  for (int t = 0; t < ticks; ++t) {
    const double driver = rng.Gaussian(0.0, 1.0);
    node.cpi.push_back(1.0 + 0.05 * driver);
    for (int m = 0; m < invarnetx::telemetry::kNumMetrics; ++m) {
      node.metrics[static_cast<size_t>(m)].push_back(
          10.0 + (m + 1) * driver + rng.Gaussian(0.0, 0.2));
    }
  }
  const auto engine = invarnetx::core::AssociationEngine::Make(
      invarnetx::core::AssociationEngineType::kMic);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        invarnetx::core::ComputeAssociationMatrix(node, *engine));
  }
}
BENCHMARK(BM_AssociationMatrix)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_ViolationTuple(benchmark::State& state) {
  Rng rng(7);
  invarnetx::core::InvariantSet set;
  invarnetx::core::AssociationMatrix abnormal;
  for (int i = 0; i < invarnetx::telemetry::kNumMetricPairs; ++i) {
    set.present.push_back(rng.Bernoulli(0.7));
    set.values.push_back(rng.Uniform());
    abnormal.push_back(rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        invarnetx::core::ComputeViolationTuple(set, abnormal));
  }
}
BENCHMARK(BM_ViolationTuple);

void BM_BuildInvariants(benchmark::State& state) {
  const int runs = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<invarnetx::core::AssociationMatrix> matrices;
  for (int r = 0; r < runs; ++r) {
    invarnetx::core::AssociationMatrix m;
    for (int i = 0; i < invarnetx::telemetry::kNumMetricPairs; ++i) {
      m.push_back(rng.Uniform());
    }
    matrices.push_back(std::move(m));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(invarnetx::core::BuildInvariants(matrices));
  }
}
BENCHMARK(BM_BuildInvariants)->Arg(10)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
