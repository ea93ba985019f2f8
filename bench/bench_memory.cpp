// Memory-efficiency benchmark (DESIGN.md §11): the fleet-scale cost axes
// the latency benches don't see. Four sections:
//
//   1. Steady-state allocations/request on the serving path, reused
//      per-worker scratch vs a fresh scratch per request, with bit-identical
//      predictions either way.
//   2. Per-replica heap cost of loading the same artifact N times with the
//      content-hash intern pool on vs off (CoW fitted state).
//   3. WLMP artifact bytes (v4 per-section codecs) for a text pipeline
//      (toxic) and a tables+GBDT pipeline (music).
//   4. Cold-start: pipeline_from_bytes CPU time on those artifacts, with
//      the loaded pipeline predicting bit-identically to the in-memory one.
//
// Heap accounting replaces the global operator new/delete with counting
// wrappers (glibc malloc_usable_size gives the live-byte delta without a
// size map), so the replica and allocation numbers are deterministic —
// unlike VmRSS, which is printed for context but never asserted on.
//
// `--trend` asserts the floors; the nightly ctest tier drives it this way.
// `--smoke` only proves the binary runs end-to-end.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define WILLUMP_HAVE_USABLE_SIZE 1
#else
#define WILLUMP_HAVE_USABLE_SIZE 0
#endif

#include "bench_util.hpp"
#include "core/executors.hpp"
#include "kernels/dispatch.hpp"
#include "serialize/artifact.hpp"
#include "serialize/intern.hpp"

// --- counting heap hooks ---------------------------------------------------
// Replacing the plain forms is sufficient: libstdc++'s default operator
// new[], nothrow and sized variants all forward to these replaceable ones.

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

std::size_t usable(void* p) {
#if WILLUMP_HAVE_USABLE_SIZE
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(usable(p)),
                         std::memory_order_relaxed);
  return p;
}

void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;  // aligned_alloc contract
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(usable(p)),
                         std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(usable(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}

using namespace willump;
using namespace willump::bench;

namespace {

int failures = 0;

void check_trend(bool ok, const char* what) {
  if (!trend()) return;
  if (!ok) {
    std::printf("TREND VIOLATION: %s\n", what);
    ++failures;
  } else {
    std::printf("trend ok: %s\n", what);
  }
}

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t live_now() { return g_live_bytes.load(std::memory_order_relaxed); }

/// VmRSS / VmHWM in KiB from /proc/self/status; 0 when unavailable. Context
/// only — assertions use the deterministic hook counters above.
std::size_t proc_status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t out = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      out = static_cast<std::size_t>(std::strtoull(line + key_len + 1, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return out;
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Section 1: steady-state allocations/request, per-worker request scratch
/// vs a fresh scratch per request. Music is the all-numeric shape (table lookups + GBDT; both the
/// feature assembly and the tree traversal reuse persistent scratch) where
/// the arena path should hit zero heap traffic; toxic materializes a
/// lowercased string column and its n-gram staging per request (strings
/// fundamentally allocate), so its calibrated floor is a halving of the
/// fresh-state count rather than zero.
void bench_allocations(const workloads::Workload& wl,
                       const core::OptimizedPipeline& p, bool expect_zero) {
  std::printf("\n-- %s: allocations per request (request vs fresh scratch) --\n",
              wl.name.c_str());
  const std::size_t n =
      std::min<std::size_t>(wl.test.inputs.num_rows(), smoke() ? 64 : 512);

  // Pre-extract single-row batches so request extraction isn't counted.
  std::vector<data::Batch> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx[] = {i};
    rows.push_back(wl.test.inputs.select_rows(idx));
  }

  std::vector<double> preds_on(n), preds_off(n);
  double out_one[1];

  // Arena arm: the serving path, which reuses the worker's request scratch.
  const auto run_arena = [&](std::vector<double>& preds) {
    for (std::size_t i = 0; i < n; ++i) {
      p.predict_into(rows[i], {out_one, 1});
      preds[i] = out_one[0];
    }
  };
  // Fresh arm: the same executor path over a new scratch per request
  // (compiled_config pipelines serve without cascades, cache or pool).
  const auto run_fresh = [&](std::vector<double>& preds) {
    for (std::size_t i = 0; i < n; ++i) {
      core::ExecScratch fresh;
      p.full_model().predict_into(
          p.executor().compute_matrix_into(rows[i], fresh), {out_one, 1});
      preds[i] = out_one[0];
    }
  };

  run_arena(preds_on);  // warmup: faults scratch, grows capacities to steady state
  run_arena(preds_on);
  const std::uint64_t a0 = allocs_now();
  run_arena(preds_on);
  const double arena_per_req =
      static_cast<double>(allocs_now() - a0) / static_cast<double>(n);

  run_fresh(preds_off);  // warmup for symmetric treatment
  const std::uint64_t b0 = allocs_now();
  run_fresh(preds_off);
  const double plain_per_req =
      static_cast<double>(allocs_now() - b0) / static_cast<double>(n);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (preds_on[i] != preds_off[i]) ++mismatches;
  }

  TablePrinter table({"path", "allocs/request"});
  table.print_header();
  table.print_row({"arena scratch", fmt("%.2f", arena_per_req)});
  table.print_row({"fresh state", fmt("%.2f", plain_per_req)});
  std::printf("parity: %zu mismatched predictions (must be 0)\n", mismatches);

  check_trend(mismatches == 0, "arena-path predictions bit-exact with fresh-state");
  if (expect_zero) {
    check_trend(arena_per_req == 0.0,
                "numeric-pipeline arena path allocation-free per request");
  } else {
    check_trend(arena_per_req <= 0.5 * plain_per_req,
                "text-pipeline arena path <= 50% of fresh-state allocations");
  }
}

/// Section 2: N-replica heap cost. Every replica deserializes the same
/// artifact bytes; with the intern pool on, the heavy fitted state (feature
/// tables, flattened forest) dedups to one live copy, so replicas 2..N pay
/// only their private executor/layout state.
void bench_replicas(const std::vector<std::uint8_t>& artifact) {
  std::printf("\n-- music: per-replica heap (intern pool on vs off) --\n");
  const int n_replicas = 3;

  struct Run {
    std::int64_t one = 0;
    std::int64_t three = 0;
  };
  Run on_run, off_run;

  for (const bool intern_on : {true, false}) {
    serialize::InternPool::set_enabled(intern_on);
    serialize::InternPool::instance().clear();
    std::vector<core::OptimizedPipeline> replicas;
    replicas.reserve(n_replicas);
    const std::int64_t before = live_now();
    replicas.push_back(serialize::pipeline_from_bytes(artifact));
    const std::int64_t one = live_now() - before;
    for (int i = 1; i < n_replicas; ++i) {
      replicas.push_back(serialize::pipeline_from_bytes(artifact));
    }
    const std::int64_t three = live_now() - before;
    (intern_on ? on_run : off_run) = {one, three};
  }
  serialize::InternPool::set_enabled(true);
  serialize::InternPool::instance().clear();

  const auto ratio = [](const Run& r) {
    return r.one > 0 ? static_cast<double>(r.three) / static_cast<double>(r.one)
                     : 0.0;
  };
  TablePrinter table({"intern", "1-replica MiB", "3-replica MiB", "3x/1x"});
  table.print_header();
  table.print_row({"on", fmt("%.2f", mib(static_cast<double>(on_run.one))),
                   fmt("%.2f", mib(static_cast<double>(on_run.three))),
                   fmt("%.2fx", ratio(on_run))});
  table.print_row({"off", fmt("%.2f", mib(static_cast<double>(off_run.one))),
                   fmt("%.2f", mib(static_cast<double>(off_run.three))),
                   fmt("%.2fx", ratio(off_run))});
  std::printf("process VmRSS %.1f MiB, VmHWM %.1f MiB\n",
              static_cast<double>(proc_status_kib("VmRSS")) / 1024.0,
              static_cast<double>(proc_status_kib("VmHWM")) / 1024.0);

  check_trend(on_run.three <= (on_run.one * 3) / 2,
              "3-replica heap <= 1.5x 1-replica with intern pool on");
  check_trend(on_run.three < off_run.three,
              "intern pool strictly cheaper than private copies at 3 replicas");
}

/// Sections 3+4: artifact bytes and cold-start CPU time, plus load parity.
/// toxic's TF-IDF vocabularies front-code and its index streams
/// delta-encode; music is dominated by ~1 MiB of incompressible gaussian
/// table payloads. Returns the artifact for the replica section.
std::vector<std::uint8_t> bench_artifact(const workloads::Workload& wl,
                                         const core::OptimizedPipeline& p) {
  std::printf("\n-- %s: artifact bytes + cold start --\n", wl.name.c_str());
  std::vector<std::uint8_t> bytes = serialize::pipeline_to_bytes(p);
  core::OptimizedPipeline loaded = serialize::pipeline_from_bytes(bytes);
  // Cold start in *thread CPU time*, min-of-reps: the full ctest tree runs
  // this bench alongside 8-way suites, where wall clock inflates ~6x with
  // scheduler noise. CPU time measures the decode work itself.
  const int reps = smoke() ? 1 : 9;
  double load_us = 1e300;
  for (int r = 0; r < reps; ++r) {
    timespec t0, t1;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    (void)serialize::pipeline_from_bytes(bytes);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    load_us = std::min(load_us,
                       static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e6 +
                           static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-3);
  }

  const std::vector<double> ref = p.predict(wl.test.inputs);
  const std::vector<double> got = loaded.predict(wl.test.inputs);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != got[i]) ++mismatches;
  }

  TablePrinter table({"format", "bytes", "load cpu us"});
  table.print_header();
  table.print_row({"wlmp v4", fmt("%.0f", static_cast<double>(bytes.size())),
                   fmt("%.0f", load_us)});
  std::printf("parity: %zu mismatched predictions after load (must be 0)\n",
              mismatches);

  check_trend(mismatches == 0,
              "loaded artifact predicts bit-identically to the in-memory pipeline");
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv);
  print_banner(
      "Memory efficiency (request arenas, CoW fitted state, WLMP v4 codecs)",
      "DESIGN.md §11 (fleet-scale memory cost of the serving path)");

  const auto wl_music = make_workload("music");
  const auto wl_toxic = make_workload("toxic");
  // Pin the kernel/feature-op configs instead of autotuning: the tuner
  // picks by *timing*, so under a loaded machine (parallel ctest) it can
  // install a different feature-op config, which can change the allocation
  // profile of both arms. A memory bench measures the intended
  // serving path, deterministically; pinning also keeps the artifact bytes
  // identical run to run (no measured timings in the KERN section).
  auto opts = compiled_config();
  opts.kernel_config = kernels::KernelConfig{};
  opts.featureop_config = kernels::FeatureOpConfig{};
  const auto music = optimize(wl_music, opts);
  const auto toxic = optimize(wl_toxic, opts);

  bench_allocations(wl_music, music, /*expect_zero=*/true);
  bench_allocations(wl_toxic, toxic, /*expect_zero=*/false);

  const std::vector<std::uint8_t> music_bytes = bench_artifact(wl_music, music);
  (void)bench_artifact(wl_toxic, toxic);

  bench_replicas(music_bytes);

  if (trend() && failures > 0) {
    std::printf("\n%d trend assertion(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\ndone.\n");
  return 0;
}
