// Concurrency surface of the memory-efficiency layer (run under
// ThreadSanitizer via `ctest -L concurrency`):
//  - copy-on-write fitted state: replicas deserialized from the same bytes
//    share interned tables/vocabularies/forests through shared_ptr<const>,
//    and stay valid while swap_model retires generations under live
//    open-loop traffic;
//  - per-worker arena scratch: concurrent predict paths each reuse their
//    own thread_local ExecScratch, and arena rewinding never aliases rows
//    another thread (or a later request) still depends on — predictions
//    stay bit-identical to a single-threaded reference throughout.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/executors.hpp"
#include "serialize/artifact.hpp"
#include "serialize/intern.hpp"
#include "serving/server.hpp"
#include "test_support.hpp"

namespace willump {
namespace {

using Clock = std::chrono::steady_clock;

TEST(CowConcurrency, ReplicasShareInternedStateAcrossLoads) {
  auto& f = testing::shared_toxic_optimized();
  const auto bytes = serialize::pipeline_to_bytes(f.pipeline);

  serialize::InternPool::set_enabled(true);
  serialize::InternPool::instance().clear();
  const auto first = std::make_shared<const core::OptimizedPipeline>(
      serialize::pipeline_from_bytes(bytes));
  const auto misses = serialize::InternPool::instance().stats().misses;
  EXPECT_GT(misses, 0u);
  const auto second = std::make_shared<const core::OptimizedPipeline>(
      serialize::pipeline_from_bytes(bytes));
  // Byte-identical fitted state dedups to the first load's live objects.
  EXPECT_GT(serialize::InternPool::instance().stats().hits, 0u);
  EXPECT_EQ(serialize::InternPool::instance().stats().misses, misses);

  const auto row = f.wl.test.inputs.row(0);
  EXPECT_EQ(first->predict_one(row), second->predict_one(row));
}

TEST(CowConcurrency, SharedStateSurvivesSwapUnderOpenLoopTraffic) {
  auto& f = testing::shared_toxic_optimized();
  const auto bytes = serialize::pipeline_to_bytes(f.pipeline);
  serialize::InternPool::set_enabled(true);

  // Reference predictions from the in-memory pipeline; every loaded
  // generation predicts identically (same bytes), so traffic can assert
  // exact values across any number of swaps.
  const std::size_t kRows = 24;
  std::vector<data::Batch> rows;
  std::vector<double> ref;
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(f.wl.test.inputs.row(i));
    ref.push_back(f.pipeline.predict_one(rows.back()));
  }

  serving::Server server(serving::ServerConfig{.num_workers = 2});
  server.register_model("m", std::make_shared<const core::OptimizedPipeline>(
                                 serialize::pipeline_from_bytes(bytes)));
  // Replica groups grow before serving starts (first submit).
  server.add_replica("m", std::make_shared<const core::OptimizedPipeline>(
                              serialize::pipeline_from_bytes(bytes)));
  ASSERT_EQ(server.replica_count("m"), 2u);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::size_t r = static_cast<std::size_t>(t * 17 + i) % kRows;
        if (server.submit("m", rows[r]).get() != ref[r]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread swapper([&] {
    // Full rollouts while traffic is in flight: each swap retires a
    // generation whose interned state the new one immediately re-shares.
    while (!stop.load(std::memory_order_relaxed)) {
      server.swap_model("m", std::make_shared<const core::OptimizedPipeline>(
                                 serialize::pipeline_from_bytes(bytes)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  server.shutdown();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(CowConcurrency, ArenaScratchNeverAliasesAcrossConcurrentPredicts) {
  auto& f = testing::shared_toxic_optimized();

  // Per-thread disjoint row slices with a single-threaded reference; any
  // cross-thread scratch aliasing or stale-arena reuse shows up as a
  // mismatched prediction (and as a race under TSan).
  const std::size_t kThreads = 4;
  const std::size_t kSlice = 16;
  std::vector<std::vector<data::Batch>> slices(kThreads);
  std::vector<std::vector<double>> ref(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kSlice; ++i) {
      slices[t].push_back(f.wl.test.inputs.row(t * kSlice + i));
      ref[t].push_back(f.pipeline.predict_one(slices[t].back()));
    }
  }

  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      double out[1];
      for (int round = 0; round < 30; ++round) {
        for (std::size_t i = 0; i < kSlice; ++i) {
          f.pipeline.predict_into(slices[t][i], {out, 1});
          if (out[0] != ref[t][i]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace willump
