// Serving-engine throughput/latency across batching policies and the
// multi-model registry. This is the frontend-side experiment the paper's
// Table 6 presupposes: adaptive micro-batching amortizes fixed per-query
// overheads (Clipper, NSDI 2017 §4.3), so throughput at saturation should
// grow with max_batch while batch-size-1 serving pays full per-call
// overhead per row — and the AIMD controller should discover a competitive
// max_batch on its own instead of having it hand-tuned.
//
// The primary workload is Music with remote feature tables (the paper's
// §6.1 setup): every pipeline execution pays one pipelined round trip per
// table regardless of batch size, so coalescing K pointwise queries divides
// the fixed RTT cost by K — the same amortization Tables 3 and 6 measure.
// The multi-model sections co-host Credit (also remote, a different schema
// and cost profile) behind the same registry, the way a Clipper fleet
// serves several workloads from one frontend.
//
// Three sections probe the production-scheduling layer: a two-class SLO
// experiment (a saturating best-effort stream sharing the engine with a
// latency-critical model, SLO-aware priority/EDF dequeue vs the FIFO
// baseline, attainment asserted with the CI-based statistical criterion),
// an overload experiment at 3x saturation (admission control + typed
// shedding over bounded queues vs a no-shedding FIFO engine, with a
// no-blocked-producer watchdog), a replica-scaling experiment (1 vs 3
// execution replicas behind one name over a blocking-sleep remote network,
// where concurrency is real wall-clock overlap even on one core), and an
// autoscale step-load experiment (offered rate steps past one replica's
// capacity: a fixed 1-replica baseline fails the latency-critical CI
// criterion while the embedded controller grows the group, converges, and
// passes — with a resize-count ceiling asserting no oscillation).
//
// `--trend` runs at an intermediate scale and asserts the paper-shaped
// trends (micro-batching >= batch-size-1 at saturation; AIMD-tuned
// multi-model aggregate >= the fixed-cap single-model baseline; SLO
// attainment within CI at FIFO-comparable throughput; under 3x overload
// the shedding engine passes the attainment CI while the FIFO baseline
// fails it and no submit blocks past 1 s; >= 2x throughput from a
// 3-replica group; post-step the fixed arm fails and the autoscaled arm
// passes the attainment CI within the resize ceiling); the nightly ctest
// tier drives it this way.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "workloads/traffic.hpp"

using namespace willump;
using namespace willump::bench;

namespace {

constexpr std::uint64_t kSeed = 0x5E21;
constexpr double kZipf = 1.1;

std::string us(double seconds) { return fmt("%.0f", seconds * 1e6); }

serving::ModelConfig fixed_policy(std::size_t max_batch) {
  serving::ModelConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_delay_micros = 0.0;  // closed loop: never hold a partial batch
  return cfg;
}

/// AIMD policy starting from a deliberately small cap: the controller has
/// to *discover* the amortization-friendly batch size online.
serving::ModelConfig aimd_policy() {
  serving::ModelConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_micros = 0.0;
  cfg.aimd.enabled = true;
  cfg.aimd.slo_micros = 50e3;  // 50 ms batch-latency SLO: generous at bench scale
  cfg.aimd.additive_step = 2;
  cfg.aimd.max_batch = 64;
  return cfg;
}

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

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv);
  print_banner(
      "Serving registry: throughput and latency vs batching policy",
      "Clipper-style multi-model frontend for Willump paper, Table 6 setup");

  auto music = make_workload("music");
  music.tables->set_network(workloads::default_remote_network());
  common::Timer train_timer;
  const auto music_pipeline = optimize(music, compiled_config());
  const double music_train_seconds = train_timer.elapsed_seconds();

  auto credit = make_workload("credit");
  credit.tables->set_network(workloads::default_remote_network());
  const auto credit_pipeline = optimize(credit, compiled_config());

  // ---- Registry cold start: load_model from artifact vs in-process train. --
  //
  // The production deployment question: a serving instance coming up should
  // deserialize trained artifacts, not replay workload generation + model
  // training. The in-process time above includes exactly what an artifact
  // spares a cold registry (feature fitting + model training); the artifact
  // path pays file read + parse + graph/model reconstruction.
  const auto artifact_dir =
      std::filesystem::temp_directory_path() / "willump-bench-artifacts";
  const std::string music_artifact = (artifact_dir / "music.wlmp").string();
  const std::string credit_artifact = (artifact_dir / "credit.wlmp").string();
  serialize::save_pipeline(music_pipeline, music_artifact);
  serialize::save_pipeline(credit_pipeline, credit_artifact);

  std::printf("\nRegistry cold start (music): artifact load vs in-process "
              "train\n\n");
  TablePrinter cold({"path", "seconds", "speedup"}, 14);
  cold.print_header();
  common::Timer load_timer;
  {
    serving::Server cold_server(serving::ServerConfig{.num_workers = 0});
    cold_server.load_model("music", music_artifact);
    cold_server.load_model("credit", credit_artifact);
    // One real inference proves the loaded registry serves, and keeps lazy
    // costs inside the measured window.
    (void)cold_server.predict_batch("music", music.test.inputs.row(0));
  }
  const double cold_load_seconds = load_timer.elapsed_seconds();
  cold.print_row({"in-process train", fmt("%.3f", music_train_seconds), "1.0x"});
  cold.print_row({"load_model x2 + first predict", fmt("%.3f", cold_load_seconds),
                  fmt("%.1fx", cold_load_seconds > 0.0
                                   ? music_train_seconds / cold_load_seconds
                                   : 0.0)});
  std::printf("\nartifact sizes: music %.0f KiB, credit %.0f KiB\n",
              static_cast<double>(
                  std::filesystem::file_size(music_artifact)) / 1024.0,
              static_cast<double>(
                  std::filesystem::file_size(credit_artifact)) / 1024.0);
  check_trend(cold_load_seconds < music_train_seconds,
              "registry cold start from artifacts beats in-process training");

  const std::size_t clients = smoke() ? 4 : 16;
  const std::size_t queries_per_client = smoke() ? 10 : (trend() ? 100 : 200);

  // ---- Closed loop, one model: fixed policies vs the AIMD controller. ----
  std::printf("\nClosed loop (music): %zu clients x %zu queries, 2 workers, "
              "drain-only flush\n\n",
              clients, queries_per_client);
  TablePrinter closed(
      {"policy", "qps", "p50_us", "p99_us", "mean_batch", "final_cap"}, 13);
  closed.print_header();

  struct Policy {
    const char* label;
    serving::ModelConfig cfg;
  };
  const std::vector<Policy> policies = {
      {"batch-1", fixed_policy(1)},
      {"batch-16", fixed_policy(16)},
      {"batch-32", fixed_policy(32)},
      {"aimd", aimd_policy()},
  };

  double batch1_qps = 0.0, fixed16_qps = 0.0, best_micro_qps = 0.0,
         capacity_qps = 0.0;
  for (const auto& p : policies) {
    serving::ServerConfig cfg;
    cfg.num_workers = 2;
    serving::Server server(&music_pipeline, cfg, p.cfg);
    // Warmup one round so lazy one-time costs stay out of the measurement.
    (void)workloads::run_closed_loop(server, music, clients, 2, kZipf, kSeed);
    const auto res = workloads::run_closed_loop(
        server, music, clients, queries_per_client, kZipf, kSeed);
    closed.print_row(
        {p.label, fmt("%.0f", res.achieved_qps), us(res.latency.median),
         us(res.latency.p99), fmt("%.1f", res.mean_batch_rows),
         fmt("%.0f", static_cast<double>(server.current_max_batch("default")))});
    if (std::string_view(p.label) == "batch-1") batch1_qps = res.achieved_qps;
    if (std::string_view(p.label) == "batch-16") fixed16_qps = res.achieved_qps;
    if (std::string_view(p.label) != "batch-1") {
      best_micro_qps = std::max(best_micro_qps, res.achieved_qps);
    }
    capacity_qps = std::max(capacity_qps, res.achieved_qps);
  }
  std::printf("\nmicro-batching speedup at saturation (best vs batch-1): "
              "%.2fx\n",
              batch1_qps > 0.0 ? best_micro_qps / batch1_qps : 0.0);

  // ---- Closed loop, two models behind one registry, AIMD everywhere. ----
  std::printf("\nMulti-model closed loop: music + credit, %zu clients each, "
              "2 workers, AIMD-tuned caps\n\n",
              clients);
  {
    serving::ServerConfig cfg;
    cfg.num_workers = 2;
    serving::Server server(cfg);
    server.register_model("music", &music_pipeline, aimd_policy());
    server.register_model("credit", &credit_pipeline, aimd_policy());

    std::vector<workloads::ModelTraffic> mix(2);
    mix[0] = {.model = "music", .wl = &music, .zipf_s = kZipf, .weight = 1.0,
              .clients = clients};
    mix[1] = {.model = "credit", .wl = &credit, .zipf_s = kZipf, .weight = 1.0,
              .clients = clients};
    (void)workloads::run_mixed_closed_loop(server, mix, 2, kSeed);  // warmup
    server.reset_stats();
    const auto res =
        workloads::run_mixed_closed_loop(server, mix, queries_per_client, kSeed);

    TablePrinter multi({"model", "qps", "p50_us", "p99_us", "mean_batch",
                        "final_cap", "stolen"},
                       12);
    multi.print_header();
    for (const auto& [name, r] : res.per_model) {
      const auto ms = server.stats(name);
      multi.print_row({name, fmt("%.0f", r.achieved_qps),
                       us(r.latency.median), us(r.latency.p99),
                       fmt("%.1f", r.mean_batch_rows),
                       fmt("%.0f", static_cast<double>(ms.current_max_batch)),
                       fmt("%.0f", static_cast<double>(ms.stolen_batches))});
    }
    multi.print_row({"aggregate", fmt("%.0f", res.aggregate.achieved_qps),
                     us(res.aggregate.latency.median),
                     us(res.aggregate.latency.p99),
                     fmt("%.1f", res.aggregate.mean_batch_rows), "-", "-"});

    // The acceptance trend: a registry serving two models with AIMD-tuned
    // caps should not lose to the old hand-tuned single-model engine. The
    // 0.95 factor absorbs scheduler noise on small CI machines; the
    // expected margin is well above it (credit rows are cheaper than music
    // rows, and the caps converge high).
    check_trend(res.aggregate.achieved_qps >= 0.95 * fixed16_qps,
                "AIMD multi-model aggregate qps >= fixed-batch-16 "
                "single-model baseline");
  }

  // ---- Open loop: mixed Poisson arrivals at fractions of capacity. ----
  const std::size_t n_open = smoke() ? 40 : (trend() ? 600 : 1500);
  std::printf("\nMixed open loop: Poisson arrivals routed 60/40 music/credit, "
              "Zipf(s=%.1f) entities, %zu queries per point, async "
              "completions\n\n",
              kZipf, n_open);
  TablePrinter open({"model", "offered_qps", "achieved", "p50_us", "p99_us",
                     "mean_batch"},
                    13);
  open.print_header();

  for (double frac : {0.5, 1.2}) {
    const double qps = std::max(2.0, capacity_qps * frac);
    serving::ServerConfig cfg;
    cfg.num_workers = 2;
    auto open_policy = aimd_policy();
    // A small flush window lets under-loaded arrivals coalesce without
    // adding visible idle latency at this timescale.
    open_policy.max_delay_micros = 200.0;
    serving::Server server(cfg);
    server.register_model("music", &music_pipeline, open_policy);
    server.register_model("credit", &credit_pipeline, open_policy);

    std::vector<workloads::ModelTraffic> mix(2);
    mix[0] = {.model = "music", .wl = &music, .zipf_s = kZipf, .weight = 0.6,
              .clients = 0};
    mix[1] = {.model = "credit", .wl = &credit, .zipf_s = kZipf, .weight = 0.4,
              .clients = 0};
    const auto res =
        workloads::run_mixed_open_loop(server, mix, n_open, qps, kSeed);
    for (const auto& [name, r] : res.per_model) {
      open.print_row({name, fmt("%.0f", r.offered_qps),
                      fmt("%.0f", r.achieved_qps), us(r.latency.median),
                      us(r.latency.p99), fmt("%.1f", r.mean_batch_rows)});
    }
    open.print_row({"aggregate", fmt("%.0f", res.aggregate.offered_qps),
                    fmt("%.0f", res.aggregate.achieved_qps),
                    us(res.aggregate.latency.median),
                    us(res.aggregate.latency.p99),
                    fmt("%.1f", res.aggregate.mean_batch_rows)});
  }

  // ---- Hot reload: swap_model under open-loop load, zero dropped requests. --
  //
  // A model version rollout must not shed traffic: requests in flight finish
  // on the version they started on, later requests run the new one, and the
  // queue/batching/AIMD state carries across the swap.
  {
    const std::size_t n_swap = smoke() ? 40 : (trend() ? 400 : 1000);
    const double qps = std::max(2.0, 0.6 * capacity_qps);
    serving::ServerConfig cfg;
    cfg.num_workers = 2;
    serving::Server server(cfg);
    auto policy = aimd_policy();
    policy.max_delay_micros = 200.0;
    server.load_model("music", music_artifact, policy);

    std::atomic<bool> stop{false};
    std::size_t swaps = 0;
    std::thread swapper([&] {
      // Alternate between the artifact-loaded version and the in-process
      // pipeline for the duration of the run.
      bool use_artifact = false;
      while (!stop.load(std::memory_order_acquire)) {
        if (use_artifact) {
          server.swap_model("music", music_artifact);
        } else {
          server.swap_model(
              "music", std::shared_ptr<const core::OptimizedPipeline>(
                           &music_pipeline, [](const core::OptimizedPipeline*) {}));
        }
        use_artifact = !use_artifact;
        ++swaps;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    const auto res =
        workloads::run_open_loop(server, "music", music, n_swap, qps, kZipf,
                                 kSeed ^ 0x5A5A);
    stop.store(true, std::memory_order_release);
    swapper.join();
    server.shutdown();

    std::printf("\nHot reload under open loop (music @ %.0f qps): %zu queries, "
                "%zu swaps, completed %zu, errors %zu, p99 %s us\n",
                qps, n_swap, swaps, res.completed, res.errors,
                us(res.latency.p99).c_str());
    check_trend(res.completed == n_swap && res.errors == 0,
                "swap_model under open-loop load drops no requests");
  }

  // ---- Two-class SLO scheduling: latency-critical vs saturating batch. ---
  //
  // The isolation question behind per-model SLO classes: when a best-effort
  // model saturates the engine, does a latency-critical model sharing the
  // process still meet its deadline — without giving up aggregate
  // throughput? Run the identical mixed open-loop load twice through the
  // one priority/EDF scheduler: once with both models in one shared class
  // (the FIFO baseline — equal keys reduce the dequeue to cross-queue
  // arrival order) and once with their own classes.
  {
    // Calibrate the deadline to this machine: the non-preemptive bound is
    // one in-flight best-effort batch; grant ~30 batch-times of headroom.
    // Median of several timings, so one preempted call cannot inflate it.
    const data::Batch batch8 = music.test.inputs.select_rows(
        std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7});
    const double music_batch_seconds = std::max(
        1e-4, common::time_median_seconds(
                  5, [&] { (void)music_pipeline.predict(batch8); }));
    const double deadline_micros =
        std::max(50e3, 30.0 * music_batch_seconds * 1e6);
    const std::size_t n_slo = smoke() ? 60 : (trend() ? 500 : 1200);
    const double slo_qps = std::max(4.0, 1.5 * capacity_qps);

    std::printf("\nTwo-class SLO scheduling: music best-effort (saturating, "
                "80%% of %0.f qps) + credit latency-critical (deadline "
                "%.0f ms), 2 workers\n\n",
                slo_qps, deadline_micros / 1e3);
    TablePrinter slo_table({"scheduler", "model", "achieved", "p50_us",
                            "p99_us", "attainment"},
                           13);
    slo_table.print_header();

    double fifo_agg_qps = 0.0, slo_agg_qps = 0.0;
    double critical_attainment = 0.0;
    std::size_t critical_completed = 0;
    const auto critical_class =
        serving::SloClass::latency_critical(deadline_micros);
    for (const bool slo_edf : {false, true}) {
      serving::ServerConfig cfg;
      cfg.num_workers = 2;
      serving::Server server(cfg);

      serving::ModelConfig best_effort = aimd_policy();
      best_effort.slo = slo_edf ? serving::SloClass::best_effort()
                                : serving::SloClass::standard();
      best_effort.max_delay_micros = 200.0;
      serving::ModelConfig critical = aimd_policy();
      // The critical class's batch target, pinned in both arms so only the
      // dequeue order differs between them.
      critical.aimd.slo_micros = critical_class.batch_slo_micros();
      critical.slo = slo_edf ? critical_class : serving::SloClass::standard();
      critical.max_delay_micros = 200.0;
      server.register_model("music", &music_pipeline, best_effort);
      server.register_model("credit", &credit_pipeline, critical);

      std::vector<workloads::ModelTraffic> mix(2);
      mix[0] = {.model = "music", .wl = &music, .zipf_s = kZipf, .weight = 0.8,
                .clients = 0, .deadline_micros = 0.0};
      mix[1] = {.model = "credit", .wl = &credit, .zipf_s = kZipf,
                .weight = 0.2, .clients = 0,
                .deadline_micros = deadline_micros};
      const auto res =
          workloads::run_mixed_open_loop(server, mix, n_slo, slo_qps, kSeed);

      const char* label = slo_edf ? "slo-edf" : "fifo";
      for (const auto& [name, r] : res.per_model) {
        slo_table.print_row(
            {label, name, fmt("%.0f", r.achieved_qps), us(r.latency.median),
             us(r.latency.p99),
             r.deadline_micros > 0.0 ? fmt("%.3f", r.attainment())
                                     : std::string("-")});
      }
      if (slo_edf) {
        slo_agg_qps = res.aggregate.achieved_qps;
        critical_attainment = res.per_model[1].second.attainment();
        critical_completed = res.per_model[1].second.completed;
      } else {
        fifo_agg_qps = res.aggregate.achieved_qps;
      }
    }

    // p99-within-deadline, asserted statistically: the attainment over the
    // run must be consistent with a 0.99 hit rate at this sample size
    // (the paper's §6.3 CI acceptance rule applied to latency SLOs).
    check_trend(critical_attainment >= 0.99 ||
                    common::accuracy_within_ci95(critical_attainment, 0.99,
                                                 critical_completed),
                "latency-critical p99 meets its deadline under saturating "
                "best-effort load (CI criterion)");
    check_trend(slo_agg_qps >= 0.9 * fifo_agg_qps,
                "SLO-aware scheduling keeps aggregate throughput within 10% "
                "of the FIFO baseline");
  }

  // ---- Overload: admission control + typed shedding vs naive FIFO. -------
  //
  // Past saturation the question is no longer "who goes first" but "what
  // happens to the excess". The baseline engine (both models in one shared
  // SLO class, so dequeue is cross-queue FIFO; no load control, unbounded
  // queues) accepts everything: the backlog grows for the whole run and
  // every critical request that arrives behind more than a deadline's
  // worth of it misses. The load-controlled engine (per-model classes for
  // SLO-aware dequeue, plus the admission -> shed -> expire pipeline over
  // bounded queues) sheds the excess with typed rejections and keeps the
  // critical class's attainment statistically at target — and no submit
  // ever blocks: a blocking push would park the open-loop dispatcher
  // behind the saturated queue, which the max-submit watchdog asserts
  // cannot happen.
  {
    // Median of several timings: one preempted call would inflate the
    // deadline until even the FIFO backlog meets it.
    const data::Batch batch16 = music.test.inputs.select_rows(
        std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                 13, 14, 15});
    const double batch16_seconds = std::max(
        1e-4, common::time_median_seconds(
                  5, [&] { (void)music_pipeline.predict(batch16); }));
    // Tight enough that the FIFO backlog (the best-effort stream drains
    // for many tens of milliseconds ahead of the critical queue) blows it,
    // generous enough that priority dequeue + shedding (critical wait ~
    // one in-flight batch) meets it with two orders of magnitude to spare.
    const double over_deadline_micros =
        std::max(20e3, 10.0 * batch16_seconds * 1e6);
    const std::size_t n_over = smoke() ? 60 : (trend() ? 2500 : 5000);
    const double over_qps = std::max(6.0, 3.0 * fixed16_qps);

    std::printf("\nOverload (3x saturation): music best-effort (85%% of "
                "%.0f qps) + credit latency-critical (deadline %.0f ms), "
                "1 worker, fixed batch cap 16\n\n",
                over_qps, over_deadline_micros / 1e3);
    TablePrinter over_table({"engine", "model", "achieved", "p99_us",
                             "attainment", "shed", "expired", "max_submit_s"},
                            13);
    over_table.print_header();

    double fifo_attainment = 0.0, shed_attainment = 0.0;
    std::size_t fifo_critical_n = 0, shed_critical_n = 0;
    double worst_submit_seconds = 0.0;
    for (const bool shedding : {false, true}) {
      serving::ServerConfig cfg;
      // One worker makes the schedule maximally contended: in the FIFO arm
      // every critical request waits behind the whole best-effort backlog
      // that arrived before it, which a 3x stream grows for the whole run.
      cfg.num_workers = 1;
      serving::Server server(cfg);

      serving::ModelConfig best_effort = fixed_policy(16);
      best_effort.slo = shedding ? serving::SloClass::best_effort()
                                 : serving::SloClass::standard();
      best_effort.max_delay_micros = 200.0;
      serving::ModelConfig critical = fixed_policy(16);
      critical.slo =
          shedding ? serving::SloClass::latency_critical(over_deadline_micros)
                   : serving::SloClass::standard();
      critical.max_delay_micros = 200.0;
      if (shedding) {
        best_effort.queue_capacity = 32;  // ~2 batches of backlog, then shed
        best_effort.load_control.enabled = true;
        critical.queue_capacity = 64;
        critical.load_control.enabled = true;
      }
      server.register_model("music", &music_pipeline, best_effort);
      server.register_model("credit", &credit_pipeline, critical);

      std::vector<workloads::ModelTraffic> mix(2);
      mix[0] = {.model = "music", .wl = &music, .zipf_s = kZipf,
                .weight = 0.85, .clients = 0, .deadline_micros = 0.0};
      mix[1] = {.model = "credit", .wl = &credit, .zipf_s = kZipf,
                .weight = 0.15, .clients = 0,
                .deadline_micros = over_deadline_micros};
      const auto res =
          workloads::run_mixed_open_loop(server, mix, n_over, over_qps, kSeed);

      const char* label = shedding ? "slo-edf+shed" : "fifo";
      for (const auto& [name, r] : res.per_model) {
        over_table.print_row(
            {label, name, fmt("%.0f", r.achieved_qps), us(r.latency.p99),
             r.deadline_micros > 0.0 ? fmt("%.3f", r.attainment())
                                     : std::string("-"),
             fmt("%.0f", static_cast<double>(r.rejected)),
             fmt("%.0f", static_cast<double>(r.expired)),
             fmt("%.3f", r.max_submit_seconds)});
      }
      worst_submit_seconds =
          std::max(worst_submit_seconds, res.aggregate.max_submit_seconds);
      const auto& critical_res = res.per_model[1].second;
      if (shedding) {
        shed_attainment = critical_res.attainment();
        shed_critical_n = critical_res.completed + critical_res.expired;
        std::printf("\nshed arm: aggregate shed rate %.2f, recommended "
                    "replicas music=%zu credit=%zu\n",
                    res.aggregate.shed_rate(),
                    server.recommended_replicas("music"),
                    server.recommended_replicas("credit"));
      } else {
        fifo_attainment = critical_res.attainment();
        fifo_critical_n = critical_res.completed + critical_res.expired;
      }
    }

    // The overload acceptance pair, both via the §6.3 CI criterion: the
    // no-shedding FIFO baseline must FAIL the attainment target (proof the
    // load genuinely breaks a naive engine) while the load-controlled
    // engine passes it on the same stream.
    check_trend(!(fifo_attainment >= 0.99 ||
                  common::accuracy_within_ci95(fifo_attainment, 0.99,
                                               std::max<std::size_t>(
                                                   fifo_critical_n, 1))),
                "no-shedding FIFO baseline fails the latency-critical "
                "attainment target at 3x load (CI criterion)");
    check_trend(shed_attainment >= 0.99 ||
                    common::accuracy_within_ci95(shed_attainment, 0.99,
                                                 std::max<std::size_t>(
                                                     shed_critical_n, 1)),
                "admission control + typed shedding keeps latency-critical "
                "attainment at target under the same 3x load (CI criterion)");
    check_trend(worst_submit_seconds < 1.0,
                "no submit blocked past the 1 s producer watchdog in either "
                "arm");
  }

  // ---- Replica scaling: 1 vs 3 execution replicas behind one name. ------
  //
  // A replica runs one batch at a time (the Clipper model-container
  // execution model); N replicas admit N concurrent batches, balanced by
  // least outstanding requests. Over a *blocking* remote network (the
  // fetch sleeps instead of spinning, as a real remote store would) the
  // concurrency is real wall-clock overlap even on a single core, so a
  // 3-replica group should approach 3x the 1-replica throughput.
  {
    // A 4 ms RTT keeps the batch dominated by the (overlappable) remote
    // wait rather than by local compute, which serializes on few-core
    // machines and would otherwise cap the measurable replica speedup. A
    // small fixed cap with plenty of closed-loop clients keeps batches
    // full in both arms — otherwise the 1-replica baseline amortizes each
    // round trip over a deeper backlog and the ratio understates the
    // concurrency win.
    music.tables->set_network(store::NetworkModel{
        .rtt_micros = 4000.0, .per_key_micros = 1.0, .blocking = true});
    const std::size_t rep_clients = smoke() ? 6 : 16;
    const std::size_t rep_queries = smoke() ? 8 : (trend() ? 40 : 80);
    std::printf("\nReplica scaling (music, blocking 4 ms RTT): %zu clients x "
                "%zu queries, 4 workers, fixed batch cap 4\n\n",
                rep_clients, rep_queries);
    TablePrinter rep_table({"replicas", "qps", "p50_us", "p99_us",
                            "mean_batch", "speedup"},
                           13);
    rep_table.print_header();

    double one_replica_qps = 0.0, three_replica_qps = 0.0;
    for (const std::size_t replicas : {std::size_t{1}, std::size_t{3}}) {
      serving::ServerConfig cfg;
      cfg.num_workers = 4;
      serving::Server server(cfg);
      serving::ModelConfig mc = fixed_policy(4);
      mc.replicas = replicas;
      server.register_model("music", &music_pipeline, mc);
      (void)workloads::run_closed_loop(server, "music", music, rep_clients, 2,
                                       kZipf, kSeed);  // warmup
      const auto res = workloads::run_closed_loop(
          server, "music", music, rep_clients, rep_queries, kZipf, kSeed);
      if (replicas == 1) one_replica_qps = res.achieved_qps;
      if (replicas == 3) three_replica_qps = res.achieved_qps;
      rep_table.print_row(
          {fmt("%.0f", static_cast<double>(replicas)),
           fmt("%.0f", res.achieved_qps), us(res.latency.median),
           us(res.latency.p99), fmt("%.1f", res.mean_batch_rows),
           fmt("%.2fx", one_replica_qps > 0.0
                            ? res.achieved_qps / one_replica_qps
                            : 0.0)});
    }
    check_trend(three_replica_qps >= 2.0 * one_replica_qps,
                "3-replica group >= 2x the 1-replica throughput");
  }

  // ---- Autoscale under a step load: fixed 1 replica vs the closed loop. --
  //
  // The question the controller exists to answer: when the offered rate
  // steps past one replica's capacity, does the engine converge to a group
  // size that meets the latency-critical deadline — without oscillating?
  // Both arms ride the same blocking remote network as the replica-scaling
  // section (still installed), so extra replicas buy real wall-clock
  // overlap. The fixed arm is the FIFO baseline: one replica forever. The
  // autoscaled arm starts at one replica with the controller enabled; the
  // step phase is an unmeasured transition window, and only the tail phase
  // is judged by the CI criterion.
  {
    // Median of several timings, so one preempted call cannot skew the
    // replica capacity or the deadline.
    const data::Batch batch4 = music.test.inputs.select_rows(
        std::vector<std::size_t>{0, 1, 2, 3});
    const double batch4_seconds = std::max(
        1e-4, common::time_median_seconds(
                  5, [&] { (void)music_pipeline.predict(batch4); }));
    const double replica_qps = 4.0 / batch4_seconds;
    const double warm_qps = 0.5 * replica_qps;
    const double step_qps = 2.5 * replica_qps;
    const double as_deadline_micros =
        std::max(50e3, 10.0 * batch4_seconds * 1e6);
    const std::size_t n_warm = smoke() ? 20 : (trend() ? 150 : 300);
    const std::size_t n_step = smoke() ? 20 : (trend() ? 400 : 800);
    const std::size_t n_meas = smoke() ? 20 : (trend() ? 400 : 800);

    std::printf("\nAutoscale step load (music, blocking 4 ms RTT): %.0f qps "
                "warm, step to %.0f qps (~2.5x one replica), deadline "
                "%.0f ms, 4 workers\n\n",
                warm_qps, step_qps, as_deadline_micros / 1e3);
    TablePrinter as_table({"arm", "achieved", "attainment", "shed",
                           "replicas", "ups", "downs"},
                          12);
    as_table.print_header();

    double fixed_att = 0.0, scaled_att = 0.0;
    std::size_t fixed_n = 0, scaled_n = 0;
    std::size_t scale_ups = 0, scale_downs = 0, final_replicas = 1;
    for (const bool autoscaled : {false, true}) {
      serving::ServerConfig cfg;
      cfg.num_workers = 4;
      if (autoscaled) {
        cfg.autoscale.enabled = true;
        cfg.autoscale.interval_micros = 10e3;
        cfg.autoscale.max_replicas = 4;
        cfg.autoscale.scale_up_streak = 2;
        cfg.autoscale.cooldown_micros = 40e3;
        cfg.autoscale.min_observations = 5;
      }
      serving::Server server(cfg);
      serving::ModelConfig mc = fixed_policy(4);
      mc.max_delay_micros = 500.0;
      mc.slo = serving::SloClass::latency_critical(as_deadline_micros);
      if (autoscaled) {
        // Bounded queue + admission control: the transition window sheds
        // with typed rejections instead of banking an unbounded backlog,
        // and the controller reads the LoadController it feeds.
        mc.queue_capacity = 64;
        mc.load_control.enabled = true;
      }
      server.register_model("music", &music_pipeline, mc);

      std::vector<workloads::ModelTraffic> mix(1);
      mix[0] = {.model = "music", .wl = &music, .zipf_s = kZipf, .weight = 1.0,
                .clients = 0, .deadline_micros = as_deadline_micros};
      // Warm: under one replica's capacity — estimators fill, the
      // controller holds (already at min_replicas).
      (void)workloads::run_mixed_open_loop(server, mix, n_warm, warm_qps,
                                           kSeed);
      // Step: the controller reacts inside this unmeasured window.
      (void)workloads::run_mixed_open_loop(server, mix, n_step, step_qps,
                                           kSeed + 1);
      // Measured tail at the stepped rate.
      const auto res = workloads::run_mixed_open_loop(server, mix, n_meas,
                                                      step_qps, kSeed + 2);

      const auto stats = server.stats("music");
      const std::size_t replicas = server.replica_count("music");
      const auto& r = res.per_model[0].second;
      as_table.print_row(
          {autoscaled ? "autoscaled" : "fixed-1", fmt("%.0f", r.achieved_qps),
           fmt("%.3f", r.attainment()),
           fmt("%.0f", static_cast<double>(r.rejected)),
           fmt("%.0f", static_cast<double>(replicas)),
           fmt("%.0f", static_cast<double>(stats.scale_ups)),
           fmt("%.0f", static_cast<double>(stats.scale_downs))});
      if (autoscaled) {
        scaled_att = r.attainment();
        scaled_n = r.completed + r.expired;
        scale_ups = stats.scale_ups;
        scale_downs = stats.scale_downs;
        final_replicas = replicas;
      } else {
        fixed_att = r.attainment();
        fixed_n = r.completed + r.expired;
      }
      server.shutdown();
    }
    // Stable one-line resize report (the CI job summary greps this).
    std::printf("\nautoscale resizes: scale_ups=%zu scale_downs=%zu "
                "final_replicas=%zu\n",
                scale_ups, scale_downs, final_replicas);

    check_trend(!(fixed_att >= 0.99 ||
                  common::accuracy_within_ci95(
                      fixed_att, 0.99, std::max<std::size_t>(fixed_n, 1))),
                "fixed 1-replica baseline fails the latency-critical "
                "attainment target after the load step (CI criterion)");
    check_trend(scaled_att >= 0.99 ||
                    common::accuracy_within_ci95(
                        scaled_att, 0.99, std::max<std::size_t>(scaled_n, 1)),
                "autoscaled group converges and passes the attainment target "
                "on the same step (CI criterion)");
    check_trend(scale_ups >= 1 && final_replicas > 1,
                "the controller actually grew the group after the step");
    check_trend(scale_ups + scale_downs <= 6,
                "resize count stays under the no-oscillation ceiling (<= 6)");
  }

  check_trend(best_micro_qps >= batch1_qps,
              "micro-batching >= batch-size-1 throughput at saturation");

  std::printf(
      "\nExpected shape: at saturation, micro-batching (max_batch >= 16)\n"
      "beats batch-size-1 serving on throughput because per-call overheads\n"
      "(here: one simulated RTT per feature table per pipeline call)\n"
      "amortize over coalesced rows, and the AIMD controller discovers a\n"
      "competitive cap from max_batch=2 without hand-tuning. The registry\n"
      "serves both models concurrently: an idle model's workers steal from\n"
      "the hot model's queue, and the aggregate matches or beats the\n"
      "single-model fixed-cap engine. Open loop: offered rate is tracked\n"
      "below capacity; absolute latencies are noisy on few-core machines.\n"
      "SLO scheduling: the latency-critical class meets its deadline (CI\n"
      "criterion) under a saturating best-effort stream at FIFO-level\n"
      "aggregate throughput. Overload at 3x: the FIFO engine queues the\n"
      "excess and the critical class misses wholesale, while admission\n"
      "control sheds best-effort load with typed rejections, keeps the\n"
      "critical class at target, and never blocks a producer. 3 replicas\n"
      "behind one name deliver >= 2x the 1-replica throughput over the\n"
      "blocking remote network. Step load: the fixed 1-replica arm misses\n"
      "its deadline wholesale after the step, while the autoscaler grows\n"
      "the group under the CI criterion with hysteresis and the measured\n"
      "tail passes at target without resize oscillation.\n");

  if (trend() && failures > 0) {
    std::printf("\n%d trend assertion(s) FAILED\n", failures);
    return 1;
  }
  return 0;
}
