// The repo benchmark: one binary that sets a workload up, measures its
// phases for a fixed time budget on queries drawn from a seed, checks every
// output, and prints one JSON result line (see perfbench/README.md).
//
//   willump_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (fixed rates and sizes; nothing is calibrated per run):
//   credit-topk   Credit, local tables, top-K filter, no cascades, one
//                 serving::Server
//   slo-mixed     Toxic (latency-critical) + Music (best-effort, blocking
//                 remote tables, feature cache) behind a one-shard
//                 serving::Router with load control
//
// A run has two stages. The set-up stage repeats the full set-up
// (generate, optimize, save, load into a fresh serving front) kSetups
// times and checks each set-up's models. The measured window then loads
// the saved artifacts of the first model as lanes and runs kSetups rounds:
// an open-loop serve phase (one generator thread plus two serving workers)
// on one set-up's artifacts, then a closed-loop cycle that visits every
// lane in turn, each visit running a slice of the batch, pointwise and
// top-K phases (one caller). Every lane is thus measured across the whole
// window, so a period in which the shared machine runs slow or fast falls
// on all of them alike. Each optimize makes its own timing-based choices
// (autotune picks, cascade thresholds), so a metric is the mean of its
// per-set-up values, each taken from that set-up's samples; set-up times
// are medians. With --trace 1 the run records spans around every call
// into the library and reports per-layer metrics instead.

#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/optimizer.hpp"
#include "harness.hpp"
#include "models/metrics.hpp"
#include "ops/lookup.hpp"
#include "serialize/artifact.hpp"
#include "serving/router.hpp"
#include "serving/server.hpp"
#include "workloads/credit.hpp"
#include "workloads/music.hpp"
#include "workloads/toxic.hpp"
#include "workloads/traffic.hpp"

using namespace willump;
using perfbench::Span;

namespace {

// ---------------------------------------------------------------------------
// Fixed constants of the benchmark
// ---------------------------------------------------------------------------

constexpr std::size_t kTopK = 100;       // K of every top-K query
constexpr std::size_t kPointRows = 32768; // pre-built pointwise query rows
constexpr std::size_t kServeWorkers = 2; // serving threads (+1 generator thread)
constexpr std::size_t kMusicCacheRows = 64;   // per-IFV feature-cache capacity
constexpr double kDrainTimeoutS = 30.0;
constexpr double kServeRelTol = 1e-9;    // served vs batch prediction
constexpr std::size_t kPointCheckRows = 64;  // pointwise answers checked per lane
constexpr std::size_t kPointWarmCalls = 8;   // untimed calls opening each pointwise slice
constexpr double kProbeS = 0.1;          // budget of each traced-run layer probe
constexpr int kSetups = 8;               // set-ups per run; also the rounds of
                                         // the measured window

// Shares of --seconds: the serve phases (one per set-up) and the
// closed-loop cycles; a visit splits its slice over the phases.
constexpr double kServeShare = 0.3;
constexpr double kClosedShare = 0.7;
constexpr double kBatchShare = 0.3;
constexpr double kPointShare = 0.4;
constexpr double kTopKShare = 0.3;

const char* const kOut = ".bench_out";

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): independent, reproducible sub-seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Kind { kToxic, kMusic, kCredit };

struct ModelSpec {
  std::string name;  // registered model name
  Kind kind;
  serving::ModelConfig cfg;
};

struct WorkloadDef {
  std::string name;
  bool router = false;          // serve through a one-shard Router
  std::vector<ModelSpec> models;  // models[0] is the class serve_p50_us and
                                  // slo_attainment report, and the model of
                                  // the closed-loop stage and layer probes
  std::vector<double> serve_weights;  // per-model share of the serve stream
  double serve_qps = 0.0;       // total open-loop arrival rate

  /// Sheds and expiries are designed outcomes only under load control.
  bool load_control() const {
    for (const ModelSpec& m : models) {
      if (m.cfg.load_control.enabled) return true;
    }
    return false;
  }
};

store::NetworkModel remote_blocking() {
  store::NetworkModel net = workloads::default_remote_network();
  net.blocking = true;
  return net;
}

serving::ModelConfig fixed_batching(serving::SloClass slo) {
  serving::ModelConfig c;
  c.slo = slo;
  c.max_batch = 16;
  c.max_delay_micros = 0.0;
  c.replicas = kServeWorkers;
  return c;
}

serving::ModelConfig aimd_batching(serving::SloClass slo) {
  serving::ModelConfig c = fixed_batching(slo);
  c.max_delay_micros = 200.0;  // coalesce rows to share one round trip
  c.aimd.enabled = true;
  c.aimd.max_batch = 64;
  return c;
}

std::optional<WorkloadDef> find_workload(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  if (name == "credit-topk") {
    d.models = {{"credit", Kind::kCredit,
                 fixed_batching(serving::SloClass::standard(20'000.0))}};
    d.serve_weights = {1.0};
    d.serve_qps = 2000.0;
    return d;
  }
  if (name == "slo-mixed") {
    serving::ModelConfig lc = fixed_batching(serving::SloClass::latency_critical(20'000.0));
    lc.max_delay_micros = 200.0;
    lc.queue_capacity = 64;
    lc.load_control.enabled = true;
    serving::ModelConfig be = aimd_batching(serving::SloClass::best_effort());
    be.replicas = 1;
    be.queue_capacity = 32;
    be.load_control.enabled = true;
    d.router = true;
    d.models = {{"toxic", Kind::kToxic, lc}, {"music", Kind::kMusic, be}};
    // Music's best-effort replica serves 24k-30k rows/s when optimize
    // picks cascade threshold 0.6 or 0.7 and 50k-70k rows/s with threshold
    // 0.5 (measured on 4 cores). It gets 34.2k qps: above its capacity in
    // the first modes, and shed by load control under the latency-critical
    // class's pressure in the last.
    d.serve_weights = {0.05, 0.95};
    d.serve_qps = 36000.0;
    return d;
  }
  return std::nullopt;
}

/// The workload's training, validation and test data. They come from each
/// generator's default seed, so every run optimizes the same pipeline;
/// --seed draws the query streams and arrival schedules instead.
workloads::Workload generate(Kind kind) {
  Span span("workloads.generate");
  switch (kind) {
    case Kind::kToxic: {
      workloads::ToxicConfig c;
      c.sizes.test = 4000;
      return workloads::make_toxic(c);
    }
    case Kind::kMusic: {
      workloads::MusicConfig c;
      c.sizes.test = 4000;
      auto wl = workloads::make_music(c);
      wl.tables->set_network(remote_blocking());
      return wl;
    }
    case Kind::kCredit: {
      workloads::CreditConfig c;
      c.sizes.test = 8000;
      return workloads::make_credit(c);
    }
  }
  throw std::logic_error("unknown workload kind");
}

core::OptimizeOptions optimize_options(Kind kind) {
  core::OptimizeOptions o;
  o.topk_filter = true;
  if (kind != Kind::kCredit) o.cascades = true;
  if (kind == Kind::kMusic) {
    o.feature_cache = true;
    o.cache_capacity = kMusicCacheRows;
  }
  return o;
}

/// Table clients of a (loaded) pipeline, found through its graph's lookup
/// operators.
std::vector<store::TableClient*> table_clients(const core::OptimizedPipeline& p) {
  std::vector<store::TableClient*> out;
  const core::Graph& g = p.executor().graph();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto* op =
        dynamic_cast<const ops::TableLookupOp*>(g.node(static_cast<int>(i)).op.get());
    // The clients are created non-const by the artifact loader; the network
    // model is a process-local knob the artifact does not persist.
    if (op != nullptr) out.push_back(const_cast<store::TableClient*>(&op->client()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The serving front: a Server, or a one-shard Router
// ---------------------------------------------------------------------------

class Front {
 public:
  explicit Front(bool router) {
    serving::ServerConfig sc;
    sc.num_workers = kServeWorkers;
    if (router) {
      serving::RouterConfig rc;
      rc.num_shards = 1;
      rc.shard = sc;
      router_ = std::make_unique<serving::Router>(rc);
    } else {
      server_ = std::make_unique<serving::Server>(sc);
    }
  }

  void load(const std::string& name, const std::string& path, serving::ModelConfig cfg) {
    if (router_) {
      Span span("serving.router.load_model");
      router_->load_model(name, path, cfg);
    } else {
      Span span("serving.server.load_model");
      server_->load_model(name, path, cfg);
    }
  }

  std::shared_ptr<const core::OptimizedPipeline> pipeline(const std::string& name) const {
    const serving::Server& s =
        router_ ? router_->shard(router_->shard_of(name)) : *server_;
    return s.pipeline_snapshot(name, 0);
  }

  void submit(const std::string& name, data::Batch row, serving::Server::Callback cb) {
    if (router_) {
      Span span("serving.router.submit");
      router_->submit(name, std::move(row), std::move(cb));
    } else {
      Span span("serving.server.submit");
      server_->submit(name, std::move(row), std::move(cb));
    }
  }

  serving::ModelStats stats(const std::string& name) const {
    Span span("serving.server.stats");
    return router_ ? router_->stats(name) : server_->stats(name);
  }

  std::size_t forwarded_rejections() const {
    return router_ ? router_->stats().forwarded_rejections : 0;
  }

  void reset_stats() {
    if (router_) {
      router_->reset_stats();
    } else {
      server_->reset_stats();
    }
  }

 private:
  std::unique_ptr<serving::Server> server_;
  std::unique_ptr<serving::Router> router_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct ModelSetup {
  workloads::Workload wl;
  std::string artifact;
  std::size_t artifact_bytes = 0;
  double generate_s = 0.0, optimize_s = 0.0, save_s = 0.0, load_s = 0.0;
  std::string picks;  // autotune outcome, one JSON object
};

struct Setup {
  std::vector<ModelSetup> models;
  std::unique_ptr<Front> front;
  double total_s = 0.0;
};

std::string kernel_json(const kernels::KernelConfig& k) {
  std::ostringstream o;
  o << "{\"dot\":\"" << kernels::variant_name(k.dot) << "\",\"tree\":\""
    << kernels::variant_name(k.tree) << "\",\"tree_block\":" << k.tree_block
    << ",\"sparse_cutoff\":" << k.sparse_cutoff << "}";
  return o.str();
}

std::string picks_json(const core::OptimizedPipeline& p) {
  const kernels::AutotuneReport& r = p.autotune_report();
  std::ostringstream o;
  o << "{\"full\":" << kernel_json(r.full) << ",\"small\":"
    << (r.has_small ? kernel_json(r.small) : std::string("null"))
    << ",\"ops\":{\"lookup\":\"" << kernels::variant_name(r.ops.lookup)
    << "\",\"block_rows\":" << r.ops.block_rows
    << ",\"zero_copy\":" << (r.ops.zero_copy ? "true" : "false")
    << ",\"onehot\":\"" << kernels::variant_name(r.ops.onehot) << "\"}"
    << ",\"threshold\":" << p.cascade().threshold << "}";
  return o.str();
}

std::size_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
}

/// Load one model's artifact into a serving front. The network model is a
/// process-local knob the artifact does not persist, so Music's tables are
/// put behind the blocking remote network again.
void load_model(Front& front, const ModelSpec& spec, const std::string& artifact) {
  front.load(spec.name, artifact, spec.cfg);
  if (spec.kind == Kind::kMusic) {
    for (store::TableClient* c : table_clients(*front.pipeline(spec.name))) {
      c->set_network(remote_blocking());
    }
  }
}

/// Build every model of the workload, optimize it, save the artifact, and
/// load it into a fresh serving front: the set-up a user pays before the
/// first request.
Setup run_setup(const WorkloadDef& def, int rep) {
  Setup s;
  const std::int64_t t0 = perfbench::now_ns();
  s.front = std::make_unique<Front>(def.router);
  for (const ModelSpec& spec : def.models) {
    ModelSetup m;
    std::int64_t t = perfbench::now_ns();
    m.wl = generate(spec.kind);
    m.generate_s = perfbench::seconds_since(t);

    t = perfbench::now_ns();
    std::optional<core::OptimizedPipeline> optimized;
    {
      Span span("core.optimizer.optimize");
      optimized.emplace(core::WillumpOptimizer::optimize(
          m.wl.pipeline, m.wl.train, m.wl.valid, optimize_options(spec.kind)));
    }
    m.optimize_s = perfbench::seconds_since(t);
    m.picks = picks_json(*optimized);

    m.artifact = std::string(kOut) + "/" + def.name + "-" + spec.name + "-" +
                 std::to_string(rep) + ".wlmp";
    t = perfbench::now_ns();
    {
      Span span("serialize.save");
      serialize::save_pipeline(*optimized, m.artifact);
    }
    m.save_s = perfbench::seconds_since(t);
    m.artifact_bytes = file_bytes(m.artifact);
    optimized.reset();

    t = perfbench::now_ns();
    load_model(*s.front, spec, m.artifact);
    m.load_s = perfbench::seconds_since(t);
    s.models.push_back(std::move(m));
  }
  s.total_s = perfbench::seconds_since(t0);
  return s;
}

// ---------------------------------------------------------------------------
// Query inputs (built before any timed window)
// ---------------------------------------------------------------------------

std::vector<data::Batch> query_rows(const workloads::Workload& wl, std::size_t n,
                                    std::uint64_t seed) {
  std::vector<data::Batch> rows;
  rows.reserve(n);
  if (wl.query_sampler) {
    // Lookup workloads: entity-popularity (Zipf) skew over the tables.
    common::Rng rng(seed);
    const data::Batch b = wl.query_sampler(n, rng);
    for (std::size_t i = 0; i < n; ++i) rows.push_back(b.row(i));
  } else {
    workloads::QuerySampler sampler(wl, 0.0, seed);
    for (std::size_t i = 0; i < n; ++i) rows.push_back(sampler.next());
  }
  return rows;
}

data::Batch concat_rows(const std::vector<data::Batch>& rows) {
  data::Batch out = rows.front();
  for (std::size_t i = 1; i < rows.size(); ++i) out.append_rows(rows[i]);
  return out;
}

bool close_enough(double a, double b) {
  return a == b || std::fabs(a - b) <= kServeRelTol * std::max(std::fabs(a), std::fabs(b));
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"batch_rows_per_s", "rows/s"},
      {"point_p50_us", "us"},     {"point_p99_us", "us"},
      {"serve_p50_us", "us"},
      {"goodput_qps", "1/s"},     {"slo_attainment", "share"},
      {"topk_queries_per_s", "1/s"}, {"accuracy", "share"},
      {"topk_precision", "share"}, {"completed_share", "share"},
      {"rss_peak_mb", "MB"}};
  return defs;
}

// Feature-generator nodes of the three pipelines whose per-row time the
// traced run reports (ops layer, through runtime::Profiler); a node absent
// from the workload reports 0. The profiler does not time the concat and
// post-concat nodes, so they are not listed.
const std::vector<std::string>& op_nodes() {
  static const std::vector<std::string> nodes = {
      "curse_count",   "lower",        "word_tfidf",        "char_tfidf",
      "user_lookup",   "song_lookup",  "genre_lookup",      "artist_lookup",
      "user_stats_lookup", "song_stats_lookup", "burden_ratio", "leverage_ratio",
      "numeric",       "client_lookup", "bureau_lookup",    "prev_lookup"};
  return nodes;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"workloads.generate_s", "s"},
        {"core.optimizer.optimize_s", "s"},
        {"serialize.save_s", "s"},
        {"serialize.load_s", "s"},
        {"serialize.artifact_bytes", "bytes"},
        {"kernels.autotune.distinct_picks", "count"},
        {"core.executors.features_us_per_row", "us"},
        {"core.executors.driver_share", "share"},
        {"core.executors.features_point_us", "us"}};
    for (const std::string& n : op_nodes()) d.push_back({"ops." + n + ".us_per_row", "us"});
    const std::vector<MetricDef> rest = {
        {"models.full.us_per_row", "us"},
        {"models.small.us_per_row", "us"},
        {"core.cascades.short_circuit_share", "share"},
        {"core.feature_cache.hit_share", "share"},
        {"store.round_trips_per_row", "count"},
        {"store.keys_per_row", "count"},
        {"store.wait_us_per_row", "us"},
        {"core.topk.subset_share", "share"},
        {"core.topk.exact_query_ms", "ms"},
        {"serving.server.engine_p50_us", "us"},
        {"serving.server.submit_max_us", "us"},
        {"serving.server.inference_us_per_batch", "us"},
        {"serving.server.batch_rows_mean", "rows"},
        {"serving.server.busy_share", "share"},
        {"serving.server.stats_call_us", "us"},
        {"serving.aimd.max_batch", "rows"},
        {"serving.load_control.shed_share", "share"},
        {"serving.load_control.expired_share", "share"},
        {"serving.load_control.predicted_miss_share", "share"},
        {"serving.router.forwarded_rejections", "count"},
        {"alloc.per_point_query", "count"},
        {"load.serve_p99_us", "us"},
        {"load.late_p99_us", "us"},
        {"load.achieved_qps", "1/s"},
        {"trace.overhead_share", "share"},
        {"trace.spans", "count"}};
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

/// Per-set-up metric values and the run's check outcomes. A metric's
/// reported value is the mean over the set-ups, or the median for the
/// metrics marked so.
class Report {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  void add_median(const std::string& name, double value) {
    medians_.insert(name);
    add(name, value);
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
    failures_.push_back(why);
  }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void failed(std::size_t n = 1) { failed_ += n; }
  bool correct() const { return failures_.empty(); }

  void print(const std::vector<MetricDef>& defs) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    bool first = true;
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  d.name.c_str(),
                  medians_.count(d.name) ? common::median(it->second)
                                         : common::mean(it->second),
                  d.unit);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::set<std::string> medians_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Reset the kernel's peak-RSS mark to the current RSS, so the next
/// reading covers one round only. Returns false where unsupported; the
/// reading then covers the run so far.
bool reset_rss_peak() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  return static_cast<bool>(f.flush());
}

double rss_peak_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Run `body` repeatedly for `budget_s` seconds (at least `min_reps`
/// times, at most `max_reps` when nonzero); returns per-call seconds.
template <typename F>
std::vector<double> timed_reps(double budget_s, std::size_t min_reps, std::size_t max_reps,
                               F&& body) {
  std::vector<double> secs;
  const std::int64_t start = perfbench::now_ns();
  while (secs.size() < min_reps || perfbench::seconds_since(start) < budget_s) {
    if (max_reps != 0 && secs.size() >= max_reps) break;
    const std::int64_t t = perfbench::now_ns();
    body(secs.size());
    secs.push_back(perfbench::seconds_since(t));
  }
  return secs;
}

double share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Store and feature-cache counters summed over every model of a front.
struct Totals {
  std::uint64_t round_trips = 0, keys = 0, wait_ns = 0;
  std::size_t hits = 0, misses = 0;
};

Totals operator-(const Totals& a, const Totals& b) {
  return {a.round_trips - b.round_trips, a.keys - b.keys, a.wait_ns - b.wait_ns,
          a.hits - b.hits, a.misses - b.misses};
}

Totals request_path_totals(const Front& front, const WorkloadDef& def) {
  Totals t;
  for (const ModelSpec& spec : def.models) {
    const auto pipe = front.pipeline(spec.name);
    for (store::TableClient* c : table_clients(*pipe)) {
      t.round_trips += c->stats().round_trips.load();
      t.keys += c->stats().keys_fetched.load();
      t.wait_ns += c->stats().simulated_wait_nanos.load();
    }
    if (pipe->cache() != nullptr) {
      t.hits += pipe->cache()->total_hits();
      t.misses += pipe->cache()->total_misses();
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 == 0 || a.seconds <= 0.0) return std::nullopt;
  return a;
}

/// Check the outputs that need no timing: credit's compiled predictions
/// against predict_full, cascade accuracy against the full model.
void check_models(const WorkloadDef& def, const Setup& s, Report& rep) {
  for (std::size_t m = 0; m < def.models.size(); ++m) {
    const auto pipe = s.front->pipeline(def.models[m].name);
    const workloads::Workload& wl = s.models[m].wl;
    rep.attempt();
    if (def.models[m].kind == Kind::kCredit) {
      if (pipe->predict(wl.test.inputs) != pipe->predict_full(wl.test.inputs)) {
        rep.failed();
        rep.fail(def.models[m].name + ": compiled predictions differ from predict_full");
      }
      continue;
    }
    const double casc = models::accuracy(pipe->predict(wl.test.inputs), wl.test.targets);
    const double full = models::accuracy(pipe->predict_full(wl.test.inputs), wl.test.targets);
    if (!common::accuracy_within_ci95(casc, full, wl.test.targets.size())) {
      rep.failed();
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: cascade accuracy %.4f outside the 95%% CI of %.4f",
                    def.models[m].name.c_str(), casc, full);
      rep.fail(buf);
    }
  }
}

/// One set-up and its output checks. Returns the artifact of each model.
std::vector<std::string> run_setup_round(const WorkloadDef& def, int round, Report& rep,
                                         std::set<std::string>& pick_sets) {
  // Hand the previous set-up's freed heap back first, so the peak is this
  // set-up's own.
  ::malloc_trim(0);
  reset_rss_peak();
  Setup s = run_setup(def, round);
  double gen = 0, opt = 0, save = 0, load = 0, bytes = 0;
  std::string picks;
  for (std::size_t m = 0; m < s.models.size(); ++m) {
    gen += s.models[m].generate_s;
    opt += s.models[m].optimize_s;
    save += s.models[m].save_s;
    load += s.models[m].load_s;
    bytes += static_cast<double>(s.models[m].artifact_bytes);
    if (m != 0) picks += ',';
    picks += "\"" + def.models[m].name + "\":" + s.models[m].picks;
  }
  pick_sets.insert(picks);
  std::printf("autotune {\"round\": %d, %s}\n", round, picks.c_str());
  rep.add_median("setup_s", s.total_s);
  rep.add_median("workloads.generate_s", gen);
  rep.add_median("core.optimizer.optimize_s", opt);
  rep.add_median("serialize.save_s", save);
  rep.add_median("serialize.load_s", load);
  rep.add("serialize.artifact_bytes", bytes);
  check_models(def, s, rep);
  rep.add("rss_peak_mb", rss_peak_mb());
  std::vector<std::string> artifacts;
  for (const ModelSetup& m : s.models) artifacts.push_back(m.artifact);
  return artifacts;
}

/// One serve phase: load set-up `round`'s artifacts into a fresh serving
/// front and drive it with an open loop (one generator thread), then check
/// every answer. `wls` holds each model's data, for the query rows. Returns
/// false when the run cannot go on.
bool run_serve_phase(const Args& args, const WorkloadDef& def, int round,
                     const std::vector<std::string>& artifacts,
                     const std::vector<workloads::Workload>& wls, double serve_s, Report& rep) {
  const std::uint64_t seed = derive(args.seed, static_cast<std::uint64_t>(round));
  Front front(def.router);
  for (std::size_t m = 0; m < def.models.size(); ++m) load_model(front, def.models[m], artifacts[m]);

  const std::vector<double> due = perfbench::poisson_schedule(def.serve_qps, serve_s,
                                                              derive(seed, 31));
  const std::size_t sent = due.size();
  std::vector<std::size_t> req_model(sent, 0);
  std::vector<data::Batch> serve_rows(sent);
  {
    common::Rng pick(derive(seed, 32));
    double total_w = 0.0;
    for (double w : def.serve_weights) total_w += w;
    std::vector<std::size_t> per_model(def.models.size(), 0);
    for (std::size_t i = 0; i < sent; ++i) {
      double u = pick.next_double() * total_w;
      std::size_t m = 0;
      while (m + 1 < def.models.size() && u >= def.serve_weights[m]) u -= def.serve_weights[m++];
      req_model[i] = m;
      ++per_model[m];
    }
    for (std::size_t m = 0; m < def.models.size(); ++m) {
      if (per_model[m] == 0) continue;
      std::vector<data::Batch> pool =
          query_rows(wls[m], per_model[m], derive(seed, 40 + m));
      for (std::size_t i = 0, j = 0; i < sent; ++i) {
        if (req_model[i] == m) serve_rows[i] = std::move(pool[j++]);
      }
    }
  }
  const std::vector<data::Batch> served_inputs = serve_rows;  // for the output check
  front.reset_stats();
  // Store and cache traffic of the serve loop only: the output checks
  // after it call predict on the same clients.
  const Totals serve_t0 = request_path_totals(front, def);
  const perfbench::SubmitFn submit = [&](std::size_t i, data::Batch row, perfbench::Done done) {
    front.submit(def.models[req_model[i]].name, std::move(row), std::move(done));
  };
  const perfbench::OpenLoopResult res =
      perfbench::run_open_loop(std::move(serve_rows), due, submit, kDrainTimeoutS);
  const Totals path = request_path_totals(front, def) - serve_t0;
  rep.attempt(sent);
  if (!res.drained) {
    rep.failed(sent);
    rep.fail("serve phase: requests still unresolved after the drain timeout");
    return false;
  }
  const std::int64_t stats_t0 = perfbench::now_ns();
  const serving::ModelStats slo_stats = front.stats(def.models[0].name);
  rep.add("serving.server.stats_call_us", perfbench::seconds_since(stats_t0) * 1e6);
  double inference_s = 0.0;
  std::size_t aimd_cap = slo_stats.current_max_batch;
  std::vector<bool> has_tables(def.models.size(), false);
  for (std::size_t m = 0; m < def.models.size(); ++m) {
    const ModelSpec& spec = def.models[m];
    const serving::ModelStats st = front.stats(spec.name);
    inference_s += st.inference_seconds;
    if (spec.cfg.aimd.enabled) aimd_cap = st.current_max_batch;
    has_tables[m] = !table_clients(*front.pipeline(spec.name)).empty();
  }

  // Every submit resolves exactly once, to exactly one outcome.
  std::size_t not_once = 0;
  for (std::uint32_t r : res.resolutions) not_once += r == 1 ? 0 : 1;
  const std::size_t completed = res.count(perfbench::Outcome::kCompleted);
  const std::size_t queue_full = res.count(perfbench::Outcome::kQueueFull);
  const std::size_t shed_be = res.count(perfbench::Outcome::kShedBestEffort);
  const std::size_t predicted_miss = res.count(perfbench::Outcome::kPredictedMiss);
  const std::size_t expired = res.count(perfbench::Outcome::kExpired);
  const std::size_t errors = res.count(perfbench::Outcome::kError);
  const std::size_t refused = queue_full + shed_be + predicted_miss + expired;
  if (not_once != 0 || completed + refused + errors != sent) {
    rep.failed(std::max<std::size_t>(not_once, 1));
    rep.fail("serve phase: " + std::to_string(not_once) +
             " requests did not resolve exactly once");
  }
  if (errors != 0) {
    rep.failed(errors);
    rep.fail("serve phase: " + std::to_string(errors) + " requests failed");
  }
  if (!def.load_control() && refused != 0) {
    rep.failed(refused);
    rep.fail("serve phase: " + std::to_string(refused) +
             " requests refused without load control");
  }
  // Served answers must equal the batch path's on the same rows.
  for (std::size_t m = 0; m < def.models.size(); ++m) {
    std::vector<std::size_t> idx;
    std::vector<data::Batch> rows;
    for (std::size_t i = 0; i < sent; ++i) {
      if (req_model[i] == m && res.outcome[i] == perfbench::Outcome::kCompleted) {
        idx.push_back(i);
        rows.push_back(served_inputs[i]);
      }
    }
    if (rows.empty()) continue;
    const auto want = front.pipeline(def.models[m].name)->predict(concat_rows(rows));
    std::size_t bad = 0;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      bad += close_enough(res.prediction[idx[j]], want[j]) ? 0 : 1;
    }
    if (bad != 0) {
      rep.failed(bad);
      rep.fail(def.models[m].name + ": " + std::to_string(bad) +
               " served predictions differ from batch predictions");
    }
  }
  std::vector<double> slo_lat_us;
  std::size_t slo_sent = 0, slo_hits = 0, good = 0, table_rows = 0;
  for (std::size_t i = 0; i < sent; ++i) {
    const bool is_slo = req_model[i] == 0;
    slo_sent += is_slo ? 1 : 0;
    if (res.outcome[i] != perfbench::Outcome::kCompleted) continue;
    table_rows += has_tables[req_model[i]] ? 1 : 0;
    const bool hit = res.latency_us[i] <= def.models[req_model[i]].cfg.slo.deadline_micros;
    good += hit ? 1 : 0;
    if (is_slo) {
      slo_lat_us.push_back(res.latency_us[i]);
      slo_hits += hit ? 1 : 0;
    }
  }
  std::printf("serve {\"round\": %d, \"sent\": %zu, \"completed\": %zu, \"queue_full\": %zu, "
              "\"shed_best_effort\": %zu, \"predicted_miss\": %zu, \"expired\": %zu, "
              "\"errors\": %zu, \"qps\": %.0f, \"workers\": %zu, \"generator_threads\": 1, "
              "\"late_p99_us\": %.1f, \"submit_max_us\": %.1f}\n",
              round, sent, completed, queue_full, shed_be, predicted_miss, expired, errors,
              def.serve_qps, kServeWorkers, res.late_p99_us, res.submit_max_us);
  const double sent_d = static_cast<double>(sent);
  rep.add("serve_p50_us", common::percentile(slo_lat_us, 50.0));
  rep.add("load.serve_p99_us", common::percentile(slo_lat_us, 99.0));
  rep.add("goodput_qps", static_cast<double>(good) / serve_s);
  rep.add("slo_attainment", share(static_cast<double>(slo_hits), static_cast<double>(slo_sent)));
  rep.add("completed_share", static_cast<double>(completed) / sent_d);
  rep.add("serving.server.engine_p50_us", slo_stats.latency.median * 1e6);
  rep.add("serving.server.submit_max_us", res.submit_max_us);
  rep.add("serving.server.inference_us_per_batch",
          share(slo_stats.inference_seconds * 1e6, static_cast<double>(slo_stats.batches)));
  rep.add("serving.server.batch_rows_mean", slo_stats.mean_batch_rows());
  rep.add("serving.server.busy_share",
          share(inference_s, res.window_s * static_cast<double>(kServeWorkers)));
  rep.add("serving.aimd.max_batch", static_cast<double>(aimd_cap));
  rep.add("serving.load_control.shed_share", static_cast<double>(queue_full + shed_be) / sent_d);
  rep.add("serving.load_control.expired_share", static_cast<double>(expired) / sent_d);
  rep.add("serving.load_control.predicted_miss_share",
          static_cast<double>(predicted_miss) / sent_d);
  rep.add("serving.router.forwarded_rejections",
          static_cast<double>(front.forwarded_rejections()));
  rep.add("load.late_p99_us", res.late_p99_us);
  rep.add("load.achieved_qps", share(static_cast<double>(completed), res.window_s));

  // Per served row of the models that have table lookups.
  const double path_rows = static_cast<double>(table_rows);
  rep.add("core.feature_cache.hit_share",
          share(static_cast<double>(path.hits), static_cast<double>(path.hits + path.misses)));
  rep.add("store.round_trips_per_row", share(static_cast<double>(path.round_trips), path_rows));
  rep.add("store.keys_per_row", share(static_cast<double>(path.keys), path_rows));
  rep.add("store.wait_us_per_row", share(static_cast<double>(path.wait_ns) * 1e-3, path_rows));
  return true;
}

/// Load one model's artifact outside a serving front, its tables behind
/// the same network as in load_model.
core::OptimizedPipeline load_pipeline(const ModelSpec& spec, const std::string& artifact) {
  Span span("serialize.load");
  core::OptimizedPipeline p = serialize::load_pipeline(artifact);
  if (spec.kind == Kind::kMusic) {
    for (store::TableClient* c : table_clients(p)) c->set_network(remote_blocking());
  }
  return p;
}

/// Per-row self time of each feature-generator node over one profiled
/// compute_matrix call (ops layer, through runtime::Profiler).
void profile_ops(const core::Executor& exec, const data::Batch& batch, Report& rep,
                 core::DriverStats* drivers = nullptr) {
  runtime::Profiler prof;
  core::ExecOptions o;
  o.drivers = drivers;
  o.profiler = &prof;
  {
    Span span("core.executors.compute_matrix");
    (void)exec.compute_matrix(batch, o);
  }
  std::map<std::string, double> node_s;
  for (const auto& [id, sec] : prof.totals()) node_s[exec.graph().node(id).name] += sec;
  for (const auto& [name, sec] : node_s) {
    rep.add("ops." + name + ".us_per_row", sec * 1e6 / static_cast<double>(batch.num_rows()));
  }
}

/// One artifact of the closed-loop stage and the samples taken on it.
struct Lane {
  explicit Lane(core::OptimizedPipeline p) : pipe(std::move(p)) {}
  core::OptimizedPipeline pipe;
  std::vector<double> batch_s, topk_s;          // per call, every visit
  std::vector<double> point_p50_us, point_p99_us;  // per visit
  std::size_t point_next = 0;  // next row of the shared pointwise stream
  std::uint64_t point_calls = 0, point_allocs = 0;  // timed pointwise calls
  std::vector<std::size_t> exact;      // exact full-model top-K of the test split
  std::vector<std::size_t> topk_pred;  // latest top-K answer
  core::CascadeRunStats casc_before;
};

/// The measured window. It loads every set-up's artifact of models[0] as a
/// lane, then runs kSetups rounds: `serve(round)` (the serve phase of that
/// set-up), then one closed-loop cycle that visits every lane in turn. A
/// visit runs the batch phase (predict over the test split), the pointwise
/// phase (predict_one over a shared stream of query rows) and the top-K
/// phase (K = kTopK over the test split), each for its slice of the visit,
/// one caller. `wl` is models[0]'s data. The window ends early when a
/// serve phase reports that the run cannot go on.
template <typename Serve>
void run_window(const Args& args, const WorkloadDef& def, const workloads::Workload& wl,
                const std::vector<std::string>& artifacts, double closed_s, Report& rep,
                Serve&& serve) {
  perfbench::Tracer& tracer = perfbench::Tracer::instance();
  const data::Batch& test = wl.test.inputs;
  const double test_rows = static_cast<double>(test.num_rows());
  // The stream wraps around: no closed-loop model has a feature cache, so a
  // repeated row costs what a fresh one does.
  const std::vector<data::Batch> point_rows = query_rows(wl, kPointRows, derive(args.seed, 21));

  std::vector<Lane> lanes;
  lanes.reserve(artifacts.size());
  for (const std::string& artifact : artifacts) {
    lanes.emplace_back(load_pipeline(def.models[0], artifact));
    Lane& L = lanes.back();
    if (L.pipe.cache() != nullptr) {
      throw std::logic_error("the closed-loop stage needs models without a feature cache");
    }
    // Warm-up calls, which also give the answers the checks compare.
    const std::vector<double> preds = L.pipe.predict(test);
    rep.attempt();
    rep.add("accuracy", wl.classification ? models::accuracy(preds, wl.test.targets)
                                          : models::r2(preds, wl.test.targets));
    std::vector<double> point_first(kPointCheckRows);
    for (std::size_t i = 0; i < kPointCheckRows; ++i) {
      point_first[i] = L.pipe.predict_one(point_rows[i]);
    }
    const std::vector<data::Batch> first(point_rows.begin(),
                                         point_rows.begin() + kPointCheckRows);
    const std::vector<double> want = L.pipe.predict(concat_rows(first));
    std::size_t bad = 0;
    for (std::size_t i = 0; i < want.size(); ++i) bad += close_enough(point_first[i], want[i]) ? 0 : 1;
    rep.attempt(kPointCheckRows);
    if (bad != 0) {
      rep.failed(bad);
      rep.fail(std::to_string(bad) + " pointwise predictions differ from batch predictions");
    }
    {
      Span span("core.pipeline.predict_full");
      L.exact = models::top_k_indices(L.pipe.predict_full(test), kTopK);
    }
    L.topk_pred = L.pipe.top_k(test, kTopK);
    L.casc_before = L.pipe.run_stats();
  }

  // In the traced run every slice runs twice with the same number of
  // calls, once untraced and once traced: the difference is the tracing
  // overhead. The order alternates from visit to visit.
  double traced_s = 0.0, untraced_s = 0.0;
  auto slice = [&](bool traced_first, double slice_s, auto&& body) {
    std::vector<double> secs;
    if (!args.trace) {
      secs = timed_reps(slice_s, 1, 0, body);
    } else {
      tracer.set_enabled(traced_first);
      std::vector<double> a = timed_reps(slice_s / 2, 1, 0, body);
      tracer.set_enabled(!traced_first);
      std::vector<double> b = timed_reps(0.0, a.size(), a.size(), body);
      tracer.set_enabled(true);
      std::vector<double>& traced = traced_first ? a : b;
      const std::vector<double>& untraced = traced_first ? b : a;
      traced_s += std::accumulate(traced.begin(), traced.end(), 0.0);
      untraced_s += std::accumulate(untraced.begin(), untraced.end(), 0.0);
      secs = std::move(traced);
    }
    return secs;
  };
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };

  const double visit_s = closed_s / (kSetups * static_cast<double>(lanes.size()));
  std::uint64_t request = 0;
  for (int c = 0; c < kSetups; ++c) {
    if (!serve(c)) return;
    for (std::size_t v = 0; v < lanes.size(); ++v) {
      // Rotate the visiting order so no artifact always follows the same one.
      Lane& L = lanes[(v + static_cast<std::size_t>(c)) % lanes.size()];
      const bool traced_first = (static_cast<std::size_t>(c) + v) % 2 == 1;
      append(L.batch_s, slice(traced_first, visit_s * kBatchShare, [&](std::size_t) {
        Span span("core.pipeline.predict");
        (void)L.pipe.predict(test);
      }));
      auto point_call = [&](std::size_t) {
        const data::Batch& row = point_rows[L.point_next];
        L.point_next = (L.point_next + 1) % point_rows.size();
        const std::uint64_t a0 = perfbench::thread_allocations();
        {
          Span span("core.pipeline.predict_one", ++request);
          (void)L.pipe.predict_one(row);
        }
        L.point_allocs += perfbench::thread_allocations() - a0;
        ++L.point_calls;
      };
      // Untimed calls first: the batch call before left the caches cold.
      const std::uint64_t calls0 = L.point_calls, allocs0 = L.point_allocs;
      for (std::size_t i = 0; i < kPointWarmCalls; ++i) point_call(i);
      L.point_calls = calls0;
      L.point_allocs = allocs0;
      // A visit's pointwise percentiles; a brief stall of the shared
      // machine then moves one visit's p99, not the whole run's.
      std::vector<double> point_us = slice(traced_first, visit_s * kPointShare, point_call);
      for (double& x : point_us) x *= 1e6;
      L.point_p50_us.push_back(common::percentile(point_us, 50.0));
      L.point_p99_us.push_back(common::percentile(point_us, 99.0));
      append(L.topk_s, slice(traced_first, visit_s * kTopKShare, [&](std::size_t) {
        Span span("core.topk.top_k");
        L.topk_pred = L.pipe.top_k(test, kTopK);
      }));
    }
  }

  for (Lane& L : lanes) {
    rep.attempt(L.batch_s.size() + L.point_calls + L.topk_s.size());
    rep.add("batch_rows_per_s", test_rows / common::median(L.batch_s));
    rep.add("point_p50_us", common::median(L.point_p50_us));
    rep.add("point_p99_us", common::median(L.point_p99_us));
    rep.add("topk_queries_per_s", 1.0 / common::median(L.topk_s));
    rep.add("topk_precision", models::precision_at_k(L.topk_pred, L.exact));
    const core::CascadeRunStats casc = L.pipe.run_stats();
    rep.add("core.cascades.short_circuit_share",
            share(static_cast<double>(casc.short_circuited - L.casc_before.short_circuited),
                  static_cast<double>(casc.total_rows - L.casc_before.total_rows)));
    const core::TopKRunStats topk_stats = L.pipe.topk_stats();
    rep.add("core.topk.subset_share", share(static_cast<double>(topk_stats.subset_size),
                                            static_cast<double>(topk_stats.batch_size)));
  }
  if (!args.trace) return;

  // ---- Traced run only: layer probes from outside. -----------------------
  rep.add("trace.overhead_share", share(traced_s - untraced_s, untraced_s));
  for (Lane& L : lanes) {
    rep.add("alloc.per_point_query", share(static_cast<double>(L.point_allocs),
                                           static_cast<double>(L.point_calls)));
    const core::Executor& exec = L.pipe.executor();
    const auto feat_secs = timed_reps(kProbeS, 3, 20, [&](std::size_t) {
      Span span("core.executors.compute_matrix");
      (void)exec.compute_matrix(test);
    });
    rep.add("core.executors.features_us_per_row", common::median(feat_secs) * 1e6 / test_rows);
    core::DriverStats drivers;
    profile_ops(exec, test, rep, &drivers);
    rep.add("core.executors.driver_share", drivers.overhead_fraction());
    const auto feat_point = timed_reps(kProbeS, 200, 2000, [&](std::size_t i) {
      Span span("core.executors.compute_matrix");
      (void)exec.compute_matrix(point_rows[i]);
    });
    rep.add("core.executors.features_point_us", common::median(feat_point) * 1e6);
    const data::FeatureMatrix x_full = exec.compute_matrix(test);
    const auto full_secs = timed_reps(kProbeS, 3, 20, [&](std::size_t) {
      Span span("models.full.predict");
      (void)L.pipe.full_model().predict(x_full);
    });
    rep.add("models.full.us_per_row", common::median(full_secs) * 1e6 / test_rows);
    double small_us_per_row = 0.0;
    const core::TrainedCascade& casc = L.pipe.cascade();
    if (casc.small_model != nullptr) {
      core::ExecOptions o;
      o.fg_mask = casc.efficient_mask;
      const data::FeatureMatrix x_eff = exec.compute_matrix(test, o);
      const auto small_secs = timed_reps(kProbeS, 3, 20, [&](std::size_t) {
        Span span("models.small.predict");
        (void)casc.small_model->predict(x_eff);
      });
      small_us_per_row = common::median(small_secs) * 1e6 / test_rows;
    }
    rep.add("models.small.us_per_row", small_us_per_row);
    const auto exact_secs = timed_reps(kProbeS, 3, 10, [&](std::size_t) {
      Span span("core.topk.exact_query");
      (void)models::top_k_indices(L.pipe.predict_full(test), kTopK);
    });
    rep.add("core.topk.exact_query_ms", common::median(exact_secs) * 1e3);
  }
}

int run(const Args& args, const WorkloadDef& def) {
  perfbench::Tracer& tracer = perfbench::Tracer::instance();
  tracer.set_enabled(args.trace);
  Report rep;
  std::set<std::string> pick_sets;
  std::vector<std::vector<std::string>> artifacts;  // [set-up][model]
  for (int r = 0; r < kSetups; ++r) artifacts.push_back(run_setup_round(def, r, rep, pick_sets));

  // Each model's data: the same every set-up trained on and was checked
  // against, for the query rows.
  std::vector<workloads::Workload> wls;
  for (const ModelSpec& spec : def.models) wls.push_back(generate(spec.kind));
  std::vector<std::string> lanes;
  for (const auto& a : artifacts) lanes.push_back(a[0]);
  const double serve_s = args.seconds * kServeShare / kSetups;
  run_window(args, def, wls[0], lanes, args.seconds * kClosedShare, rep, [&](int round) {
    return run_serve_phase(args, def, round, artifacts[round], wls, serve_s, rep);
  });
  rep.add("kernels.autotune.distinct_picks", static_cast<double>(pick_sets.size()));
  if (!args.trace) {
    rep.print(end_to_end_metrics());
    return rep.correct() ? 0 : 1;
  }
  // The other models' feature ops (Music on slo-mixed), on the first
  // set-up's artifacts; a node no model of the workload has reports 0.
  for (std::size_t m = 1; m < def.models.size(); ++m) {
    const core::OptimizedPipeline p = load_pipeline(def.models[m], artifacts[0][m]);
    profile_ops(p.executor(), wls[m].test.inputs, rep);
  }
  for (const std::string& n : op_nodes()) {
    if (!rep.has("ops." + n + ".us_per_row")) rep.add("ops." + n + ".us_per_row", 0.0);
  }
  tracer.set_enabled(false);
  rep.add("trace.spans", static_cast<double>(tracer.size()));
  const std::string path = std::string(kOut) + "/trace-" + def.name + ".tsv";
  if (!tracer.write_tsv(path, def.name)) rep.fail("could not write " + path);
  std::printf("trace {\"path\": \"%s\", \"spans\": %zu, \"dropped\": %zu}\n", path.c_str(),
              tracer.size(), tracer.dropped());
  rep.print(per_layer_metrics());
  return rep.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const auto def = find_workload(args->workload);
  if (!def) {
    std::fprintf(stderr, "unknown workload: %s\n", args->workload.c_str());
    return 2;
  }
  ::mkdir(kOut, 0755);
  try {
    return run(*args, *def);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
