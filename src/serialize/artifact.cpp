#include "serialize/artifact.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/executors.hpp"
#include "core/ifv_analysis.hpp"
#include "kernels/autotune.hpp"
#include "ops/lookup.hpp"
#include "serialize/intern.hpp"
#include "serialize/model_registry.hpp"
#include "serialize/op_registry.hpp"

namespace willump::serialize {

namespace {

constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

constexpr std::uint32_t kMagic = fourcc("WLMP");
constexpr std::uint32_t kPipelineKind = fourcc("WPIP");
constexpr std::uint32_t kCascadeKind = fourcc("WCSC");
constexpr std::uint32_t kSplitKind = fourcc("WSPL");

constexpr std::uint32_t kSecMeta = fourcc("META");
constexpr std::uint32_t kSecTables = fourcc("TABL");
constexpr std::uint32_t kSecGraph = fourcc("GRPH");
constexpr std::uint32_t kSecLayout = fourcc("LAYT");
constexpr std::uint32_t kSecCascade = fourcc("CASC");
constexpr std::uint32_t kSecKernels = fourcc("KERN");
constexpr std::uint32_t kSecSplits = fourcc("SPLT");

struct Section {
  std::uint32_t tag;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> pack(std::uint32_t kind,
                               const std::vector<Section>& sections) {
  Writer w;
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u32(kind);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.u32(s.tag);
    w.u64(s.payload.size());
    w.u32(crc32(s.payload));
    w.raw(s.payload);
  }
  return w.take();
}

/// Container contents after header/CRC verification, keyed by section tag.
using Unpacked = std::map<std::uint32_t, std::vector<std::uint8_t>>;

/// Parse and verify the container: magic, version, kind, and every
/// section's bounds and checksum.
Unpacked unpack(std::span<const std::uint8_t> bytes,
                std::uint32_t expected_kind) {
  Reader r(bytes);
  if (r.remaining() < 16) {
    throw SerializeError(ErrorCode::Truncated, "artifact smaller than header");
  }
  if (r.u32() != kMagic) {
    throw SerializeError(ErrorCode::BadMagic, "not a Willump artifact");
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw SerializeError(ErrorCode::UnsupportedVersion,
                         "artifact version " + std::to_string(version) +
                             ", this build reads only version " +
                             std::to_string(kFormatVersion));
  }
  const std::uint32_t kind = r.u32();
  if (kind != expected_kind) {
    throw SerializeError(ErrorCode::WrongKind,
                         "artifact holds a different payload kind");
  }
  const std::uint32_t n_sections = r.u32();
  // Each section consumes at least its 16-byte header.
  if (n_sections > r.remaining() / 16) {
    throw SerializeError(ErrorCode::Truncated,
                         "section count exceeds artifact size");
  }
  Unpacked out;
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    if (size > r.remaining()) {
      throw SerializeError(ErrorCode::Truncated, "section payload cut short");
    }
    const auto payload = r.raw(static_cast<std::size_t>(size));
    if (crc32(payload) != crc) {
      throw SerializeError(ErrorCode::ChecksumMismatch,
                           "section payload fails its CRC");
    }
    if (!out.emplace(tag,
                      std::vector<std::uint8_t>(payload.begin(), payload.end()))
             .second) {
      throw SerializeError(ErrorCode::CorruptData, "duplicate section tag");
    }
  }
  return out;
}

Reader section_reader(const Unpacked& u, std::uint32_t tag, const char* what) {
  auto it = u.find(tag);
  if (it == u.end()) {
    throw SerializeError(ErrorCode::MissingSection, what);
  }
  return Reader(it->second);
}

// --- graph ---------------------------------------------------------------

void save_graph(Writer& w, const core::Graph& g) {
  w.u64(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    const core::Node& n = g.node(static_cast<int>(i));
    w.u8(n.kind == core::NodeKind::Source ? 0 : 1);
    w.str(n.name);
    if (n.kind == core::NodeKind::Source) {
      w.u8(static_cast<std::uint8_t>(n.source_type));
    } else {
      save_op(w, *n.op);
    }
    w.u64(n.inputs.size());
    for (int in : n.inputs) w.i32(in);
  }
  w.i32(g.output());
}

core::Graph load_graph(Reader& r, const OpLoadContext& ctx) {
  core::Graph g;
  const std::uint64_t n_nodes = r.length(2, "graph nodes");
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    const std::uint8_t kind = r.u8();
    std::string name = r.str();
    if (kind == 0) {
      const std::uint8_t type = r.u8();
      if (type > static_cast<std::uint8_t>(data::ColumnType::String)) {
        throw SerializeError(ErrorCode::CorruptData,
                             "source column type out of range");
      }
      (void)g.add_source(std::move(name), static_cast<data::ColumnType>(type));
      const std::uint64_t n_inputs = r.length(4, "source inputs");
      if (n_inputs != 0) {
        throw SerializeError(ErrorCode::CorruptData, "source node has inputs");
      }
    } else if (kind == 1) {
      ops::OperatorPtr op = load_op(r, ctx);
      const std::uint64_t n_inputs = r.length(4, "transform inputs");
      std::vector<int> inputs;
      inputs.reserve(static_cast<std::size_t>(n_inputs));
      for (std::uint64_t k = 0; k < n_inputs; ++k) {
        const std::int32_t in = r.i32();
        // The builder assigns ids 0..i-1 so far; anything else cannot be a
        // DAG edge and would index out of bounds at execution time.
        if (in < 0 || static_cast<std::uint64_t>(in) >= i) {
          throw SerializeError(ErrorCode::CorruptData,
                               "graph edge references an invalid node id");
        }
        inputs.push_back(in);
      }
      (void)g.add_transform(std::move(name), std::move(op), std::move(inputs));
    } else {
      throw SerializeError(ErrorCode::CorruptData, "node kind out of range");
    }
  }
  const std::int32_t output = r.i32();
  if (output < 0 || static_cast<std::uint64_t>(output) >= n_nodes) {
    throw SerializeError(ErrorCode::CorruptData, "graph output id invalid");
  }
  g.set_output(output);
  return g;
}

// --- feature tables ------------------------------------------------------

void save_tables(Writer& w, const core::Graph& g) {
  // Dedup by table name (two lookup ops may share one table); reject two
  // distinct tables under one name — the artifact could not rebind them.
  std::map<std::string, const store::FeatureTable*> tables;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const core::Node& n = g.node(static_cast<int>(i));
    const auto* lookup = dynamic_cast<const ops::TableLookupOp*>(n.op.get());
    if (lookup == nullptr) continue;
    const store::FeatureTable& t = lookup->client().table();
    auto [it, inserted] = tables.emplace(t.name(), &t);
    if (!inserted && it->second != &t) {
      throw std::logic_error("two distinct feature tables named \"" +
                             t.name() + "\" cannot share one artifact");
    }
  }
  w.u64(tables.size());
  for (const auto& [name, table] : tables) {
    w.str(name);
    w.u64(table->feature_dim());
    std::vector<std::int64_t> keys;
    keys.reserve(table->rows().size());
    for (const auto& [key, row] : table->rows()) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    // Keys as one delta-coded block (dense entity-id spaces collapse to
    // ~1 byte/key), rows as one double vector in key order so the
    // dictionary codec sees the whole table at once.
    w.i64s_delta(keys);
    std::vector<double> flat;
    flat.reserve(keys.size() * table->feature_dim());
    for (std::int64_t key : keys) {
      const auto& row = table->rows().at(key).values();
      flat.insert(flat.end(), row.begin(), row.end());
    }
    w.doubles(flat);
  }
}

OpLoadContext load_tables(Reader& r) {
  OpLoadContext ctx;
  const std::uint64_t n_tables = r.length(2, "table list");
  for (std::uint64_t t = 0; t < n_tables; ++t) {
    // Remember where this table's wire image starts: byte-identical
    // payloads across replicas / swap generations intern to one object.
    const std::size_t start = r.position();
    std::string name = r.str();
    const std::uint64_t dim = r.u64();
    auto table = std::make_shared<store::FeatureTable>(
        name, static_cast<std::size_t>(dim));
    const std::vector<std::int64_t> keys = r.i64s_delta();
    const std::vector<double> flat = r.doubles();
    // Overflow-safe keys*dim == flat.size() check (dim is attacker data).
    const bool shape_ok =
        keys.empty() ? flat.empty()
                     : (flat.size() % keys.size() == 0 &&
                        flat.size() / keys.size() == dim);
    if (!shape_ok) {
      throw SerializeError(ErrorCode::CorruptData,
                           "table row block does not match key count");
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      data::DenseVector row(static_cast<std::size_t>(dim));
      for (std::uint64_t c = 0; c < dim; ++c) {
        row[static_cast<std::size_t>(c)] =
            flat[i * static_cast<std::size_t>(dim) +
                 static_cast<std::size_t>(c)];
      }
      table->put(keys[i], std::move(row));
    }
    std::shared_ptr<const store::FeatureTable> shared =
        InternPool::instance().intern<store::FeatureTable>(
            "table", r.window(start), std::move(table));
    if (!ctx.tables.emplace(std::move(name), std::move(shared)).second) {
      throw SerializeError(ErrorCode::CorruptData, "duplicate table name");
    }
  }
  return ctx;
}

// --- layout / cascade ----------------------------------------------------

void save_layout(Writer& w, std::span<const std::size_t> block_cols,
                 std::span<const std::size_t> col_begin,
                 std::span<const double> fg_costs) {
  w.sizes(block_cols);
  w.sizes(col_begin);
  w.doubles(fg_costs);
}

void save_cascade(Writer& w, const core::TrainedCascade& c) {
  w.bools(c.efficient_mask);
  w.bools(c.inefficient_mask);
  w.f64(c.threshold);
  w.doubles(c.stats.cost_seconds);
  w.doubles(c.stats.importance);
  w.f64(c.full_valid_accuracy);
  w.f64(c.cascade_valid_accuracy);
  w.u8(c.small_model != nullptr ? 1 : 0);
  if (c.small_model != nullptr) save_model(w, *c.small_model);
  if (c.full_model == nullptr) {
    throw std::logic_error("cascade without a trained full model cannot be saved");
  }
  save_model(w, *c.full_model);
}

core::TrainedCascade load_cascade(Reader& r) {
  core::TrainedCascade c;
  c.efficient_mask = r.bools();
  c.inefficient_mask = r.bools();
  c.threshold = r.f64();
  c.stats.cost_seconds = r.doubles();
  c.stats.importance = r.doubles();
  c.full_valid_accuracy = r.f64();
  c.cascade_valid_accuracy = r.f64();
  if (c.inefficient_mask.size() != c.efficient_mask.size()) {
    throw SerializeError(ErrorCode::CorruptData, "cascade mask size mismatch");
  }
  const std::uint8_t has_small = r.u8();
  if (has_small > 1) {
    throw SerializeError(ErrorCode::CorruptData, "cascade small-model flag");
  }
  if (has_small != 0) c.small_model = load_model(r);
  c.full_model = load_model(r);
  return c;
}

}  // namespace

// --- pipeline artifact ----------------------------------------------------

std::vector<std::uint8_t> pipeline_to_bytes(const core::OptimizedPipeline& p) {
  const core::Executor& exec = p.executor();
  const bool compiled =
      dynamic_cast<const core::CompiledExecutor*>(&exec) != nullptr;

  Writer meta;
  meta.u8(compiled ? 1 : 0);
  meta.u8(p.use_cascades() ? 1 : 0);
  meta.f64(p.topk_config().ck);
  meta.f64(p.topk_config().min_subset_frac);
  meta.u8(p.cache() != nullptr ? 1 : 0);
  meta.u64(p.cache_capacity_per_ifv());
  meta.u64(p.parallel_threads());

  Writer tables;
  save_tables(tables, exec.graph());

  Writer graph;
  save_graph(graph, exec.graph());

  Writer layout;
  save_layout(layout, exec.analysis().block_cols, exec.analysis().col_begin,
              exec.fg_costs());

  Writer cascade;
  save_cascade(cascade, p.cascade());

  Writer kern;
  kernels::save_autotune_report(kern, p.autotune_report());

  return pack(kPipelineKind,
              {{kSecMeta, meta.take()},
               {kSecTables, tables.take()},
               {kSecGraph, graph.take()},
               {kSecLayout, layout.take()},
               {kSecCascade, cascade.take()},
               {kSecKernels, kern.take()}});
}

core::OptimizedPipeline pipeline_from_bytes(
    std::span<const std::uint8_t> bytes) {
  const auto sections = unpack(bytes, kPipelineKind);

  Reader meta = section_reader(sections, kSecMeta, "pipeline meta section");
  const std::uint8_t engine = meta.u8();
  if (engine > 1) {
    throw SerializeError(ErrorCode::CorruptData, "engine kind out of range");
  }
  const bool use_cascades = meta.u8() != 0;
  core::TopKConfig topk;
  topk.ck = meta.f64();
  topk.min_subset_frac = meta.f64();
  const bool feature_cache = meta.u8() != 0;
  const std::size_t cache_capacity = static_cast<std::size_t>(meta.u64());
  const std::size_t parallel_threads = static_cast<std::size_t>(meta.u64());
  // A flipped thread count must not spawn an absurd pool.
  if (parallel_threads > 4096) {
    throw SerializeError(ErrorCode::CorruptData, "parallel thread count absurd");
  }

  Reader tables_r = section_reader(sections, kSecTables, "table section");
  const OpLoadContext ctx = load_tables(tables_r);

  Reader graph_r = section_reader(sections, kSecGraph, "graph section");
  core::Graph graph = load_graph(graph_r, ctx);

  // The IFV analysis is derived state: recompute it from the loaded graph
  // (guaranteed consistent) and restore only the probed layout. A graph
  // that decodes but no longer analyzes is corrupt by construction — the
  // artifact was saved from a pipeline that analyzed.
  std::shared_ptr<core::Executor> executor;
  try {
    core::IfvAnalysis analysis = core::analyze_ifvs(graph);
    if (engine == 1) {
      executor = std::make_shared<core::CompiledExecutor>(std::move(graph),
                                                          std::move(analysis));
    } else {
      executor = std::make_shared<core::InterpretedExecutor>(
          std::move(graph), std::move(analysis));
    }
  } catch (const std::invalid_argument& e) {
    throw SerializeError(ErrorCode::CorruptData, e.what());
  }

  Reader layout_r = section_reader(sections, kSecLayout, "layout section");
  auto block_cols = layout_r.sizes();
  auto col_begin = layout_r.sizes();
  auto fg_costs = layout_r.doubles();
  try {
    executor->restore_layout(std::move(block_cols), std::move(col_begin));
  } catch (const std::invalid_argument& e) {
    throw SerializeError(ErrorCode::CorruptData, e.what());
  }
  executor->set_fg_costs(std::move(fg_costs));

  Reader cascade_r = section_reader(sections, kSecCascade, "cascade section");
  core::TrainedCascade cascade = load_cascade(cascade_r);
  if (cascade.enabled() &&
      cascade.efficient_mask.size() != executor->analysis().num_generators()) {
    throw SerializeError(ErrorCode::CorruptData,
                         "cascade masks do not match the graph's generators");
  }

  Reader kern_r = section_reader(sections, kSecKernels, "kernel section");
  kernels::AutotuneReport autotune = kernels::load_autotune_report(kern_r);
  // Op-level winners live on the executor, not the models: install them
  // while it is still mutable so a loaded pipeline cold-starts tuned.
  if (autotune.tuned_ops) {
    if (auto* compiled =
            dynamic_cast<core::CompiledExecutor*>(executor.get())) {
      compiled->set_featureop_config(autotune.ops);
    }
  }

  core::OptimizedPipeline::Parts parts;
  parts.executor = std::move(executor);
  parts.cascade = std::move(cascade);
  parts.autotune = std::move(autotune);
  parts.use_cascades = use_cascades;
  parts.topk = topk;
  parts.feature_cache = feature_cache;
  parts.cache_capacity = cache_capacity;
  parts.parallel_threads = parallel_threads;
  return core::OptimizedPipeline(std::move(parts));
}

void save_pipeline(const core::OptimizedPipeline& p, const std::string& path) {
  write_file_atomic(path, pipeline_to_bytes(p));
}

core::OptimizedPipeline load_pipeline(const std::string& path) {
  return pipeline_from_bytes(read_file(path));
}

// --- cascade bundle -------------------------------------------------------

std::vector<std::uint8_t> cascade_bundle_to_bytes(const CascadeBundle& b) {
  Writer layout;
  save_layout(layout, b.block_cols, b.col_begin, b.fg_costs);
  Writer cascade;
  save_cascade(cascade, b.cascade);
  return pack(kCascadeKind,
              {{kSecLayout, layout.take()}, {kSecCascade, cascade.take()}});
}

CascadeBundle cascade_bundle_from_bytes(std::span<const std::uint8_t> bytes) {
  const auto sections = unpack(bytes, kCascadeKind);
  CascadeBundle b;
  Reader layout_r = section_reader(sections, kSecLayout, "layout section");
  b.block_cols = layout_r.sizes();
  b.col_begin = layout_r.sizes();
  b.fg_costs = layout_r.doubles();
  Reader cascade_r = section_reader(sections, kSecCascade, "cascade section");
  b.cascade = load_cascade(cascade_r);
  return b;
}

void save_cascade_bundle(const CascadeBundle& b, const std::string& path) {
  write_file_atomic(path, cascade_bundle_to_bytes(b));
}

CascadeBundle load_cascade_bundle(const std::string& path) {
  return cascade_bundle_from_bytes(read_file(path));
}

void bind_cascade_bundle(CascadeBundle& bundle, core::Executor& executor) {
  const std::size_t n = executor.analysis().num_generators();
  if (bundle.cascade.enabled() && bundle.cascade.efficient_mask.size() != n) {
    throw SerializeError(ErrorCode::CorruptData,
                         "cascade masks do not match the executor's generators");
  }
  try {
    executor.restore_layout(bundle.block_cols, bundle.col_begin);
  } catch (const std::invalid_argument& e) {
    throw SerializeError(ErrorCode::CorruptData, e.what());
  }
  executor.set_fg_costs(bundle.fg_costs);
}

// --- workload splits ------------------------------------------------------

namespace {

void save_column(Writer& w, const data::Column& c) {
  w.u8(static_cast<std::uint8_t>(c.type()));
  switch (c.type()) {
    case data::ColumnType::Int: {
      const auto& xs = c.ints();
      w.varint(xs.size());
      for (std::int64_t x : xs) w.svarint(x);
      break;
    }
    case data::ColumnType::Double:
      w.doubles(c.doubles());
      break;
    case data::ColumnType::String: {
      const auto& xs = c.strings();
      w.varint(xs.size());
      for (const auto& s : xs) w.str(s);
      break;
    }
  }
}

data::Column load_column(Reader& r) {
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(data::ColumnType::String)) {
    throw SerializeError(ErrorCode::CorruptData, "column type out of range");
  }
  switch (static_cast<data::ColumnType>(type)) {
    case data::ColumnType::Int: {
      const std::uint64_t n = r.varlength(1, "int column");
      data::IntColumn xs;
      xs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) xs.push_back(r.svarint());
      return data::Column(std::move(xs));
    }
    case data::ColumnType::Double:
      return data::Column(data::DoubleColumn(r.doubles()));
    default: {
      const std::uint64_t n = r.varlength(1, "string column");
      data::StringColumn xs;
      xs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) xs.push_back(r.str());
      return data::Column(std::move(xs));
    }
  }
}

void save_labeled(Writer& w, const core::LabeledData& d) {
  const auto& names = d.inputs.names();
  w.u64(names.size());
  for (const auto& name : names) {
    w.str(name);
    save_column(w, d.inputs.get(name));
  }
  w.doubles(d.targets);
}

core::LabeledData load_labeled(Reader& r) {
  core::LabeledData d;
  const std::uint64_t n_cols = r.length(2, "split columns");
  for (std::uint64_t i = 0; i < n_cols; ++i) {
    std::string name = r.str();
    d.inputs.add(std::move(name), load_column(r));
  }
  d.targets = r.doubles();
  if (d.inputs.num_columns() > 0 && d.targets.size() != d.inputs.num_rows()) {
    throw SerializeError(ErrorCode::CorruptData,
                         "split target count does not match its rows");
  }
  return d;
}

}  // namespace

std::vector<std::uint8_t> split_bundle_to_bytes(const SplitBundle& b) {
  Writer w;
  w.str(b.workload);
  w.u8(b.classification ? 1 : 0);
  save_labeled(w, b.train);
  save_labeled(w, b.valid);
  save_labeled(w, b.test);
  return pack(kSplitKind, {{kSecSplits, w.take()}});
}

SplitBundle split_bundle_from_bytes(std::span<const std::uint8_t> bytes) {
  const auto sections = unpack(bytes, kSplitKind);
  Reader r = section_reader(sections, kSecSplits, "split section");
  SplitBundle b;
  b.workload = r.str();
  const std::uint8_t cls = r.u8();
  if (cls > 1) {
    throw SerializeError(ErrorCode::CorruptData, "split classification flag");
  }
  b.classification = cls != 0;
  b.train = load_labeled(r);
  b.valid = load_labeled(r);
  b.test = load_labeled(r);
  return b;
}

void save_split_bundle(const SplitBundle& b, const std::string& path) {
  write_file_atomic(path, split_bundle_to_bytes(b));
}

SplitBundle load_split_bundle(const std::string& path) {
  return split_bundle_from_bytes(read_file(path));
}

// --- file io --------------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializeError(ErrorCode::IoError, "cannot open \"" + path + "\"");
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw SerializeError(ErrorCode::IoError, "read failed for \"" + path + "\"");
  }
  return bytes;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);  // best-effort
  }
  // Unique per process and call: parallel test binaries warming the same
  // cache entry each write their own temp file and race only on the
  // (atomic) rename.
  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp = target.string() + ".tmp." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SerializeError(ErrorCode::IoError,
                           "cannot create \"" + tmp.string() + "\"");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw SerializeError(ErrorCode::IoError,
                           "write failed for \"" + tmp.string() + "\"");
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw SerializeError(ErrorCode::IoError, "rename failed for \"" + path + "\"");
  }
}

}  // namespace willump::serialize
