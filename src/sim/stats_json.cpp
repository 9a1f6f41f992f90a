#include "sim/stats_json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "accel/analysis.hpp"
#include "accel/ir.hpp"
#include "sim/json.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"

namespace gnna::sim {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

using accel::RunStats;

/// Marks the member that identifies a row: the reader rejects a row
/// without it.
constexpr bool kId = true;

/// The values PhaseModel::bottleneck takes ("" before the model ran).
constexpr const char* kBottlenecks[] = {"", "gpe", "dna", "agg", "memory",
                                        "noc"};

// ---- The schema ----
//
// One function per object type lists the members the stats JSON holds, in
// the order they are written. The Writer walks it over const objects and
// the Reader over mutable ones (Io::Ref), so reading is the exact inverse
// of writing by construction.

template <class Io>
void schema(Io& io, typename Io::template Ref<RunStats::MemBankStats> b) {
  io.field("mem", b.mem, kId);
  io.field("bank", b.bank, kId);
  io.field("row_hits", b.row_hits);
  io.field("row_misses", b.row_misses);
  io.field("busy_frac", b.busy_frac);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<accel::PhaseStats> ph) {
  io.field("name", ph.name, kId);
  io.field("cycles", ph.cycles);
  io.field("mem_bytes_served", ph.mem_bytes_served);
  io.field("tasks", ph.tasks);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::UnitProfile> u) {
  io.field("cat", u.cat, kId);
  io.field("unit", u.unit, kId);
  io.field("busy", u.busy);
  io.field("completes", u.completes);
  io.field("instants", u.instants);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::FlameNode> f) {
  io.field("path", f.path, kId);
  io.field("count", f.count);
  io.field("total", f.total);
  io.field("self", f.self);
  io.field("max", f.max);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::CounterStat> c) {
  io.field("cat", c.cat, kId);
  io.field("name", c.name, kId);
  io.field("samples", c.samples);
  io.field("last", c.last);
  io.field("max", c.max);
  io.field("mean", c.mean);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::PhaseProfile> ph) {
  io.field("name", ph.name, kId);
  io.field("start", ph.start);
  if constexpr (Io::kReading) {  // the span is stored as its length
    double cycles = 0.0;
    io.field("cycles", cycles);
    ph.end = ph.start + cycles;
  } else {
    io.field("cycles", ph.cycles());
  }
  io.field("tasks", ph.tasks);
  io.field("alloc_stalls", ph.alloc_stalls);
  io.categories("busy", ph.busy);
  io.categories("completes", ph.completes);
  io.categories("instants", ph.instants);
  io.rows("units", ph.units);
  io.rows("flame", ph.flame);
  io.rows("counters", ph.counters);
}

/// The embedded profile block (trace/profiler.hpp).
template <class Io>
void schema(Io& io, typename Io::template Ref<trace::ProfileReport> pr) {
  io.derived("version", std::uint64_t{trace::kProfileSchemaVersion});
  io.rows("phases", pr.phases);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::TileAttribution> t) {
  io.index("tile");
  io.field("busy", t.busy);
  io.field("agg_busy", t.agg_busy);
  io.field("tasks", t.tasks);
  io.field("flits", t.flits);
  io.field("flit_hops", t.flit_hops);
  io.field("bytes", t.bytes);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<trace::VertexHotspot> v) {
  io.field("vertex", v.vertex, kId);
  io.field("busy", v.busy);
  io.field("agg_busy", v.agg_busy);
  io.field("tasks", v.tasks);
  io.field("flits", v.flits);
  io.field("bytes", v.bytes);
}

/// The embedded attribution block: per-tile busy/traffic totals, the
/// imbalance metrics derived from them, and the exact per-vertex rows
/// (see trace/attribution.hpp).
template <class Io>
void schema(Io& io, typename Io::template Ref<trace::AttributionReport> ar) {
  io.derived("version", std::uint64_t{1});
  io.field("span", ar.span);
  io.field("total_busy", ar.total_busy);
  io.derived("busy_max_mean", ar.busy_max_mean());
  io.derived("flit_gini", ar.flit_gini());
  io.field("unattributed_flits", ar.unattributed_flits);
  io.rows("tiles", ar.tiles);
  io.rows("vertices", ar.vertices);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<accel::PhaseModel> m) {
  io.field("name", m.name, kId);
  io.field("bound_cycles", m.bound_cycles);
  io.field("compute_cycles", m.compute_cycles);
  io.field("memory_cycles", m.memory_cycles);
  io.field("noc_cycles", m.noc_cycles);
  io.field("gpe_cycles", m.gpe_cycles);
  io.field("dna_cycles", m.dna_cycles);
  io.field("agg_cycles", m.agg_cycles);
  io.field("read_bytes", m.read_bytes);
  io.field("write_bytes", m.write_bytes);
  io.field("payload_bytes", m.payload_bytes);
  io.field("mem_requests", m.mem_requests);
  io.field("predicted_row_hit_rate", m.predicted_row_hit_rate);
  io.field("bottleneck", m.bottleneck);
  io.field("imbalance", m.imbalance);
  io.field("dnq0_concurrency", m.dnq0.concurrency);
  io.field("dnq1_concurrency", m.dnq1.concurrency);
  io.field("agg_concurrency", m.agg.concurrency);
}

/// The embedded static-model block: the analytic cycle lower bound and
/// per-phase roofline terms (accel/analysis.hpp).
template <class Io>
void schema(Io& io, typename Io::template Ref<accel::ProgramAnalysis> pa) {
  io.derived("version", std::uint64_t{1});
  io.field("bound_cycles", pa.bound_cycles);
  io.rows("phases", pa.phases);
}

template <class Io>
void schema(Io& io, typename Io::template Ref<RunStats> rs) {
  io.derived("schema_version", std::uint64_t{kStatsJsonSchemaVersion});
  io.field("program", rs.program_name);
  // GNNA-IR content hash and cache provenance of the executed program;
  // absent when the simulator was driven directly.
  if (Io::kReading || !rs.program_cache.empty()) {
    io.hash("program_hash", rs.program_hash);
    io.field("program_cache", rs.program_cache);
  }
  // Provenance of an optimizer-rewritten program: the content hash of the
  // program the accel::opt pipeline started from.
  if (Io::kReading || rs.optimized_from != 0) {
    io.hash("optimized_from", rs.optimized_from);
  }
  io.field("config", rs.config_name);
  io.field("core_clock_ghz", rs.core_clock_ghz);
  io.field("cycles", rs.cycles);
  io.field("seconds", rs.seconds);
  io.field("millis", rs.millis);
  io.field("mem_bytes_requested", rs.mem_bytes_requested);
  io.field("mem_bytes_served", rs.mem_bytes_served);
  io.field("mean_bandwidth_gbps", rs.mean_bandwidth_gbps);
  io.field("bandwidth_utilization", rs.bandwidth_utilization);
  io.field("mem_scheduler", rs.mem_scheduler);
  io.field("mem_row_hits", rs.mem_row_hits);
  io.field("mem_row_misses", rs.mem_row_misses);
  io.field("mem_row_hit_rate", rs.mem_row_hit_rate);
  io.field("mem_queue_occupancy", rs.mem_queue_occupancy);
  io.field("mem_queue_occupancy_max", rs.mem_queue_occupancy_max);
  io.rows("mem_banks", rs.mem_banks);
  io.field("dna_utilization", rs.dna_utilization);
  io.field("gpe_utilization", rs.gpe_utilization);
  io.field("agg_utilization", rs.agg_utilization);
  io.field("tasks_completed", rs.tasks_completed);
  io.field("packets_delivered", rs.packets_delivered);
  io.field("avg_packet_latency", rs.avg_packet_latency);
  io.field("dnq_queue_switches", rs.dnq_queue_switches);
  io.field("alloc_stalls", rs.alloc_stalls);
  io.field("noc_flit_hops", rs.noc_flit_hops);
  io.field("noc_flits_delivered", rs.noc_flits_delivered);
  io.field("agg_words_reduced", rs.agg_words_reduced);
  io.field("dna_macs", rs.dna_macs);
  io.field("gpe_actions", rs.gpe_actions);
  io.field("dnq_words", rs.dnq_words);
  io.rows("phases", rs.phases);
  io.block("profile", rs.profile);
  io.block("attribution", rs.attribution);
  io.block("static_model", rs.static_model);
}

// ---- Writer ----

/// One value as JSON text; Reader::decode is its inverse. Doubles keep
/// round-trip precision.
template <class V>
std::string text(const V& v) {
  if constexpr (std::is_same_v<V, std::string>) {
    return '"' + json_escape(v) + '"';
  } else if constexpr (std::is_same_v<V, const char*>) {
    return text(std::string(v));
  } else if constexpr (std::is_same_v<V, trace::Category>) {
    return text(trace::category_name(v));
  } else if constexpr (std::is_same_v<V, double>) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return std::isfinite(v) && ec == std::errc() ? std::string(buf, end)
                                                 : "null";
  } else {
    static_assert(std::is_unsigned_v<V> && !std::is_same_v<V, bool>,
                  "an id or a count");
    return std::to_string(v);
  }
}

/// Appends one object to `out`: a member per line at `indent` (the run
/// object), or all on one line when `indent` is negative (every row).
class Writer {
 public:
  template <class T>
  using Ref = const T&;
  static constexpr bool kReading = false;

  explicit Writer(std::string& out, int indent = -1, std::size_t index = 0)
      : out_(out), indent_(indent), index_(index) {
    out_ += '{';
  }

  template <class V>
  void field(const char* key, const V& value, bool /*id*/ = false) {
    raw(key, text(value));
  }
  /// Written, not read back: a version, or a value derived from others.
  template <class V>
  void derived(const char* key, const V& value) {
    raw(key, text(value));
  }
  void hash(const char* key, std::uint64_t h) {
    raw(key, text(accel::ir::hash_hex(h)));
  }
  /// The row's position in its array.
  void index(const char* key) { raw(key, std::to_string(index_)); }
  /// A per-category object; all-zero categories are omitted.
  template <class A>
  void categories(const char* key, const A& values) {
    std::string obj;
    Writer w(obj);
    for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
      const std::string v = text(values[c]);
      if (v != "0") {
        w.raw(trace::category_name(static_cast<trace::Category>(c)), v);
      }
    }
    w.close();
    raw(key, obj);
  }
  template <class R>
  void rows(const char* key, const std::vector<R>& items) {
    std::string arr = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) arr += ", ";
      Writer w(arr, -1, i);
      schema(w, items[i]);
      w.close();
    }
    raw(key, arr + "]");
  }
  template <class B>
  void block(const char* key, const std::shared_ptr<const B>& b) {
    if (!b) return;
    std::string obj;
    Writer w(obj);
    schema(w, *b);
    w.close();
    raw(key, obj);
  }

  void close() {
    if (indent_ >= 0) {
      out_ += '\n';
      out_.append(static_cast<std::size_t>(indent_), ' ');
    }
    out_ += '}';
  }

 private:
  void raw(const char* key, const std::string& value) {
    if (indent_ < 0) {
      if (!first_) out_ += ", ";
    } else {
      out_ += first_ ? "\n" : ",\n";
      out_.append(static_cast<std::size_t>(indent_) + 2, ' ');
    }
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += value;
  }

  std::string& out_;
  int indent_;
  std::size_t index_;
  bool first_ = true;
};

// ---- Reader ----

/// Decodes one object of the file. Every diagnostic names the file, the
/// run and the row: "<file>: run 2: attribution.vertices[0]: ...".
class Reader {
 public:
  template <class T>
  using Ref = T&;
  static constexpr bool kReading = true;

  Reader(const json::Value& obj, std::string run, std::string path = "",
         std::size_t index = 0)
      : obj_(obj), run_(std::move(run)), path_(std::move(path)),
        index_(index) {
    if (!obj.is_object()) fail("not an object");
  }

  /// Throws "<run>: <row>: [\"<key>\" ]<why>".
  [[noreturn]] void fail(const std::string& why,
                         const std::string& key = "") const {
    throw std::runtime_error(run_ + (path_.empty() ? "" : ": " + path_) +
                             ": " + (key.empty() ? "" : '"' + key + "\" ") +
                             why);
  }

  /// Member `key` into `dst`; a missing member keeps `dst` (a field a
  /// later schema version added), unless it is the row's id.
  template <class V>
  void field(const char* key, V& dst, bool id = false) const {
    if (const json::Value* v = obj_.find(key)) {
      decode(*v, dst, key);
    } else if (id) {
      fail("row has no \"" + std::string(key) + "\"");
    }
  }
  template <class V>
  void derived(const char* key, V value) const {
    field(key, value);  // type-checked, not kept
  }
  void hash(const char* key, std::uint64_t& h) const {
    if (obj_.find(key) == nullptr) return;
    std::string hex;
    field(key, hex);
    const char* end = hex.data() + hex.size();
    const auto [last, ec] = std::from_chars(hex.data(), end, h, 16);
    if (hex.size() != 16 || ec != std::errc() || last != end) {
      fail("must be 16 hex digits, got \"" + hex + "\"", key);
    }
  }
  void index(const char* key) const {
    std::size_t i = 0;
    field(key, i, kId);
    if (i != index_) fail("is " + std::to_string(i), key);
  }
  template <class A>
  void categories(const char* key, A& dst) const {
    if (const json::Value* v = obj_.find(key)) {
      const Reader r(*v, run_, member(key));
      for (const auto& [name, value] : v->members()) {
        r.decode(value, dst[r.category(name)], name);
      }
    }
  }
  template <class R>
  void rows(const char* key, std::vector<R>& items) const {
    const json::Value* arr = obj_.find(key);
    if (arr == nullptr) return;
    if (!arr->is_array()) fail("must be an array", key);
    for (std::size_t i = 0; i < arr->size(); ++i) {
      Reader r(arr->at(i), run_,
               member(key) + "[" + std::to_string(i) + "]", i);
      schema(r, items.emplace_back());
    }
  }
  template <class B>
  void block(const char* key, std::shared_ptr<const B>& b) const {
    if (const json::Value* v = obj_.find(key)) {
      auto out = std::make_shared<B>();
      Reader r(*v, run_, member(key));
      schema(r, *out);
      b = std::move(out);
    }
  }

 private:
  [[nodiscard]] std::string member(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  [[nodiscard]] std::size_t category(const std::string& name) const {
    const std::size_t c = trace::category_by_name(name.c_str());
    if (c >= trace::kNumCategories) {
      fail("unknown unit category \"" + name + "\"");
    }
    return c;
  }

  /// The inverse of text().
  template <class V>
  void decode(const json::Value& v, V& dst, const std::string& key) const {
    const auto fail_unless = [&](bool ok, const char* what) {
      if (!ok) fail(std::string("must be ") + what, key);
    };
    if constexpr (std::is_same_v<V, std::string>) {
      fail_unless(v.is_string(), "a string");
      dst = v.as_string();
    } else if constexpr (std::is_same_v<V, const char*>) {
      fail_unless(v.is_string(), "a string");
      const auto it = std::find(std::begin(kBottlenecks),
                                std::end(kBottlenecks), v.as_string());
      if (it == std::end(kBottlenecks)) {
        fail("unknown \"" + key + "\" \"" + v.as_string() + "\"");
      }
      dst = *it;
    } else if constexpr (std::is_same_v<V, trace::Category>) {
      fail_unless(v.is_string(), "a string");
      dst = static_cast<trace::Category>(category(v.as_string()));
    } else if constexpr (std::is_same_v<V, double>) {
      // null is the writer's spelling of a non-finite double.
      fail_unless(v.is_number() || v.is_null(), "a number");
      dst = v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                        : v.as_number();
    } else {  // an id or a count: an integer in [0, 2^digits)
      const double d = v.is_number() ? v.as_number() : -1.0;
      if (!(d >= 0.0 && d < std::ldexp(1.0, std::numeric_limits<V>::digits) &&
            std::floor(d) == d)) {
        fail("must be an integer in [0, " +
                 std::to_string(std::numeric_limits<V>::max()) + "], got " +
                 (v.is_number() ? text(d) : "a non-number"),
             key);
      }
      dst = static_cast<V>(d);
    }
  }

  const json::Value& obj_;
  std::string run_;
  std::string path_;
  std::size_t index_;
};

RunResult read_run(const json::Value& v, const std::string& run) {
  RunResult r;
  Reader io(v, run);
  if (v.find("error") == nullptr) {
    schema(io, r.stats);
    return r;
  }
  io.field("error", r.error);
  if (r.error.empty()) io.fail("is empty", "error");
  return r;
}

}  // namespace

void write_run_stats_json(std::ostream& os, const accel::RunStats& rs,
                          int indent) {
  std::string out;
  Writer w(out, indent);
  schema(w, rs);
  w.close();
  os << out;
}

void write_batch_json(std::ostream& os, const std::vector<RunResult>& results) {
  os << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    if (results[i].ok()) {
      os << "  ";
      write_run_stats_json(os, results[i].stats, 2);
    } else {
      os << "  {\"error\": \"" << json_escape(results[i].error) << "\"}";
    }
  }
  os << "\n]\n";
}

std::vector<RunResult> read_stats_json(const std::string& path) {
  json::Value doc;
  try {
    doc = json::parse_file(path);
  } catch (const json::ParseError& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  const auto run = [&](std::size_t i) {
    return path + ": run " + std::to_string(i);
  };
  if (!doc.is_array()) return {read_run(doc, run(0))};
  std::vector<RunResult> runs;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    runs.push_back(read_run(doc.at(i), run(i)));
  }
  return runs;
}

std::shared_ptr<const trace::AttributionReport> read_attribution(
    const std::string& path) {
  for (const RunResult& r : read_stats_json(path)) {
    if (r.ok() && r.stats.attribution) return r.stats.attribution;
  }
  throw std::runtime_error(path +
                           ": no run has an attribution block (was the "
                           "profiling run made with --attribution?)");
}

}  // namespace gnna::sim
