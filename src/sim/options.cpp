#include "sim/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "mem/memory.hpp"
#include "sim/manifest.hpp"

namespace gnna::sim {
namespace {

using accel::AcceleratorConfig;

struct NamedConfig {
  const char* name;
  AcceleratorConfig (*make)();
};
constexpr NamedConfig kConfigs[] = {
    {"cpu-iso-bw", &AcceleratorConfig::cpu_iso_bw},
    {"gpu-iso-bw", &AcceleratorConfig::gpu_iso_bw},
    {"gpu-iso-flops", &AcceleratorConfig::gpu_iso_flops},
};

/// Shortest text that parses back to `x`.
std::string format_number(double x) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return {buf, res.ptr};
}

// Option text <-> field, for every field type the table binds. assign()
// only sees text the option's reject() accepted.
void assign(bool& f, const std::string& s) { f = s == "1"; }
void assign(double& f, const std::string& s) { f = *parse_f64(s); }
void assign(std::string& f, const std::string& s) { f = s; }
void assign(gnn::Benchmark& f, const std::string& s) {
  f = *benchmark_by_name(s);
}
void assign(graph::PartitionPolicy& f, const std::string& s) {
  f = *partition_by_name(s);
}
void assign(mem::MemScheduler& f, const std::string& s) {
  f = *mem::mem_scheduler_by_name(s);
}
void assign(AcceleratorConfig& f, const std::string& s) {
  f = *config_by_name(s);
}
template <std::unsigned_integral T>
void assign(T& f, const std::string& s) {
  f = static_cast<T>(*parse_u64(s));
}
template <typename T>
void assign(std::optional<T>& f, const std::string& s) {
  assign(f.emplace(), s);
}

std::string format(bool b) { return b ? "1" : "0"; }
std::string format(double x) { return format_number(x); }
std::string format(const std::string& s) { return s; }
std::string format(gnn::Benchmark b) { return gnn::benchmark_name(b); }
std::string format(graph::PartitionPolicy p) {
  return std::string(graph::partition_name(p));
}
std::string format(mem::MemScheduler s) {
  return std::string(mem::mem_scheduler_name(s));
}
std::string format(const AcceleratorConfig& cfg) {
  for (const NamedConfig& c : kConfigs) {
    if (c.make().name == cfg.name) return c.name;
  }
  return cfg.name;
}
template <std::unsigned_integral T>
std::string format(T n) {
  return std::to_string(n);
}
template <typename T>
std::string format(const std::optional<T>& v) {
  return v ? format(*v) : "";
}

/// `opt` bound to the request field `get(request)` refers to.
template <typename Get>
RunOption bind(RunOption opt, Get get) {
  opt.set = [get](RunRequest& r, const std::string& s) { assign(get(r), s); };
  opt.show = [get](const RunRequest& r) { return format(get(r)); };
  return opt;
}
template <typename T>
auto req(T RunRequest::*m) {
  return [m](auto& r) -> auto& { return r.*m; };
}
template <typename T>
auto trace_opt(T accel::TraceOptions::*m) {
  return [m](auto& r) -> auto& { return r.trace.*m; };
}
template <typename T>
auto mem_param(T mem::MemParams::*m) {
  return [m](auto& r) -> auto& { return r.config.mem_params.*m; };
}
template <typename T>
auto tile_param(T accel::TileParams::*m) {
  return [m](auto& r) -> auto& { return r.config.tile_params.*m; };
}

RunOption of_type(std::string key, OptionType type, std::string help,
                  std::vector<std::string> choices = {}) {
  RunOption o;
  o.key = std::move(key);
  o.type = type;
  o.help = std::move(help);
  o.choices = std::move(choices);
  return o;
}
RunOption count(std::string key, double min, double max, std::string help) {
  RunOption o = of_type(std::move(key), OptionType::kCount, std::move(help));
  o.min = min;
  o.max = max;
  return o;
}
RunOption simulation_only(RunOption o) {
  o.simulation_only = true;
  return o;
}

std::vector<RunOption> build_table() {
  using T = OptionType;
  using MP = mem::MemParams;
  using TP = accel::TileParams;
  using TO = accel::TraceOptions;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double k2p30 = 1073741824.0;

  std::vector<std::string> benchmarks;
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    benchmarks.push_back(gnn::benchmark_name(b));
  }
  std::vector<std::string> configs;
  for (const NamedConfig& c : kConfigs) configs.emplace_back(c.name);

  RunOption clock = of_type(
      "clock", T::kNumber,
      "core clock in GHz (default 2.4; the NoC stays at 2.4)");
  clock.max = 2.4;
  clock.min_open = true;
  clock.step = 0.001;  // whole MHz, so the clock ratio is a fraction
  RunOption scheduler = of_type(
      "mem_scheduler", T::kChoice,
      "memory controller (frfcfs: banked open-row reordering)",
      {mem::mem_scheduler_name(mem::MemScheduler::kInOrder),
       mem::mem_scheduler_name(mem::MemScheduler::kFrFcfs)});
  scheduler.alias = [](const std::string& s) {
    return mem::mem_scheduler_by_name(s).has_value();
  };

  // `config` must precede the mem_* and tile_* options: apply() runs in
  // table order, so those override the chosen base configuration.
  return {
      bind(of_type("benchmark", T::kChoice,
                   "Table VII benchmark (with program, the dataset it runs "
                   "on)",
                   benchmarks),
           req(&RunRequest::benchmark)),
      bind(of_type("program", T::kPath,
                   "GNNA-IR .gnna program to run instead of compiling"),
           req(&RunRequest::program_file)),
      bind(of_type("config", T::kChoice,
                   "accelerator configuration (Table VI)", configs),
           req(&RunRequest::config)),
      bind(clock, req(&RunRequest::clock_ghz)),
      bind(count("threads", 1, 4096,
                 "GPE software threads per tile (default 16)"),
           req(&RunRequest::threads)),
      bind(of_type("partition", T::kChoice,
                   "split of each phase's work items over the tiles",
                   {std::begin(graph::kPartitionNames),
                    std::end(graph::kPartitionNames)}),
           req(&RunRequest::partition)),
      bind(count("seed", 0, kInf, "dataset seed"), req(&RunRequest::seed)),
      bind(of_type("verify", T::kSwitch,
                   "statically verify the program before simulating"),
           req(&RunRequest::verify)),
      bind(of_type("optimize", T::kSwitch,
                   "run the validator-gated GNNA-IR optimizer (see gnnaopt)"),
           req(&RunRequest::optimize)),
      bind(simulation_only(
               count("watchdog", 0, kInf,
                     "cycles without progress before a run aborts (default "
                     "2000000)")),
           req(&RunRequest::watchdog_cycles)),
      bind(simulation_only(
               of_type("attribution", T::kSwitch,
                       "charge work to vertices and tiles (stats JSON)")),
           trace_opt(&TO::attribution)),
      bind(of_type("attribution_from", T::kPath,
                   "prior run's stats JSON that profile-guided packs"),
           req(&RunRequest::attribution_from)),
      bind(scheduler, mem_param(&MP::scheduler)),
      bind(count("mem_banks", 1, 1024, "FR-FCFS: DRAM banks per controller"),
           mem_param(&MP::banks)),
      bind(count("mem_row_bytes", 1, k2p30, "FR-FCFS: open-row size in bytes"),
           mem_param(&MP::row_bytes)),
      bind(of_type("mem_row_hit_ns", T::kNumber,
                   "FR-FCFS: open-row access latency in ns"),
           mem_param(&MP::row_hit_ns)),
      bind(of_type("mem_row_miss_ns", T::kNumber,
                   "FR-FCFS: closed-row access latency in ns"),
           mem_param(&MP::row_miss_ns)),
      bind(count("mem_window", 1, 4096, "FR-FCFS: scheduling-window entries"),
           mem_param(&MP::window_entries)),
      bind(count("mem_bank_interleave_bytes", 1, k2p30,
                 "FR-FCFS: address-to-bank stride in bytes"),
           mem_param(&MP::bank_interleave_bytes)),
      bind(of_type("mem_bank_xor", T::kSwitch,
                   "FR-FCFS: XOR the bank index with the row index"),
           mem_param(&MP::bank_xor)),
      bind(count("tile_agg_data_bytes", 1, k2p30,
                 "AGG data scratchpad bytes per tile"),
           tile_param(&TP::agg_data_bytes)),
      bind(count("tile_dnq_data_bytes", 1, k2p30,
                 "DNQ data scratchpad bytes per tile"),
           tile_param(&TP::dnq_data_bytes)),
      bind(count("tile_dnq_queue0_sixteenths", 0, 16,
                 "sixteenths of the DNQ scratchpad given to virtual queue 0"),
           tile_param(&TP::dnq_queue0_sixteenths)),
      bind(simulation_only(
               of_type("profile", T::kSwitch,
                       "per-phase profile (printed, and in the stats JSON)")),
           trace_opt(&TO::profile)),
      bind(simulation_only(of_type(
               "trace", T::kPath,
               "Chrome-trace event log (<file>.runN per run in --batch)")),
           trace_opt(&TO::trace_path)),
      bind(simulation_only(
               count("sample_every", 0, kInf,
                     "NoC cycles between utilization samples (0: none)")),
           trace_opt(&TO::sample_every)),
      bind(simulation_only(
               of_type("sample_file", T::kPath,
                       "CSV for the samples (default stderr; <file>.runN per "
                       "run in --batch)")),
           trace_opt(&TO::sample_path)),
      bind(simulation_only(
               of_type("deadlock_report", T::kPath,
                       "also write watchdog diagnostics here (<file>.runN per "
                       "run in --batch)")),
           trace_opt(&TO::deadlock_report_path)),
  };
}

std::size_t index_of(std::string_view key) {
  const auto& table = run_options();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].key == key) return i;
  }
  throw std::invalid_argument("unknown key '" + std::string(key) + "'");
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  // from_chars is exactly as strict as we want: no leading whitespace, no
  // sign, no trailing junk.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return v;
}

std::optional<double> parse_f64(const std::string& s) {
  // Likewise; "inf" and "nan" parse, so also require a finite value.
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || s.empty() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<gnn::Benchmark> benchmark_by_name(const std::string& name) {
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    if (gnn::benchmark_name(b) == name) return b;
  }
  return std::nullopt;
}

std::optional<AcceleratorConfig> config_by_name(const std::string& name) {
  for (const NamedConfig& c : kConfigs) {
    if (name == c.name) return c.make();
  }
  return std::nullopt;
}

std::string RunOption::flag() const {
  std::string f = "--" + key;
  std::replace(f.begin(), f.end(), '_', '-');
  return f;
}

std::string RunOption::domain() const {
  const std::string lo = format_number(min);
  const std::string hi = format_number(max);
  const std::string steps =
      step > 0.0 ? " in steps of " + format_number(step) : "";
  switch (type) {
    case OptionType::kCount:
      if (std::isinf(max)) return "a non-negative integer";
      return "an integer in [" + lo + ", " + hi + "]";
    case OptionType::kNumber:
      if (std::isinf(max)) {
        return (min_open ? "a number > " : "a number >= ") + lo + steps;
      }
      return (min_open ? "a number in (" : "a number in [") + lo + ", " + hi +
             "]" + steps;
    case OptionType::kSwitch:
      return "0 or 1";
    case OptionType::kChoice: {
      std::string out = "one of";
      for (const std::string& c : choices) {
        out += (&c == &choices.front() ? " " : " | ") + c;
      }
      return out;
    }
    case OptionType::kPath:
      return "a file path";
  }
  return "";
}

std::optional<std::string> RunOption::reject(const std::string& text) const {
  bool ok = false;
  switch (type) {
    case OptionType::kCount: {
      const auto n = parse_u64(text);
      ok = n && static_cast<double>(*n) >= min &&
           static_cast<double>(*n) <= max;
      break;
    }
    case OptionType::kNumber: {
      const auto x = parse_f64(text);
      ok = x && (min_open ? *x > min : *x >= min) && *x <= max &&
           (step <= 0.0 ||
            std::abs(*x / step - std::round(*x / step)) <= 1e-6);
      break;
    }
    case OptionType::kSwitch:
      ok = text == "0" || text == "1";
      break;
    case OptionType::kChoice:
      ok = std::find(choices.begin(), choices.end(), text) != choices.end() ||
           (alias != nullptr && alias(text));
      break;
    case OptionType::kPath:
      if (text.empty()) return "needs a file path";
      ok = true;
      break;
  }
  if (ok) return std::nullopt;
  return "must be " + domain() + ", got '" + text + "'";
}

const std::vector<RunOption>& run_options() {
  static const std::vector<RunOption> table = build_table();
  return table;
}

void RunOptions::store(std::size_t index, std::string_view name,
                       const std::string& value) {
  if (const auto reason = run_options()[index].reject(value)) {
    throw std::invalid_argument(std::string(name) + " " + *reason);
  }
  values_[index] = value;
}

void RunOptions::set(std::string_view key, const std::string& value) {
  store(index_of(key), key, value);
}

bool RunOptions::parse_flag(int argc, char** argv, int& i, bool simulates) {
  const std::string arg = argv[i];
  const auto& table = run_options();
  for (std::size_t k = 0; k < table.size(); ++k) {
    const std::string flag = table[k].flag();
    const bool is_switch = table[k].type == OptionType::kSwitch &&
                           (arg == flag || arg == "--no-" + flag.substr(2));
    if (!is_switch && arg != flag) continue;
    if (table[k].simulation_only && !simulates) {
      throw std::invalid_argument(
          arg + " only steers a simulation, and this tool runs none");
    }
    if (is_switch) {
      values_[k] = arg == flag ? "1" : "0";
      return true;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    store(k, flag, argv[++i]);
    return true;
  }
  return false;
}

void RunOptions::erase(std::string_view key) { values_.erase(index_of(key)); }

std::optional<std::string> RunOptions::value(std::string_view key) const {
  const auto it = values_.find(index_of(key));
  return it == values_.end() ? std::nullopt : std::optional(it->second);
}

void RunOptions::apply(RunRequest& req) const {
  for (const auto& [index, value] : values_) {
    run_options()[index].set(req, value);
  }
  mem::validate(req.config.mem_params);
}

void print_run_options(std::ostream& os, bool manifest_keys,
                       bool simulates) {
  const RunRequest defaults;
  const auto print = [&](const RunOption& opt) {
    const bool is_switch = opt.type == OptionType::kSwitch;
    constexpr const char* kMetavars[] = {"<n>", "<x>", "0|1", "<name>",
                                         "<file>"};  // OptionType order
    const std::string metavar = kMetavars[static_cast<int>(opt.type)];
    std::string name = manifest_keys ? opt.key + "=" + metavar : opt.flag();
    if (!manifest_keys && !is_switch) name += " " + metavar;
    const std::string dflt = opt.show(defaults);
    os << "  " << name;
    if (!is_switch && opt.type != OptionType::kPath) {
      os << "  " << opt.domain();
    }
    if (is_switch) {
      os << (dflt == "1" ? " (default on)" : " (default off)");
    } else if (!dflt.empty()) {
      os << " (default " << dflt << ")";
    }
    os << "\n      " << opt.help << '\n';
  };
  for (const RunOption& opt : run_options()) {
    if (simulates || !opt.simulation_only) print(opt);
  }
  if (simulates) return;
  os << "refused here, since only a simulation reads them:\n";
  for (const RunOption& opt : run_options()) {
    if (opt.simulation_only) print(opt);
  }
}

std::string describe(const RunRequest& req) {
  RunRequest base;
  const RunOption& config = run_options()[index_of("config")];
  if (auto c = config_by_name(config.show(req))) base.config = *c;
  std::string out;
  for (const RunOption& opt : run_options()) {
    const std::string v = opt.show(req);
    if (&opt != &config && v == opt.show(base)) continue;
    out += (out.empty() ? "" : " ") + opt.key + "=" + v;
  }
  return out;
}

// Batch manifests (sim/manifest.hpp): one RunOptions per line.
std::vector<RunRequest> parse_batch_manifest(std::istream& in,
                                             const RunRequest& defaults,
                                             const std::string& source,
                                             const RunOptions& options) {
  RunOptions inherited = options;
  inherited.erase("benchmark");
  inherited.erase("program");

  std::vector<RunRequest> requests;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    const auto fail = [&](const std::string& reason) {
      throw std::invalid_argument(source + ":" + std::to_string(lineno) +
                                  ": " + reason);
    };

    RunOptions line_options = inherited;
    std::uint64_t repeat = 1;
    bool any = false;
    std::string token;
    while (tokens >> token) {
      any = true;
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail("expected key=value tokens, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "repeat") {
        const auto r = parse_u64(value);
        if (!r || *r == 0 || *r > 100000) {
          fail("repeat must be in [1, 100000], got '" + value + "'");
        }
        repeat = *r;
        continue;
      }
      try {
        line_options.set(key, value);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    }
    if (!any) continue;  // blank or comment-only line

    RunRequest req = defaults;
    req.benchmark.reset();
    req.program.reset();
    req.program_file.clear();
    req.model.reset();
    req.dataset.reset();
    try {
      line_options.apply(req);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if (!req.benchmark) {
      fail(req.program_file.empty()
               ? "line names no benchmark"
               : "program= also needs benchmark= (it names the dataset "
                 "the program runs against)");
    }
    for (std::uint64_t r = 0; r < repeat; ++r) requests.push_back(req);
  }
  return requests;
}

void per_run_paths(accel::TraceOptions& trace, std::size_t index) {
  const std::string suffix = ".run" + std::to_string(index);
  for (std::string* path :
       {&trace.trace_path, &trace.sample_path, &trace.deadlock_report_path}) {
    if (path->empty()) continue;
    const auto slash = path->find_last_of('/');
    auto dot = path->find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
      dot = path->size();
    }
    path->insert(dot, suffix);
  }
}

}  // namespace gnna::sim
