// The run-option table: every knob a simulation run takes, declared once.
//
// Each RunOption names one setting of a sim::RunRequest (or of the
// AcceleratorConfig it carries) with its type, allowed range or names,
// setter and help line. The one table drives every surface: manifest keys
// (`mem_banks=4`, sim/manifest.hpp), the gnnasim, gnnaverify and gnnaopt
// flags (`--mem-banks 4`; switches take no value, `--optimize`, and
// `--no-optimize` clears one) and each tool's --help, so a value is
// accepted or rejected, with the same reason, everywhere. A RunOptions
// applies what it collected in table order: `config` comes before the
// mem_* and tile_* keys, so those override fields of whichever base
// configuration is chosen, whatever order they were given in.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/session.hpp"

namespace gnna::sim {

// Strict value parsers: reject garbage, trailing junk, and (for integers)
// negative signs, instead of taking whatever strtoull salvages.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& s);
[[nodiscard]] std::optional<double> parse_f64(const std::string& s);
[[nodiscard]] std::optional<gnn::Benchmark> benchmark_by_name(
    const std::string& name);
[[nodiscard]] std::optional<accel::AcceleratorConfig> config_by_name(
    const std::string& name);
using graph::partition_by_name;

enum class OptionType : std::uint8_t {
  kCount,   // unsigned integer in [min, max]
  kNumber,  // finite real in [min, max], or (min, max] when min_open
  kSwitch,  // 0 | 1
  kChoice,  // one of `choices`
  kPath,    // non-empty file path
};

struct RunOption {
  std::string key;  // manifest key, e.g. "mem_banks"
  OptionType type = OptionType::kCount;
  std::string help;
  double min = 0.0;
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  /// kNumber: when set, a value must also be a whole multiple of it.
  double step = 0.0;
  std::vector<std::string> choices;
  /// kChoice: also accepts the other spellings this takes, if set.
  bool (*alias)(const std::string&) = nullptr;
  /// Sets the request from a value reject() accepts.
  std::function<void(RunRequest&, const std::string&)> set;
  /// The request's value as option text ("" when unset).
  std::function<std::string(const RunRequest&)> show;
  /// Only a simulation reads it (the watchdog, the observability outputs).
  bool simulation_only = false;

  /// "--mem-banks".
  [[nodiscard]] std::string flag() const;
  /// The accepted values, e.g. "an integer in [1, 1024]".
  [[nodiscard]] std::string domain() const;
  /// Why `text` is not a value of this option ("must be an integer in
  /// [1, 1024], got '0'"), or nullopt when it is.
  [[nodiscard]] std::optional<std::string> reject(
      const std::string& text) const;
};

/// Every run option, in the order they are applied and listed.
[[nodiscard]] const std::vector<RunOption>& run_options();

/// Options given on one surface (a command line, a manifest line), each
/// validated when given; the last value given for an option wins.
class RunOptions {
 public:
  /// Sets option `key` from a manifest token. Throws std::invalid_argument
  /// ("<key> <reason>") for an unknown key or a rejected value.
  void set(std::string_view key, const std::string& value);

  /// Stores argv[i] if it is a run-option flag (consuming argv[i + 1]
  /// unless it is a switch); false for any other argument. Throws
  /// std::invalid_argument ("<flag> <reason>") for a bad or missing value,
  /// and, unless the tool `simulates`, for a simulation-only option, which
  /// it would otherwise take and ignore.
  bool parse_flag(int argc, char** argv, int& i, bool simulates = true);

  void erase(std::string_view key);
  [[nodiscard]] std::optional<std::string> value(std::string_view key) const;

  /// Sets every given option on `req`, in table order, then checks the
  /// resulting memory parameters. Throws std::invalid_argument.
  void apply(RunRequest& req) const;

 private:
  void store(std::size_t index, std::string_view name,
             const std::string& value);

  std::map<std::size_t, std::string> values_;  // table index -> value
};

/// One entry per option: `--mem-banks <n>` flags, or with `manifest_keys`
/// `mem_banks=<n>` keys, each with its help, default and accepted values.
/// Unless the tool `simulates`, the simulation-only flags are listed apart,
/// as refused.
void print_run_options(std::ostream& os, bool manifest_keys = false,
                       bool simulates = true);

/// `req` as option tokens in table order: its config, and every option
/// whose value differs from that config's defaults, e.g.
/// "benchmark=GCN/Cora config=gpu-iso-bw mem_banks=4". Two requests the
/// options cannot tell apart describe the same.
[[nodiscard]] std::string describe(const RunRequest& req);

}  // namespace gnna::sim
