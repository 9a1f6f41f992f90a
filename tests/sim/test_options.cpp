// The run-option table drives the command-line flags, the manifest keys
// and every tool's --help: each entry must parse alike on both surfaces,
// reject alike, and be listed by every tool.
#include "sim/options.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/manifest.hpp"

namespace gnna::sim {
namespace {

const RunOption& entry(std::size_t i) { return run_options()[i]; }

/// A value the entry accepts that differs from its default.
std::string valid_value(const RunOption& opt) {
  switch (opt.type) {
    case OptionType::kCount:
      return std::isinf(opt.max)
                 ? "7"
                 : std::to_string(static_cast<std::uint64_t>(opt.max));
    case OptionType::kNumber:
      return "1.5";
    case OptionType::kSwitch:
      return opt.show(RunRequest{}) == "1" ? "0" : "1";
    case OptionType::kChoice:
      return opt.choices.back();
    case OptionType::kPath:
      return "prior.json";
  }
  return "";
}

/// A value the entry rejects.
std::string invalid_value(const RunOption& opt) {
  switch (opt.type) {
    case OptionType::kCount:
      if (opt.min > 0) return "0";
      if (!std::isinf(opt.max)) {
        return std::to_string(static_cast<std::uint64_t>(opt.max) + 1);
      }
      return "-1";
    case OptionType::kNumber:
      return opt.min_open ? "0" : "-1";
    case OptionType::kSwitch:
      return "2";
    case OptionType::kChoice:
      return "bogus";
    case OptionType::kPath:
      return "";
  }
  return "";
}

/// Options set from a command line of `args`.
RunRequest from_cli(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& a : args) argv.push_back(a.data());
  RunOptions options;
  for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
    if (!options.parse_flag(static_cast<int>(argv.size()), argv.data(), i)) {
      throw std::invalid_argument("not a run option: " +
                                  std::string(argv[i]));
    }
  }
  RunRequest req;
  options.apply(req);
  return req;
}

/// The one request a manifest of `line` gives.
RunRequest from_manifest(const std::string& line) {
  std::istringstream in(line + "\n");
  const auto reqs = parse_batch_manifest(in, RunRequest{}, "runs.txt");
  if (reqs.size() != 1) throw std::logic_error("expected one run");
  return reqs.front();
}

/// The error `fn` throws, after its "<prefix> " (a flag or key).
template <typename Fn>
std::string rejection(Fn fn, const std::string& prefix) {
  try {
    (void)fn();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const auto at = what.find(prefix + " ");
    return at == std::string::npos ? what : what.substr(at + prefix.size() + 1);
  }
  return "(accepted)";
}

/// The standard output of shell `command`.
const std::string& output_of(const std::string& command) {
  static std::map<std::string, std::string> cache;
  auto [it, fresh] = cache.try_emplace(command);
  if (fresh) {
    FILE* p = popen(command.c_str(), "r");
    if (p != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = fread(buf, 1, sizeof buf, p)) > 0) it->second.append(buf, n);
      pclose(p);
    }
  }
  return it->second;
}

/// The exit status of shell `command`, its output discarded.
int exit_status(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The simulator reduces the core clock's ratio to the NoC clock from the
// two in whole MHz, so a clock finer than 1 MHz is refused, naming the
// value, on both surfaces; gnnasim exits 2. Every shipped clock passes.
TEST(RunOptions, ClockMustBeWholeMegahertz) {
  for (const std::string ghz : {"0.01", "0.6", "1", "1.2", "1.8", "2.4"}) {
    EXPECT_EQ(from_cli({"--clock", ghz}).clock_ghz, std::stod(ghz));
  }
  const std::string why =
      "must be a number in (0, 2.4] in steps of 0.001, got '1.0005'";
  EXPECT_EQ(rejection([] { return from_cli({"--clock", "1.0005"}); },
                      "--clock"),
            why);
  EXPECT_EQ(rejection(
                [] { return from_manifest("benchmark=GCN/Cora clock=1.0005"); },
                "clock"),
            why);
  EXPECT_EQ(exit_status(std::string(GNNA_GNNASIM) +
                        " --benchmark GCN/Cora --clock 1.0005"),
            2);
}

class RunOptionTable : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunOptionTable, FlagAndManifestKeyGiveTheSameRequest) {
  const RunOption& opt = entry(GetParam());
  const std::string value = valid_value(opt);
  std::vector<std::string> args;
  std::string line;
  if (opt.key != "benchmark") {
    args = {"--benchmark", "GAT/Cora"};
    line = "benchmark=GAT/Cora ";
  }
  if (opt.type == OptionType::kSwitch) {
    args.push_back(value == "1" ? opt.flag() : "--no-" + opt.flag().substr(2));
  } else {
    args.insert(args.end(), {opt.flag(), value});
  }
  line += opt.key + "=" + value;

  const RunRequest cli = from_cli(args);
  const RunRequest manifest = from_manifest(line);
  EXPECT_EQ(opt.show(cli), value);
  EXPECT_EQ(describe(cli), describe(manifest));
}

TEST_P(RunOptionTable, FlagAndManifestKeyRejectAlike) {
  const RunOption& opt = entry(GetParam());
  const std::string bad = invalid_value(opt);
  const std::string line = "benchmark=GAT/Cora " + opt.key + "=" + bad;
  if (opt.type == OptionType::kSwitch) {
    // Switch flags take no value; the manifest still checks its 0 | 1.
    EXPECT_EQ(rejection([&] { return from_manifest(line); }, opt.key),
              "must be 0 or 1, got '2'");
    return;
  }
  const std::string cli =
      rejection([&] { return from_cli({opt.flag(), bad}); }, opt.flag());
  const std::string manifest =
      rejection([&] { return from_manifest(line); }, opt.key);
  EXPECT_NE(cli, "(accepted)");
  EXPECT_EQ(cli, manifest);
}

TEST_P(RunOptionTable, ListedInEveryToolsHelp) {
  const RunOption& opt = entry(GetParam());
  for (const std::string tool : {GNNA_GNNASIM, GNNA_GNNAVERIFY, GNNA_GNNAOPT}) {
    EXPECT_NE(output_of(tool + " --help").find("  " + opt.flag() + " "),
              std::string::npos)
        << tool;
  }
  EXPECT_NE(output_of(std::string(GNNA_GNNASIM) + " --help-batch")
                .find("  " + opt.key + "="),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllOptions, RunOptionTable,
    ::testing::Range<std::size_t>(0, run_options().size()),
    [](const auto& info) { return run_options()[info.param].key; });

}  // namespace
}  // namespace gnna::sim
