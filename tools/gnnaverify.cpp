// gnnaverify — lint compiled accelerator programs without simulating.
//
// Runs the accel::verify static-analysis pass (the same one `gnnasim`
// applies before the timing model) over benchmarks or whole batch
// manifests, printing every diagnostic with its stable lint code. Exit
// status: 0 = clean, 1 = lint errors (or warnings under --werror),
// 2 = usage/manifest errors.
//
//   gnnaverify --all                      # lint every Table VII benchmark
//   gnnaverify --benchmark GCN/Cora       # lint one benchmark
//   gnnaverify runs.txt sweeps.txt        # lint every manifest line
//   gnnaverify prog.gnna                  # lint a GNNA-IR program file
//   gnnaverify --bind GCN/Cora prog.gnna  # ... with topology checks too
//   gnnaverify --fix --all                # suggest config fixes for GV2xx
//   gnnaverify --json out.json --all      # machine-readable diagnostics
//   gnnaverify --list-codes               # print the lint-code catalog
//
// Positional files ending in ".gnna" are parsed as GNNA-IR programs and
// linted directly; parse errors count as lint errors. Without --bind the
// dataset-dependent checks are skipped and GV107 reports that (which
// --werror escalates), so CI pipelines should bind the matching benchmark.
//
// --fix runs the static analytic model's search (accel/analysis.hpp) over
// every program that fired a GV2xx performance lint and prints, per code,
// a minimal TileParams/MemParams/split/partition adjustment plus the
// manifest snippet that applies it. Every suggestion is re-linted before
// printing; "verified" means the patched config no longer fires the code.

#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "accel/analysis.hpp"
#include "accel/ir.hpp"
#include "accel/verify.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"

namespace {

using namespace gnna;

void usage(std::ostream& os) {
  os << "usage: gnnaverify [options] [manifest|file.gnna ...]\n"
        "  manifest...           batch manifests (gnnasim --batch format);\n"
        "                        every line's program is linted, none are\n"
        "                        simulated\n"
        "  file.gnna...          GNNA-IR program files, parsed and linted\n"
        "                        directly (parse errors are lint errors)\n"
        "  --bind <benchmark>    dataset the .gnna files are checked\n"
        "                        against; without it the topology checks\n"
        "                        are skipped and GV107 warns\n"
        "  --all                 lint every built-in benchmark\n"
        "  --fix                 for each GV2xx perf lint, search a minimal\n"
        "                        config adjustment that clears it and print\n"
        "                        the patched manifest snippet\n"
        "  --json <file>         also write all diagnostics (code,\n"
        "                        severity, phase, message) as JSON\n"
        "  --werror              treat warnings as errors\n"
        "  --quiet               print only programs with findings\n"
        "  --list-codes          print the lint-code catalog and exit\n"
        "  --help                this text\n"
        "run options (gnnasim's; they set the run each program is checked\n"
        "for and default every manifest line; --benchmark may repeat; a\n"
        "manifest line may still carry the simulation-only keys, for\n"
        "gnnasim):\n";
  sim::print_run_options(os, /*manifest_keys=*/false, /*simulates=*/false);
}

void print_codes(std::ostream& os) {
  // Grouped by family, pulled from the same table verify.cpp checks
  // against, so the catalog cannot drift from the implementation.
  for (const accel::LintFamily fam :
       {accel::LintFamily::kError, accel::LintFamily::kWarning,
        accel::LintFamily::kPerf}) {
    os << accel::lint_family_name(fam) << ":\n";
    for (const auto& e : accel::lint_code_table()) {
      if (accel::lint_code_family(e.code) != fam) continue;
      os << "  " << e.name << "  "
         << (e.severity == accel::Severity::kError ? "error  " : "warning")
         << "  " << e.summary << '\n';
    }
  }
}

/// One linted program's findings, collected for --json / --fix output.
struct LintedProgram {
  std::string name;  // request key or file path
  accel::VerifyReport report;
  std::vector<accel::FixSuggestion> fixes;
  std::string failure;  // compile/parse error, if any
};

using sim::json_escape;

/// Machine-readable diagnostics: the CI verify-programs artifact. v2
/// records the --werror promotion state per diagnostic ("promoted" +
/// "effective_severity"), so the artifact distinguishes a warning the run
/// escalated from a native error.
void write_json(std::ostream& os, const std::vector<LintedProgram>& linted,
                std::size_t errors, std::size_t warnings, bool werror) {
  os << "{\n  \"version\": 2,\n  \"werror\": " << (werror ? "true" : "false")
     << ",\n  \"programs\": [";
  for (std::size_t i = 0; i < linted.size(); ++i) {
    const LintedProgram& lp = linted[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(lp.name) << "\"";
    if (!lp.failure.empty()) {
      os << ", \"failure\": \"" << json_escape(lp.failure) << "\"";
    }
    os << ", \"diagnostics\": [";
    for (std::size_t d = 0; d < lp.report.diagnostics.size(); ++d) {
      const auto& diag = lp.report.diagnostics[d];
      const bool native_error = diag.severity == accel::Severity::kError;
      const bool promoted = werror && !native_error;
      os << (d == 0 ? "\n" : ",\n") << "      {\"code\": \""
         << accel::lint_code_name(diag.code) << "\", \"severity\": \""
         << (native_error ? "error" : "warning")
         << "\", \"effective_severity\": \""
         << (native_error || promoted ? "error" : "warning")
         << "\", \"promoted\": " << (promoted ? "true" : "false")
         << ", \"family\": \""
         << accel::lint_family_name(accel::lint_code_family(diag.code))
         << "\", \"phase\": " << diag.phase << ", \"phase_name\": \""
         << json_escape(diag.phase_name) << "\", \"message\": \""
         << json_escape(diag.message) << "\"}";
    }
    os << (lp.report.diagnostics.empty() ? "]" : "\n    ]");
    if (!lp.fixes.empty()) {
      os << ", \"fixes\": [";
      for (std::size_t f = 0; f < lp.fixes.size(); ++f) {
        const auto& fix = lp.fixes[f];
        os << (f == 0 ? "\n" : ",\n") << "      {\"code\": \""
           << accel::lint_code_name(fix.code) << "\", \"verified\": "
           << (fix.verified ? "true" : "false") << ", \"description\": \""
           << json_escape(fix.description) << "\", \"manifest_snippet\": \""
           << json_escape(fix.manifest_snippet) << "\"}";
      }
      os << "\n    ]";
    }
    os << "}";
  }
  os << (linted.empty() ? "]" : "\n  ]") << ",\n  \"errors\": " << errors
     << ",\n  \"warnings\": " << warnings << "\n}\n";
}

/// Print --fix suggestions for one program.
void print_fixes(std::ostream& os, const LintedProgram& lp) {
  for (const auto& fix : lp.fixes) {
    os << "  fix " << accel::lint_code_name(fix.code)
       << (fix.verified ? " (verified)" : " (NOT verified)") << ": "
       << fix.description << '\n';
    if (!fix.manifest_snippet.empty()) os << "    manifest:\n";
    std::istringstream lines(fix.manifest_snippet);
    for (std::string line; std::getline(lines, line);) {
      os << "      " << line << '\n';
    }
  }
}

[[nodiscard]] bool fired_perf_lint(const accel::VerifyReport& report) {
  for (const auto& d : report.diagnostics) {
    if (accel::lint_code_family(d.code) == accel::LintFamily::kPerf) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> manifests;
  std::vector<std::string> program_files;
  std::vector<gnn::Benchmark> benchmarks;
  std::optional<gnn::Benchmark> bind;
  sim::RunOptions options;
  bool werror = false;
  bool quiet = false;
  bool fix = false;
  std::string json_path;

  // Collect every request to lint: the flags' run options are the base
  // request for --benchmark/--all and every manifest line's defaults.
  std::vector<sim::RunRequest> requests;
  sim::RunRequest base;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of a tool-local flag; exits 2 when it is missing.
      auto next = [&](const char* what) -> std::string {
        if (i + 1 >= argc || argv[i + 1][0] == '\0') {
          throw std::invalid_argument(arg + " needs " + what);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      }
      if (arg == "--list-codes") {
        print_codes(std::cout);
        return 0;
      }
      if (options.parse_flag(argc, argv, i, /*simulates=*/false)) {
        // Each --benchmark names one more program to lint.
        if (arg == "--benchmark") {
          benchmarks.push_back(
              *sim::benchmark_by_name(*options.value("benchmark")));
          options.erase("benchmark");
        }
      } else if (arg == "--bind") {
        bind = sim::benchmark_by_name(next("a benchmark name"));
        if (!bind) {
          throw std::invalid_argument(
              "--bind needs a known benchmark name (try gnnasim --list)");
        }
      } else if (arg == "--all") {
        benchmarks.insert(benchmarks.end(), std::begin(gnn::kAllBenchmarks),
                          std::end(gnn::kAllBenchmarks));
      } else if (arg == "--fix") {
        fix = true;
      } else if (arg == "--json") {
        json_path = next("a file path");
      } else if (arg == "--werror") {
        werror = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (!arg.empty() && arg.front() == '-') {
        std::cerr << "error: unknown option " << arg << '\n';
        usage(std::cerr);
        return 2;
      } else if (arg.ends_with(accel::ir::kIrExtension)) {
        program_files.push_back(arg);
      } else {
        manifests.push_back(arg);
      }
    }
    options.apply(base);
    for (const std::string& path : manifests) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "error: cannot open manifest " << path << '\n';
        return 2;
      }
      auto reqs = sim::parse_batch_manifest(in, sim::RunRequest{}, path,
                                            options);
      requests.insert(requests.end(), reqs.begin(), reqs.end());
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  for (const gnn::Benchmark b : benchmarks) {
    sim::RunRequest req = base;
    req.benchmark = b;
    requests.push_back(req);
  }
  if (requests.empty() && program_files.empty()) {
    usage(std::cerr);
    return 2;
  }

  sim::Session& session = sim::Session::global();
  std::set<std::string> seen;
  std::vector<LintedProgram> linted;
  std::size_t programs = 0, errors = 0, warnings = 0;

  // `config` is the run's effective configuration (thread and clock
  // overrides applied).
  const auto lint_one = [&](std::string name,
                            const accel::CompiledProgram& prog,
                            const graph::Dataset* ds,
                            const accel::AcceleratorConfig& config,
                            graph::PartitionPolicy part) {
    LintedProgram lp;
    lp.name = std::move(name);
    lp.report =
        accel::verify_program(prog, config.tile_params, ds, &config, part);
    if (fix && fired_perf_lint(lp.report)) {
      accel::AnalysisOptions opt;
      opt.dataset = ds;
      opt.partition = part;
      lp.fixes = accel::suggest_fixes(prog, config, opt);
    }
    ++programs;
    errors += lp.report.num_errors();
    warnings += lp.report.num_warnings();
    if (!quiet || !lp.report.diagnostics.empty()) {
      lp.report.print(std::cout);
      print_fixes(std::cout, lp);
    }
    linted.push_back(std::move(lp));
  };

  // A program that never gets linted (the compiler or the IR parser
  // rejects it) is a lint error too.
  const auto fail_one = [&](std::string name, const std::exception& e) {
    LintedProgram lp;
    lp.name = std::move(name);
    lp.failure = e.what();
    linted.push_back(std::move(lp));
    ++programs;
    ++errors;
  };

  // Lines that describe alike (repeat=N, duplicates) lint once.
  for (const sim::RunRequest& req : requests) {
    const std::string name = sim::describe(req);
    if (!seen.insert(name).second) continue;
    sim::Session::Resolved resolved;
    try {
      resolved = session.resolve(req);
    } catch (const std::exception& e) {
      std::cerr << name << ": compile failed: " << e.what() << '\n';
      fail_one(name, e);
      continue;
    }
    lint_one(name, *resolved.program, resolved.dataset.get(),
             req.effective_config(), req.partition);
  }

  // Direct GNNA-IR files: parse, then lint (against the --bind dataset's
  // topology if given).
  std::shared_ptr<const graph::Dataset> bound;
  if (bind && !program_files.empty()) {
    bound = session.dataset(gnn::benchmark_dataset(*bind), base.seed);
  }
  const accel::AcceleratorConfig file_config = base.effective_config();
  for (const std::string& path : program_files) {
    accel::CompiledProgram prog;
    try {
      prog = accel::ir::load_file(path);
    } catch (const std::exception& e) {
      std::cout << path << ": parse failed: " << e.what() << '\n';
      fail_one(path, e);
      continue;
    }
    lint_one(path, prog, bound.get(), file_config, base.partition);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << '\n';
      return 2;
    }
    write_json(out, linted, errors, warnings, werror);
  }

  std::cout << "gnnaverify: " << programs << " program(s), " << errors
            << " error(s), " << warnings << " warning(s)\n";
  if (errors > 0) return 1;
  if (werror && warnings > 0) return 1;
  return 0;
}
