// gnnaopt — optimize GNNA-IR programs, gated by translation validation.
//
// Runs the accel::opt pass pipeline (fuse-phases, dedup-contribs,
// dead-regions, pack-regions) over a .gnna program file, statically
// proving every changing pass equivalent to its input with the
// accel::validate obligations, and writes the optimized program only when
// every proof succeeds. Exit status: 0 = optimized (or already optimal)
// and proven, 1 = refused (unproven rewrite or parse error), 2 = usage.
//
//   gnnaopt prog.gnna                          # optimize in place of stem
//   gnnaopt prog.gnna -o out.gnna              # explicit output
//   gnnaopt --bind GCN/Cora prog.gnna          # + topology obligations
//   gnnaopt --passes dedup-contribs prog.gnna  # pass subset
//   gnnaopt --report report.txt prog.gnna      # write the proof report
//   gnnaopt --list-passes                      # the pass catalog
//
// The validation report prints every obligation of every changing pass
// plus a final end-to-end proof of the whole pipeline (original vs.
// emitted program), so the artifact documents *why* the rewrite is safe.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/ir.hpp"
#include "accel/opt.hpp"
#include "accel/validate.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"

namespace {

using namespace gnna;

void usage(std::ostream& os) {
  os << "usage: gnnaopt [options] <file.gnna>\n"
        "  -o <file>             output path (default: <input stem>"
        ".opt.gnna)\n"
        "  --bind <benchmark>    dataset the program runs against; enables\n"
        "                        the topology-dependent proof obligations\n"
        "                        (walk-tree recomputation, GV012)\n"
        "  --passes <a,b,...>    pass subset, run in the given order\n"
        "                        (default: the full pipeline)\n"
        "  --report <file>       also write the validation report here\n"
        "  --list-passes         print the pass catalog\n"
        "  --quiet               only print errors\n"
        "  --help                this text\n"
        "run options (gnnasim's; the effective config bounds scratchpad\n"
        "footprints for fusion and the cycle-bound obligation, and --seed\n"
        "picks the --bind dataset):\n";
  sim::print_run_options(os, /*manifest_keys=*/false, /*simulates=*/false);
}

std::vector<std::string> split_passes(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string report_path;
  std::optional<gnn::Benchmark> bind;
  sim::RunOptions options;
  std::vector<std::string> passes;
  bool quiet = false;

  sim::RunRequest run;
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
      if (arg == "--list-passes") {
        for (const auto& p : accel::opt::pass_catalog()) {
          std::cout << p.name << "\n    " << p.summary << "\n";
        }
        return 0;
      }
      if (arg == "-o") {
        output = next("a file path");
      } else if (arg == "--bind") {
        bind = sim::benchmark_by_name(next("a benchmark name"));
        if (!bind) {
          throw std::invalid_argument(
              "--bind needs a known benchmark name (try gnnasim --list)");
        }
      } else if (options.parse_flag(argc, argv, i, /*simulates=*/false)) {
        continue;
      } else if (arg == "--passes") {
        passes = split_passes(next("a comma-separated list"));
      } else if (arg == "--report") {
        report_path = next("a file path");
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "error: unknown flag '" << arg << "'\n";
        usage(std::cerr);
        return 2;
      } else {
        if (!input.empty()) {
          std::cerr << "error: exactly one input .gnna file\n";
          return 2;
        }
        input = arg;
      }
    }
    options.apply(run);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  const accel::AcceleratorConfig cfg = run.effective_config();
  if (input.empty()) {
    std::cerr << "error: no input file\n";
    usage(std::cerr);
    return 2;
  }
  if (output.empty()) {
    const std::string ext = accel::ir::kIrExtension;
    output = (input.ends_with(ext) && input.size() > ext.size()
                  ? input.substr(0, input.size() - ext.size())
                  : input) +
             ".opt" + ext;
  }

  accel::CompiledProgram prog;
  try {
    prog = accel::ir::load_file(input);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: cannot load '" << input << "': " << e.what()
              << "\n";
    return 1;
  }

  std::shared_ptr<const graph::Dataset> ds;
  if (bind) {
    ds = sim::Session::global().dataset(gnn::benchmark_dataset(*bind),
                                       run.seed);
  }

  accel::opt::OptimizeOptions oo;
  oo.dataset = ds.get();
  oo.config = &cfg;
  oo.passes = passes;

  accel::opt::OptimizeResult res;
  try {
    res = accel::opt::optimize_program(prog, oo);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: " << e.what() << "\n";
    return 2;
  }

  std::ostringstream report;
  const auto indented = [&](const std::string& text) {
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      report << "  " << line << "\n";
    }
  };
  const auto refuse = [&](const std::string& why) {
    report << "REFUSED: " << why << "\n";
    if (!report_path.empty()) std::ofstream(report_path) << report.str();
    std::cerr << report.str()
              << "gnnaopt: refusing to emit an unproven program\n";
    return 1;
  };
  report << "program: " << prog.name << "\n"
         << "input:   " << input << " (hash "
         << accel::ir::hash_hex(accel::ir::content_hash(prog)) << ")\n";
  for (const auto& po : res.passes) {
    report << "pass " << po.pass << ": "
           << (po.changed ? "changed" : "no change") << " — " << po.summary
           << "\n";
    if (po.changed) indented(po.validation.to_string());
  }
  if (!res.validated) return refuse(res.failure);

  // End-to-end proof of the whole pipeline: original vs. emitted program.
  // Stepwise proofs already gate each pass; this documents the composed
  // rewrite in one report block (and would catch a non-composing chain).
  accel::validate::ValidationOptions vo;
  vo.dataset = ds.get();
  vo.config = &cfg;
  const auto whole =
      accel::validate::validate_transform(prog, res.program, vo);
  report << "end-to-end:\n";
  indented(whole.to_string());
  if (!whole.equivalent) return refuse("end-to-end proof failed");

  try {
    accel::ir::save_file(res.program, output);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: cannot write '" << output << "': " << e.what()
              << "\n";
    return 1;
  }
  report << "output:  " << output << " (hash "
         << accel::ir::hash_hex(accel::ir::content_hash(res.program)) << ", "
         << (res.changed() ? "optimized" : "already optimal") << ")\n";

  if (!report_path.empty()) {
    std::ofstream rf(report_path);
    if (!rf) {
      std::cerr << "gnnaopt: cannot write report '" << report_path << "'\n";
      return 1;
    }
    rf << report.str();
  }
  if (!quiet) std::cout << report.str();
  return 0;
}
