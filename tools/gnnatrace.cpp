// gnnatrace — offline profile viewer and A/B regression differ.
//
//   gnnatrace report <run.json> [--run N] [--top N] [--collapsed]
//   gnnatrace hotspots <run.json> [--run N] [--top N] [--csv]
//   gnnatrace diff <a.json> <b.json> [--run N] [--threshold PCT]
//                  [--imbalance-threshold PCT] [--top N]
//
// Inputs are `gnnasim --json` outputs (a single run object or a batch
// array; `--run` selects the array element). `report` prints the embedded
// per-phase/per-unit profile — or, with --collapsed, the GPE flame rollup
// in collapsed-stack format ("a;b;c N", one line per path, feedable to
// flamegraph.pl and friends). `hotspots` renders the attribution block
// (`gnnasim --attribution`): the hottest rows of the per-vertex table and a
// per-tile heatmap of busy/flit load, or machine-readable CSV rows with
// --csv. `diff` lines two runs up phase by phase and unit by unit, prints
// absolute and percentage deltas, flags phases that exist in only one run,
// and exits 1 when the total-cycle regression exceeds `--threshold`, a
// phase appears/disappears, or (when both runs carry attribution and
// --imbalance-threshold is given) the per-tile busy imbalance
// (busy max/mean) regresses by more than that percentage — the CI gates.
//
// Exit codes: 0 ok, 1 regression beyond threshold, 2 usage/parse error.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/analysis.hpp"
#include "common/table.hpp"
#include "sim/options.hpp"
#include "sim/stats_json.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace {

using gnna::Table;
using gnna::format_double;
using gnna::accel::RunStats;
using gnna::trace::AttributionReport;
using gnna::trace::Category;
using gnna::trace::FlameNode;
using gnna::trace::kNumCategories;

void usage(std::ostream& os) {
  os << "usage: gnnatrace report <run.json> [--run N] [--top N]"
        " [--collapsed] [--model-tolerance PCT]\n"
        "       gnnatrace hotspots <run.json> [--run N] [--top N] [--csv]\n"
        "       gnnatrace diff <a.json> <b.json> [--run N] [--threshold PCT]"
        " [--imbalance-threshold PCT] [--top N]\n"
        "\n"
        "Reads gnnasim --json output (single run or batch array).\n"
        "  --run N         batch array element to use (default 0)\n"
        "  --top N         flame paths in report / hotspot rows in hotspots\n"
        "                  (default 12)\n"
        "  --collapsed     report: print the flame rollup as collapsed\n"
        "                  stacks (`a;b;c N', flamegraph.pl input) instead\n"
        "                  of tables\n"
        "  --csv           hotspots: machine-readable CSV (one `tile' row\n"
        "                  per tile, one `vertex' row per hotspot) instead\n"
        "                  of tables\n"
        "  --threshold PCT diff: exit 1 if total cycles regress by more\n"
        "                  than PCT percent, or if any phase exists in\n"
        "                  only one run (default: report only)\n"
        "  --imbalance-threshold PCT\n"
        "                  diff: exit 1 if per-tile busy imbalance (busy\n"
        "                  max/mean from the attribution block) regresses\n"
        "                  by more than PCT percent (needs attribution in\n"
        "                  both runs)\n"
        "  --model-tolerance PCT\n"
        "                  report: gate the static model (the v6\n"
        "                  \"static_model\" block) against the measurement:\n"
        "                  exit 1 if the analytic lower bound exceeds the\n"
        "                  measured cycles (model unsound) or undershoots\n"
        "                  them by more than PCT percent (model too loose)\n";
}

/// Run `run_index` of the stats JSON at `path` (a single run object is a
/// batch of one).
RunStats select_run(const std::string& path, std::size_t run_index) {
  std::vector<gnna::sim::RunResult> runs = gnna::sim::read_stats_json(path);
  if (run_index >= runs.size()) {
    throw std::runtime_error(path + ": batch has " +
                             std::to_string(runs.size()) + " runs, --run " +
                             std::to_string(run_index) + " is out of range");
  }
  if (!runs[run_index].ok()) {
    throw std::runtime_error(path + ": run failed: " + runs[run_index].error);
  }
  return std::move(runs[run_index].stats);
}

/// Phase spans to diff: the profile's when present (includes "(outside)"
/// and marker-derived spans), else the plain per-phase stats.
std::vector<std::pair<std::string, double>> diffable_phases(
    const RunStats& run) {
  std::vector<std::pair<std::string, double>> out;
  if (!run.profile) {
    for (const auto& ph : run.phases) {
      out.emplace_back(ph.name, static_cast<double>(ph.cycles));
    }
    return out;
  }
  for (const auto& ph : run.profile->phases) {
    out.emplace_back(ph.name, ph.cycles());
  }
  return out;
}

std::string delta_cell(double a, double b) {
  const double d = b - a;
  std::string s = (d >= 0 ? "+" : "") + format_double(d, 0);
  return s;
}

std::string pct_cell(double a, double b) {
  if (a == 0.0) return b == 0.0 ? "0.0%" : "n/a";
  const double pct = (b - a) / a * 100.0;
  return (pct >= 0 ? "+" : "") + format_double(pct, 2) + "%";
}

/// Collapsed-stack emission: one `a;b;c N` line per merged flame path,
/// weighted by self cycles (the standard flamegraph.pl input, where the
/// tools re-derive inclusive totals by summing descendants).
int cmd_report_collapsed(const std::string& path, const RunStats& run) {
  if (!run.profile) {
    std::cerr << "error: " << path << " has no embedded profile "
                 "(rerun gnnasim with --profile)\n";
    return 2;
  }
  for (const FlameNode& f : run.profile->merged_flame()) {
    std::string path = f.path;
    for (char& c : path) {
      if (c == '/') c = ';';
    }
    const auto weight = static_cast<std::uint64_t>(std::llround(f.self));
    std::cout << path << ' ' << weight << '\n';
  }
  return 0;
}

/// Prediction-vs-measurement section: the static model's per-phase lower
/// bounds lined up (by name and occurrence) against the measured spans.
/// Returns the gate result when `tolerance` is set: 1 if the bound exceeds
/// the measurement (model unsound) or undershoots it by more than
/// `tolerance` percent (model too loose), else 0.
int print_static_model(const RunStats& run, std::optional<double> tolerance) {
  const gnna::accel::ProgramAnalysis& sm = *run.static_model;
  const double cycles = static_cast<double>(run.cycles);
  std::cout << "\nstatic model (analytic lower bound, accel/analysis.hpp):\n";
  std::map<std::string, std::vector<double>> measured_by_name;
  for (const auto& ph : run.phases) {
    measured_by_name[ph.name].push_back(static_cast<double>(ph.cycles));
  }
  std::map<std::string, std::size_t> seen;
  Table t({"Phase", "Bound", "Measured", "Bound %", "Bottleneck",
           "Imbalance"});
  for (const gnna::accel::PhaseModel& mp : sm.phases) {
    const std::size_t occurrence = seen[mp.name]++;
    const auto it = measured_by_name.find(mp.name);
    const double measured = (it != measured_by_name.end() &&
                             occurrence < it->second.size())
                                ? it->second[occurrence]
                                : 0.0;
    t.add_row({mp.name, format_double(mp.bound_cycles, 0),
               measured > 0.0 ? format_double(measured, 0) : "-",
               measured > 0.0
                   ? format_double(mp.bound_cycles / measured * 100.0, 1) + "%"
                   : "-",
               mp.bottleneck,
               mp.imbalance > 0.0 ? format_double(mp.imbalance, 3) : "-"});
  }
  const double ratio =
      cycles > 0.0 ? sm.bound_cycles / cycles * 100.0 : 0.0;
  t.add_row({"total", format_double(sm.bound_cycles, 0),
             format_double(cycles, 0), format_double(ratio, 1) + "%",
             "", ""});
  t.print(std::cout);

  if (!tolerance) return 0;
  if (sm.bound_cycles > cycles) {
    std::cout << "\nMODEL UNSOUND: static lower bound "
              << format_double(sm.bound_cycles, 0)
              << " exceeds measured cycles " << format_double(cycles, 0)
              << "\n";
    return 1;
  }
  const double floor = (1.0 - *tolerance / 100.0) * cycles;
  if (sm.bound_cycles < floor) {
    std::cout << "\nMODEL TOO LOOSE: static lower bound "
              << format_double(sm.bound_cycles, 0) << " is "
              << format_double(100.0 - ratio, 1)
              << "% below measured cycles, beyond tolerance "
              << format_double(*tolerance, 2) << "%\n";
    return 1;
  }
  std::cout << "\nok: static lower bound at " << format_double(ratio, 1)
            << "% of measured cycles, within tolerance "
            << format_double(*tolerance, 2) << "%\n";
  return 0;
}

int cmd_report(const std::string& path, const RunStats& run,
               std::size_t top_n, std::optional<double> model_tolerance) {
  std::cout << "run: " << run.program_name << " on " << run.config_name
            << " (" << run.cycles << " cycles)\n";
  if (model_tolerance && !run.static_model) {
    std::cerr << "error: " << path << " has no static_model block "
                 "(rerun gnnasim with schema v6 or newer)\n";
    return 2;
  }
  if (!run.profile) {
    std::cout << "no embedded profile (rerun gnnasim with --profile); "
                 "showing phase totals only\n\n";
    Table t({"Phase", "Cycles"});
    for (const auto& ph : run.phases) {
      t.add_row({ph.name, std::to_string(ph.cycles)});
    }
    t.print(std::cout);
  } else {
    std::cout << '\n';
    gnna::trace::print_profile(std::cout, *run.profile, top_n);
  }
  return run.static_model ? print_static_model(run, model_tolerance) : 0;
}

/// ASCII heat bar: `value / max` of the bar filled with '#'.
std::string heat_bar(double value, double max, std::size_t width = 20) {
  std::size_t fill = 0;
  if (max > 0.0 && value > 0.0) {
    fill = static_cast<std::size_t>(
        std::llround(value / max * static_cast<double>(width)));
    if (fill == 0) fill = 1;  // nonzero load is always visible
    if (fill > width) fill = width;
  }
  return std::string(fill, '#') + std::string(width - fill, '.');
}

int cmd_hotspots(const std::string& path, const RunStats& run,
                 std::size_t top_n, bool csv) {
  if (!run.attribution) {
    std::cerr << "error: " << path << " has no attribution block "
                 "(rerun gnnasim with --attribution)\n";
    return 2;
  }
  const AttributionReport& ar = *run.attribution;
  if (csv) {
    // One flat table; the first column tells tile rows from vertex rows.
    std::cout << "kind,id,busy,agg_busy,tasks,flits,flit_hops,bytes\n";
    for (std::size_t i = 0; i < ar.tiles.size(); ++i) {
      const auto& t = ar.tiles[i];
      std::cout << "tile," << i << ',' << format_double(t.busy, 0) << ','
                << format_double(t.agg_busy, 0) << ',' << t.tasks << ','
                << t.flits << ',' << t.flit_hops << ',' << t.bytes << '\n';
    }
    std::size_t rows = 0;
    for (const auto& v : ar.vertices) {
      if (rows++ >= top_n) break;
      std::cout << "vertex," << v.vertex << ',' << format_double(v.busy, 0)
                << ',' << format_double(v.agg_busy, 0) << ',' << v.tasks
                << ',' << v.flits << ",," << v.bytes << '\n';
    }
    return 0;
  }

  std::cout << "run: " << run.program_name << " on " << run.config_name
            << " (" << run.cycles << " cycles)\n"
            << "attribution: span " << format_double(ar.span, 0)
            << " cycles, GPE busy " << format_double(ar.total_busy, 0)
            << ", busy max/mean " << format_double(ar.busy_max_mean(), 3)
            << ", flit gini " << format_double(ar.flit_gini(), 3) << ", "
            << ar.unattributed_flits << " unattributed flit(s)\n\n";

  double max_busy = 0.0;
  std::uint64_t max_flits = 0;
  for (const auto& t : ar.tiles) {
    max_busy = std::max(max_busy, t.busy);
    max_flits = std::max(max_flits, t.flits);
  }
  std::cout << "per-tile load (heat bars scaled to the hottest tile):\n";
  Table tiles({"Tile", "Busy", "Heat", "AGG busy", "Tasks", "Flits",
               "Flit heat", "Flit-hops", "Bytes"});
  for (std::size_t i = 0; i < ar.tiles.size(); ++i) {
    const auto& t = ar.tiles[i];
    tiles.add_row({std::to_string(i), format_double(t.busy, 0),
                   heat_bar(t.busy, max_busy), format_double(t.agg_busy, 0),
                   std::to_string(t.tasks), std::to_string(t.flits),
                   heat_bar(static_cast<double>(t.flits),
                            static_cast<double>(max_flits)),
                   std::to_string(t.flit_hops), std::to_string(t.bytes)});
  }
  tiles.print(std::cout);

  const std::size_t n = std::min(top_n, ar.vertices.size());
  std::cout << "\nvertex hotspots (top " << n << " of " << ar.vertices.size()
            << " charged):\n";
  Table verts({"Vertex", "Busy", "AGG busy", "Tasks", "Flits", "Bytes"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& v = ar.vertices[i];
    verts.add_row({std::to_string(v.vertex),
                   format_double(v.busy, 0), format_double(v.agg_busy, 0),
                   std::to_string(v.tasks), std::to_string(v.flits),
                   std::to_string(v.bytes)});
  }
  verts.print(std::cout);
  return 0;
}

int cmd_diff(const std::string& path_a, const RunStats& a,
             const std::string& path_b, const RunStats& b,
             std::optional<double> threshold,
             std::optional<double> imbalance_threshold) {
  std::cout << "A: " << path_a << " (" << a.program_name << " on "
            << a.config_name << ", " << a.cycles << " cycles)\n"
            << "B: " << path_b << " (" << b.program_name << " on "
            << b.config_name << ", " << b.cycles << " cycles)\n\n";
  const auto cycles_a = static_cast<double>(a.cycles);
  const auto cycles_b = static_cast<double>(b.cycles);

  // Per-phase cycle deltas, matched by (name, occurrence) so repeated
  // phase names (one per layer) line up positionally.
  const auto pa = diffable_phases(a);
  const auto pb = diffable_phases(b);
  std::map<std::string, std::vector<double>> b_by_name;
  for (const auto& [name, cycles] : pb) b_by_name[name].push_back(cycles);
  std::map<std::string, std::size_t> seen;
  std::size_t one_sided = 0;
  Table phases({"Phase", "A cycles", "B cycles", "Delta", "Delta %"});
  for (const auto& [name, cycles_a] : pa) {
    const std::size_t occurrence = seen[name]++;
    const auto it = b_by_name.find(name);
    if (it == b_by_name.end() || occurrence >= it->second.size()) {
      phases.add_row({name + " (A only)", format_double(cycles_a, 0), "-",
                      "-", "-"});
      ++one_sided;
      continue;
    }
    const double cycles_b = it->second[occurrence];
    phases.add_row({name, format_double(cycles_a, 0),
                    format_double(cycles_b, 0), delta_cell(cycles_a, cycles_b),
                    pct_cell(cycles_a, cycles_b)});
  }
  for (const auto& [name, cycles_list] : b_by_name) {
    const std::size_t matched = seen.count(name) != 0U ? seen[name] : 0;
    for (std::size_t i = matched; i < cycles_list.size(); ++i) {
      phases.add_row({name + " (B only)", "-",
                      format_double(cycles_list[i], 0), "-", "-"});
      ++one_sided;
    }
  }
  phases.add_row({"total", std::to_string(a.cycles),
                  std::to_string(b.cycles), delta_cell(cycles_a, cycles_b),
                  pct_cell(cycles_a, cycles_b)});
  phases.print(std::cout);

  // Per-unit-category busy deltas (whole-run sums), when both runs carry
  // a profile.
  if (a.profile && b.profile) {
    std::cout << "\nPer-unit busy cycles (duration-event sums; gpe/noc "
                 "overlap across units):\n";
    Table units({"Unit", "A busy", "B busy", "Delta", "Delta %"});
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      const auto cat = static_cast<Category>(c);
      const double ba = a.profile->busy_total(cat);
      const double bb = b.profile->busy_total(cat);
      if (ba == 0.0 && bb == 0.0) continue;
      units.add_row({gnna::trace::category_name(cat), format_double(ba, 0),
                     format_double(bb, 0), delta_cell(ba, bb),
                     pct_cell(ba, bb)});
    }
    units.print(std::cout);
  }

  // Per-tile busy-imbalance comparison, when both runs carry attribution.
  const bool both_attr = a.attribution && b.attribution;
  double imb_a = 0.0, imb_b = 0.0;
  if (both_attr) {
    imb_a = a.attribution->busy_max_mean();
    imb_b = b.attribution->busy_max_mean();
    std::cout << "\nPer-tile imbalance (attribution):\n";
    Table imb({"Metric", "A", "B", "Delta %"});
    imb.add_row({"busy max/mean", format_double(imb_a, 3),
                 format_double(imb_b, 3), pct_cell(imb_a, imb_b)});
    const double gini_a = a.attribution->flit_gini();
    const double gini_b = b.attribution->flit_gini();
    imb.add_row({"flit gini", format_double(gini_a, 3),
                 format_double(gini_b, 3), pct_cell(gini_a, gini_b)});
    imb.print(std::cout);
  }

  // Prediction vs measurement, for each run that carries a static model:
  // how tight the analytic lower bound is on each side of the A/B pair.
  if (a.static_model || b.static_model) {
    std::cout << "\nStatic model (analytic lower bound vs measured):\n";
    Table model({"Run", "Bound", "Measured", "Bound %"});
    const auto add = [&model](const char* label, const RunStats& r) {
      if (!r.static_model) {
        model.add_row({label, "-", std::to_string(r.cycles), "-"});
        return;
      }
      const double bound = r.static_model->bound_cycles;
      const auto cycles = static_cast<double>(r.cycles);
      model.add_row({label, format_double(bound, 0), std::to_string(r.cycles),
                     cycles > 0.0
                         ? format_double(bound / cycles * 100.0, 1) + "%"
                         : "-"});
    };
    add("A", a);
    add("B", b);
    model.print(std::cout);
  }

  const double pct =
      cycles_a != 0.0 ? (cycles_b - cycles_a) / cycles_a * 100.0 : 0.0;
  if (imbalance_threshold) {
    if (!both_attr) {
      std::cerr << "error: --imbalance-threshold needs an attribution block "
                   "in both runs (rerun gnnasim with --attribution)\n";
      return 2;
    }
    const double ipct =
        imb_a != 0.0 ? (imb_b - imb_a) / imb_a * 100.0 : 0.0;
    if (ipct > *imbalance_threshold) {
      std::cout << "\nREGRESSION: busy max/mean "
                << format_double(imb_a, 3) << " -> " << format_double(imb_b, 3)
                << " (" << (ipct >= 0 ? "+" : "") << format_double(ipct, 2)
                << "%) exceeds imbalance threshold "
                << format_double(*imbalance_threshold, 2) << "%\n";
      return 1;
    }
    std::cout << "\nok: busy max/mean " << (ipct >= 0 ? "+" : "")
              << format_double(ipct, 2) << "% within imbalance threshold "
              << format_double(*imbalance_threshold, 2) << "%\n";
  }
  if (threshold) {
    // A phase that appears or disappears is a structural change no cycle
    // percentage can summarize — the gate fails regardless of the total.
    if (one_sided > 0) {
      std::cout << "\nREGRESSION: " << one_sided
                << " phase(s) present in only one run\n";
      return 1;
    }
    if (pct > *threshold) {
      std::cout << "\nREGRESSION: total cycles "
                << (pct >= 0 ? "+" : "") << format_double(pct, 2)
                << "% exceeds threshold " << format_double(*threshold, 2)
                << "%\n";
      return 1;
    }
    std::cout << "\nok: total cycles " << (pct >= 0 ? "+" : "")
              << format_double(pct, 2) << "% within threshold "
              << format_double(*threshold, 2) << "%\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::size_t run_index = 0;
  std::size_t top_n = 12;
  std::optional<double> threshold;
  std::optional<double> imbalance_threshold;
  std::optional<double> model_tolerance;
  bool collapsed = false;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--run" || arg == "--top") {
      const auto n = gnna::sim::parse_u64(next());
      if (!n) {
        std::cerr << "error: " << arg << " needs a non-negative integer\n";
        return 2;
      }
      (arg == "--run" ? run_index : top_n) = static_cast<std::size_t>(*n);
    } else if (arg == "--threshold" || arg == "--imbalance-threshold" ||
               arg == "--model-tolerance") {
      const auto t = gnna::sim::parse_f64(next());
      if (!t) {
        std::cerr << "error: " << arg << " needs a percentage\n";
        return 2;
      }
      (arg == "--threshold"             ? threshold
       : arg == "--imbalance-threshold" ? imbalance_threshold
                                        : model_tolerance) = *t;
    } else if (arg == "--collapsed") {
      collapsed = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.empty()) {
    usage(std::cerr);
    return 2;
  }
  const std::string& cmd = positional[0];
  try {
    if (cmd == "report") {
      if (positional.size() != 2) {
        std::cerr << "error: report needs exactly one input file\n";
        return 2;
      }
      const std::string& path = positional[1];
      const RunStats run = select_run(path, run_index);
      return collapsed ? cmd_report_collapsed(path, run)
                       : cmd_report(path, run, top_n, model_tolerance);
    }
    if (cmd == "hotspots") {
      if (positional.size() != 2) {
        std::cerr << "error: hotspots needs exactly one input file\n";
        return 2;
      }
      return cmd_hotspots(positional[1], select_run(positional[1], run_index),
                          top_n, csv);
    }
    if (cmd == "diff") {
      if (positional.size() != 3) {
        std::cerr << "error: diff needs exactly two input files\n";
        return 2;
      }
      return cmd_diff(positional[1], select_run(positional[1], run_index),
                      positional[2], select_run(positional[2], run_index),
                      threshold, imbalance_threshold);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "error: unknown command '" << cmd << "'\n";
  usage(std::cerr);
  return 2;
}
