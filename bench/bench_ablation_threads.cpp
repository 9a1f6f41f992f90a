// Ablation A2: GPE software-thread pool size.
//
// The GPE hides memory latency by context-switching between software
// threads (Section IV: single-cycle switches). This sweep shows how many
// threads are needed to cover the fixed 20 ns memory latency for a
// memory-bound workload (GCN/Pubmed) and a traversal-bound one
// (PGNN on a DBLP-like community graph). Each sweep compiles its program
// once and fans the seven thread counts across a BatchRunner.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gnn/model.hpp"
#include "sim/batch_runner.hpp"

namespace {

void sweep(gnna::sim::Session& session,
           const gnna::sim::Session::Resolved& prog,
           gnna::benchutil::BenchArgs& args,
           const std::string& label) {
  using namespace gnna;
  std::cout << "--- " << label << " ---\n";

  const std::vector<std::uint32_t> thread_counts = {1U,  2U,  4U, 8U,
                                                    16U, 32U, 64U};
  std::vector<sim::RunRequest> requests;
  for (const std::uint32_t threads : thread_counts) {
    sim::RunRequest req;
    req.program = prog.program;
    req.dataset = prog.dataset;
    req.config = accel::AcceleratorConfig::cpu_iso_bw();
    req.threads = threads;
    req.trace = args.next_trace();
    requests.push_back(std::move(req));
  }

  sim::BatchRunner runner(session, args.jobs());
  runner.set_progress([&](std::size_t i, const sim::RunResult& r) {
    std::cerr << "[ablation-threads] " << label
              << " threads=" << thread_counts[i]
              << (r.ok() ? " done" : " FAILED: " + r.error) << '\n';
  });
  const std::vector<sim::RunResult> results = runner.run(requests);

  Table t({"GPE threads", "Latency (ms)", "GPE utilization",
           "Mean mem BW (GB/s)", "Alloc stalls"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) std::exit(1);
    const accel::RunStats& rs = results[i].stats;
    t.add_row({std::to_string(thread_counts[i]), format_double(rs.millis, 3),
               format_percent(rs.gpe_utilization),
               format_double(rs.mean_bandwidth_gbps, 1),
               std::to_string(rs.alloc_stalls)});
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnna;
  benchutil::BenchArgs args(argc, argv);

  std::cout << "=== Ablation: GPE software-thread pool size (CPU iso-BW) "
               "===\n\n";

  sim::Session session;
  {
    const std::shared_ptr<const graph::Dataset> pubmed =
        session.dataset(graph::DatasetId::kPubmed);
    sweep(session,
          session.compile(gnn::make_gcn(pubmed->spec.vertex_features,
                                        pubmed->spec.output_features),
                          pubmed),
          args, "GCN / Pubmed (memory-bound)");
  }
  {
    const auto dblp = std::make_shared<const graph::Dataset>(
        benchutil::make_community_subset(200, 900));
    sweep(session, session.compile(gnn::make_pgnn(1, 3), dblp), args,
          "PGNN / community-200 (traversal-bound)");
  }

  std::cout << "Expected shape: the memory-bound GCN saturates quickly (a "
               "handful of threads\ncover the 20 ns latency); the "
               "traversal-bound PGNN keeps benefiting from more\nthreads "
               "because every walk step is a dependent memory round trip.\n";
  return 0;
}
