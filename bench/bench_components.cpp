// Host-side microbenchmarks (google-benchmark) of the simulator's building
// blocks. End-to-end simulator speed is measured by perfbench/
// (`python3 perfbench/run.py`).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "dataflow/spatial.hpp"
#include "gnn/functional.hpp"
#include "gnn/model.hpp"
#include "graph/generator.hpp"
#include "noc/network.hpp"

namespace {

using namespace gnna;

void BM_NocTickIdle(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  noc::MeshNetwork net(dim, dim);
  for (std::uint32_t y = 0; y < dim; ++y) {
    for (std::uint32_t x = 0; x < dim; ++x) (void)net.add_endpoint(x, y);
  }
  net.finalize();
  for (auto _ : state) net.tick();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocTickIdle)->Arg(2)->Arg(4)->Arg(6);

void BM_NocTickLoaded(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  noc::MeshNetwork net(dim, dim);
  std::vector<EndpointId> eps;
  for (std::uint32_t y = 0; y < dim; ++y) {
    for (std::uint32_t x = 0; x < dim; ++x) eps.push_back(net.add_endpoint(x, y));
  }
  net.finalize();
  Rng rng(1);
  for (auto _ : state) {
    for (const EndpointId src : eps) {
      if (net.injection_queue_depth(src) < 4 && rng.next_bool(0.3)) {
        noc::Message m;
        m.src = src;
        m.dst = eps[rng.next_below(eps.size())];
        m.payload_bytes = 128;
        net.send(m);
      }
    }
    net.tick();
    for (const EndpointId ep : eps) {
      while (net.poll(ep)) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocTickLoaded)->Arg(2)->Arg(4)->Arg(6);

void BM_MapperSearch(benchmark::State& state) {
  const dataflow::Mapper mapper(dataflow::SpatialArrayConfig::eyeriss());
  const dataflow::MatmulShape shape{19717, 19717, 16, 0.000114};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(
        shape, Bandwidth::gb_per_s(68.0), Frequency::giga_hertz(2.4)));
  }
}
BENCHMARK(BM_MapperSearch);

void BM_GraphGeneration(benchmark::State& state) {
  const auto edges = static_cast<EdgeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        graph::generate_citation_graph(rng, edges / 2, edges));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_GraphGeneration)->Arg(1000)->Arg(10000)->Arg(44338);

void BM_FunctionalGcn(benchmark::State& state) {
  Rng rng(3);
  const auto g = graph::generate_citation_graph(rng, 1000, 3000);
  const gnn::FunctionalExecutor exec(gnn::make_gcn(64, 7));
  const linalg::Matrix x = linalg::Matrix::random(rng, 1000, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(g, x, {}));
  }
}
BENCHMARK(BM_FunctionalGcn);

}  // namespace

BENCHMARK_MAIN();
