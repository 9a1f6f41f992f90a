// One accelerator tile (Fig 3): GPE + AGG + DNQ + DNA around the tile
// router's local ports (the 7x7 crossbar: 4 mesh directions + 3 local
// ports — GPE, AGG, and the shared DNQ-in / DNA-out port).
#pragma once

#include <memory>
#include <vector>

#include "accel/agg.hpp"
#include "accel/config.hpp"
#include "accel/dna.hpp"
#include "accel/dnq.hpp"
#include "accel/gpe.hpp"
#include "accel/program.hpp"
#include "noc/network.hpp"
#include "trace/trace.hpp"

namespace gnna::accel {

class Tile {
 public:
  /// Endpoints must already be registered on the network (before
  /// finalize()): ep_gpe, ep_agg and ep_dnq on this tile's router.
  Tile(const AcceleratorConfig& cfg, noc::MeshNetwork& net, EndpointId ep_gpe,
       EndpointId ep_agg, EndpointId ep_dnq, const AddressMap& addr_map);

  /// Configure all modules for `phase` and kick off the weight streams
  /// (Algorithm 1 line 14). `ds` is the dataset the program runs against
  /// (graph topology for traversal); `work` is this tile's share of the
  /// work queue.
  void begin_phase(const CompiledProgram& prog, const graph::Dataset& ds,
                   const PhaseSpec& phase, std::vector<std::uint32_t> work);

  void tick();

  /// Earliest NoC cycle >= `now` at which tick() could change state: `now`
  /// while a message waits at one of the tile's endpoints, else the
  /// earliest of its units' next events.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] bool idle() const {
    return gpe_.idle() && agg_.idle() && dnq_.empty() && dna_.idle();
  }

  [[nodiscard]] const Gpe& gpe() const { return gpe_; }
  [[nodiscard]] const Agg& agg() const { return agg_; }
  [[nodiscard]] const Dnq& dnq() const { return dnq_; }
  [[nodiscard]] const Dna& dna() const { return dna_; }

  /// Attach `sink` to all four units, identified as tile `index`.
  void set_tracing(trace::TraceSink* sink, std::uint32_t index);

  /// Deadlock diagnostics: all four units' internal state.
  void dump_state(std::ostream& os) const;

 private:
  const AcceleratorConfig& cfg_;
  noc::MeshNetwork& net_;
  EndpointId ep_gpe_;
  EndpointId ep_agg_;
  EndpointId ep_dnq_;
  const AddressMap& addr_map_;
  double scale_;
  Agg agg_;
  Dnq dnq_;
  Dna dna_;
  Gpe gpe_;
};

}  // namespace gnna::accel
