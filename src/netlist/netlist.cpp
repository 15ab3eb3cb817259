#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/cell.hpp"

namespace vmincqr::netlist {

Netlist::Netlist(std::size_t n_inputs, std::vector<Gate> gates,
                 std::vector<std::size_t> outputs)
    : n_inputs_(n_inputs), gates_(std::move(gates)), outputs_(std::move(outputs)) {
  if (n_inputs_ == 0) {
    throw std::invalid_argument("Netlist: need at least one input");
  }
  const auto& library = standard_cell_library();
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const std::size_t node = n_inputs_ + g;
    if (gates_[g].cell >= library.size()) {
      throw std::invalid_argument("Netlist: unknown cell type");
    }
    if (gates_[g].fanins.empty()) {
      throw std::invalid_argument("Netlist: gate with no fanins");
    }
    for (auto fanin : gates_[g].fanins) {
      if (fanin >= node) {
        throw std::invalid_argument(
            "Netlist: fanin violates topological order");
      }
    }
  }
  if (outputs_.empty()) {
    throw std::invalid_argument("Netlist: need at least one output");
  }
  for (auto out : outputs_) {
    if (out >= n_nodes()) {
      throw std::invalid_argument("Netlist: output node out of range");
    }
  }
}

Netlist Netlist::random(const RandomNetlistConfig& config, rng::Rng& rng) {
  if (config.n_gates == 0 || config.n_inputs == 0 || config.n_outputs == 0) {
    throw std::invalid_argument("Netlist::random: empty configuration");
  }
  if (config.max_fanin == 0) {
    throw std::invalid_argument("Netlist::random: max_fanin must be >= 1");
  }
  const auto& library = standard_cell_library();

  std::vector<Gate> gates;
  gates.reserve(config.n_gates);
  for (std::size_t g = 0; g < config.n_gates; ++g) {
    const std::size_t node = config.n_inputs + g;
    Gate gate;
    gate.cell = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(library.size()) - 1));
    const auto n_fanin = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(config.max_fanin)));
    const std::size_t lo =
        node > config.window ? node - config.window : std::size_t{0};
    for (std::size_t f = 0; f < n_fanin; ++f) {
      gate.fanins.push_back(static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo),
                          static_cast<std::int64_t>(node) - 1)));
    }
    gate.mismatch_sensitivity = rng.uniform(0.5, 1.5);
    gate.aging_weight = rng.uniform(0.3, 1.7);
    gates.push_back(std::move(gate));
  }

  // Outputs: the last gates (deepest logic) plus a few random earlier nodes.
  std::vector<std::size_t> outputs;
  const std::size_t n_nodes = config.n_inputs + config.n_gates;
  const std::size_t deep =
      std::min<std::size_t>(config.n_outputs, config.n_gates);
  for (std::size_t i = 0; i < deep; ++i) outputs.push_back(n_nodes - 1 - i);
  std::sort(outputs.begin(), outputs.end());
  outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());

  return Netlist(config.n_inputs, std::move(gates), std::move(outputs));
}

}  // namespace vmincqr::netlist
