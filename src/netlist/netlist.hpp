// Combinational netlist as a layered DAG, plus a seeded random generator —
// the synthetic "design" whose timing closure defines structural SCAN Vmin.
//
// Node numbering: nodes [0, n_inputs) are primary inputs (zero delay);
// nodes [n_inputs, n_inputs + gates.size()) are gates in topological order
// (a gate's fanins always have smaller node ids). Primary outputs are a
// subset of nodes whose arrival times define the critical path.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace vmincqr::netlist {

struct Gate {
  std::size_t cell;                  ///< index into standard_cell_library()
  std::vector<std::size_t> fanins;   ///< node ids (strictly smaller)
  double mismatch_sensitivity = 1.0; ///< scales per-chip local Vth mismatch
  double aging_weight = 1.0;         ///< scales stress-induced Vth shift
};

struct RandomNetlistConfig {
  std::size_t n_inputs = 32;
  std::size_t n_gates = 600;
  std::size_t n_outputs = 16;
  std::size_t max_fanin = 3;
  /// Fanin locality: fanins are drawn from the most recent `window` nodes.
  std::size_t window = 120;
};

class Netlist {
 public:
  /// Constructs from parts; validates topological order and fanin bounds.
  /// Throws std::invalid_argument on violations.
  Netlist(std::size_t n_inputs, std::vector<Gate> gates,
          std::vector<std::size_t> outputs);

  /// Seeded random layered DAG. Deterministic in (config, rng state).
  static Netlist random(const RandomNetlistConfig& config, rng::Rng& rng);

  [[nodiscard]] std::size_t n_inputs() const noexcept { return n_inputs_; }
  [[nodiscard]] std::size_t n_nodes() const noexcept { return n_inputs_ + gates_.size(); }
  [[nodiscard]] const std::vector<Gate>& gates() const noexcept { return gates_; }
  [[nodiscard]] const std::vector<std::size_t>& outputs() const noexcept { return outputs_; }

 private:
  std::size_t n_inputs_;
  std::vector<Gate> gates_;
  std::vector<std::size_t> outputs_;
};

}  // namespace vmincqr::netlist
