// opentla/automata/product.hpp
//
// Product of safety machines: recognizes the conjunction of its factors.
// Parallel composition is conjunction in this framework (Section 1), so
// the product machine is literally the composition of the components'
// safety parts.

#pragma once

#include <memory>
#include <vector>

#include "opentla/automata/prefix_machine.hpp"

namespace opentla {

class ProductMachine final : public SafetyMachine {
 public:
  explicit ProductMachine(std::vector<std::shared_ptr<const SafetyMachine>> factors);

  /// A configuration is the tuple of the factors' live configurations, or
  /// dead_config(): initial and step stop at the first dead factor and
  /// return it, so the factors after that one are never stepped. Stepping
  /// the dead configuration returns it unchanged.
  Value initial(const State& s) const override;
  Value step(const Value& config, const State& s, const State& t) const override;
  bool alive(const Value& config) const override;
  std::string name() const override;

  std::size_t num_factors() const { return factors_.size(); }
  /// The configuration of one factor within a product configuration.
  const Value& factor_config(const Value& config, std::size_t i) const;
  const SafetyMachine& factor(std::size_t i) const { return *factors_[i]; }

 private:
  std::vector<std::shared_ptr<const SafetyMachine>> factors_;
};

}  // namespace opentla
