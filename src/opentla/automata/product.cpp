#include "opentla/automata/product.hpp"

#include "opentla/obs/obs.hpp"

namespace opentla {

ProductMachine::ProductMachine(std::vector<std::shared_ptr<const SafetyMachine>> factors)
    : factors_(std::move(factors)) {}

Value ProductMachine::initial(const State& s) const {
  Value::Tuple configs;
  configs.reserve(factors_.size());
  for (const auto& f : factors_) {
    configs.push_back(f->initial(s));
    if (!f->alive(configs.back())) return dead_config();
  }
  return Value::tuple(std::move(configs));
}

Value ProductMachine::step(const Value& config, const State& s, const State& t) const {
  const Value::Tuple& parts = config.as_tuple();
  if (parts.size() != factors_.size()) return config;  // dead stays dead
  OPENTLA_OBS_COUNT(ProductSteps);
  Value::Tuple configs;
  configs.reserve(factors_.size());
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    configs.push_back(factors_[i]->step(parts[i], s, t));
    if (!factors_[i]->alive(configs.back())) return dead_config();
  }
  return Value::tuple(std::move(configs));
}

bool ProductMachine::alive(const Value& config) const {
  // initial and step never return a tuple holding a dead factor.
  return config.length() == factors_.size();
}

std::string ProductMachine::name() const {
  std::string out = "(";
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (i != 0) out += " /\\ ";
    out += factors_[i]->name();
  }
  return out + ")";
}

const Value& ProductMachine::factor_config(const Value& config, std::size_t i) const {
  return config.as_tuple()[i];
}

}  // namespace opentla
