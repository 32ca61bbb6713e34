#include "opentla/check/orthogonality.hpp"

#include "opentla/check/inclusion.hpp"

namespace opentla {

namespace {

/// E _|_ M as one safety machine over <E's configuration, M's
/// configuration, ok>: it dies on a step that kills both live machines, or
/// on a first state both reject.
class OrthogonalMachine final : public SafetyMachine {
 public:
  OrthogonalMachine(const SafetyMachine& e, const SafetyMachine& m) : e_(e), m_(m) {}

  Value initial(const State& s) const override {
    Value ce = e_.initial(s);
    Value cm = m_.initial(s);
    // The n = 0 instance of the definition: both properties hold for the
    // empty prefix (vacuously) and fail for the first state.
    const bool ok = e_.alive(ce) || m_.alive(cm);
    return Value::tuple({std::move(ce), std::move(cm), Value::boolean(ok)});
  }
  Value step(const Value& config, const State& s, const State& t) const override {
    const Value::Tuple& c = config.as_tuple();
    Value ce = e_.step(c[0], s, t);
    Value cm = m_.step(c[1], s, t);
    const bool both_die = e_.alive(c[0]) && m_.alive(c[1]) && !e_.alive(ce) && !m_.alive(cm);
    return Value::tuple(
        {std::move(ce), std::move(cm), Value::boolean(c[2].as_bool() && !both_die)});
  }
  bool alive(const Value& config) const override { return config.as_tuple()[2].as_bool(); }
  std::string name() const override { return e_.name() + " _|_ " + m_.name(); }

 private:
  const SafetyMachine& e_;
  const SafetyMachine& m_;
};

}  // namespace

OrthogonalityResult check_orthogonality(const StateGraph& generator, const SafetyMachine& e,
                                        const SafetyMachine& m, const ExploreOptions& opts) {
  const OrthogonalMachine machine(e, m);
  const DeadPairSearch search = find_dead_pair(generator, machine, opts);
  OrthogonalityResult result;
  result.holds = search.path.empty();
  for (StateId id : search.path) result.counterexample.push_back(generator.state(id));
  result.pairs_visited = search.pairs;
  result.stop_reason = search.stop_reason;
  return result;
}

}  // namespace opentla
