// opentla/automata/prefix_machine.hpp
//
// Prefix machines: deciders for "F holds for the first n states of sigma"
// (Section 2.4). For a canonical safety specification
//
//     F  ==  EE x : Init /\ [][N]_v
//
// a finite behavior satisfies F iff some assignment of values to the hidden
// variables x extends it to a run; the machine tracks the *set* of possible
// hidden assignments (a subset construction). The machine is the engine
// behind closure C(F), the while-plus operator E +> M, the freeze operator
// F_{+v}, and orthogonality — every operator the paper defines via "holds
// for the first n states".
//
// Because [][N]_v admits stuttering, a finite behavior with a nonempty
// configuration always extends to an infinite one (stutter forever), so
// "configuration nonempty" is exactly prefix satisfaction of the safety
// part; and an infinite behavior keeps a nonempty configuration forever iff
// it satisfies C(F) (Koenig's lemma over the finitely-branching run tree).
//
// Configurations are encoded as Values (a sorted tuple of hidden-value
// assignments) so that products and explorer hash tables work uniformly.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "opentla/expr/analysis.hpp"
#include "opentla/state/state.hpp"
#include "opentla/state/var_table.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {

/// Interface of a safety machine over a universe of states: feed it the
/// states of a behavior one step at a time; `alive` says whether the prefix
/// read so far satisfies the property. Implementations keep no mutable
/// state: a product exploring on several threads calls them concurrently.
class SafetyMachine {
 public:
  virtual ~SafetyMachine() = default;
  /// Configuration after reading the one-state prefix <s>.
  virtual Value initial(const State& s) const = 0;
  /// Configuration after extending a prefix ending in s by the state t.
  virtual Value step(const Value& config, const State& s, const State& t) const = 0;
  /// True iff the prefix read so far satisfies the property.
  virtual bool alive(const Value& config) const = 0;
  virtual std::string name() const = 0;
  /// The tuple of hidden-variable assignments movers may draw source
  /// values from. For a plain prefix machine this is the configuration
  /// itself; wrappers (e.g. the freeze transform) project out their inner
  /// machine's assignments.
  virtual Value mover_configs(const Value& config) const { return config; }
};

/// Prefix machine of the safety part of a canonical specification. The
/// fairness conjuncts are ignored; by Proposition 1 this machine recognizes
/// C(spec) whenever the spec is machine-closed (see check/machine_closure).
class PrefixMachine final : public SafetyMachine {
 public:
  /// `spec`'s variables (including hidden ones) must belong to `vars`.
  /// Hidden entries of the states fed to the machine are ignored; the
  /// machine carries its own hidden assignments in the configuration.
  PrefixMachine(const VarTable& vars, CanonicalSpec spec);

  Value initial(const State& s) const override;
  /// A visible stutter (t agrees with s on the visible subscript) returns
  /// `config` itself, composing no state and evaluating nothing, when
  /// stutter_keeps_config() holds.
  Value step(const Value& config, const State& s, const State& t) const override;
  bool alive(const Value& config) const override;
  std::string name() const override { return spec_.name; }

  const CanonicalSpec& spec() const { return spec_; }
  /// Whether a visible stutter always returns the configuration it was
  /// given, decided at construction. It does when the spec has no hidden
  /// variable (the stuttering branch keeps <<>>, and an N-step can only
  /// add <<>> again), or when every disjunct of N must change a visible
  /// subscript variable (analysis::must_change_by_disjunct), so that no
  /// N-step is a visible stutter. Like must_change, the proof ranges over
  /// the declared domains, which hold every state an exploration reaches.
  bool stutter_keeps_config() const { return stutter_keeps_config_; }

 private:
  struct Disjunct {
    ActionDisjunct parts;
    std::vector<VarId> hidden_free;  // hidden vars not assigned by this disjunct
    /// Pruned-search schedule over hidden_free: residual conjuncts fire as
    /// soon as their hidden variables are bound (visible primed variables
    /// are already fixed by the given successor t).
    ResidualSchedule hidden_sched;
  };

  State compose(const State& visible, const Value& hidden_vals) const;
  void hidden_successors(const State& s_full, const State& t,
                         const std::function<void(Value)>& emit) const;

  const VarTable* vars_;
  CanonicalSpec spec_;
  std::vector<char> is_hidden_;       // indexed by VarId
  std::vector<VarId> visible_sub_;    // subscript vars that are not hidden
  std::vector<VarId> hidden_sub_;     // subscript vars that are hidden
  std::vector<Disjunct> disjuncts_;
  bool stutter_keeps_config_ = false;
};

/// Encodes a set of hidden-assignment tuples as a configuration Value.
Value encode_config(std::vector<Value> assignments);
/// The dead configuration (empty set).
Value dead_config();

}  // namespace opentla
