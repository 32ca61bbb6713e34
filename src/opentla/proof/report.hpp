// opentla/proof/report.hpp

#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "opentla/proof/obligation.hpp"

namespace opentla {

/// The outcome of verifying a theorem instance: a conclusion plus the list
/// of discharged (or failed) hypotheses.
struct ProofReport {
  std::string theorem;  // rendered conclusion, e.g. "(QE1 +> QM1) /\ ... => (QE +> QM)"
  std::vector<Obligation> obligations;
  /// Time to explore H1's product, which checks every target on it as it
  /// runs, each H1[E_i] and H2a by Propositions 3/4 (0 when the proof
  /// explored none). Not an obligation; rendered after them and counted
  /// in total_millis().
  double h1_build_millis = 0.0;

  bool all_discharged() const;
  double total_millis() const;
  /// Figure-9-style rendering: one line per obligation with status, method
  /// and timing, then its detail with every line indented, then the
  /// verdict.
  std::string to_string() const;

  Obligation& add(Obligation ob);
};

/// Scoped wall-clock timer filling an obligation's `millis` (or any other
/// duration field).
class ObligationTimer {
 public:
  explicit ObligationTimer(Obligation& ob) : ObligationTimer(ob.millis) {}
  explicit ObligationTimer(double& millis);
  ~ObligationTimer();
  ObligationTimer(const ObligationTimer&) = delete;
  ObligationTimer& operator=(const ObligationTimer&) = delete;

 private:
  double* millis_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace opentla
