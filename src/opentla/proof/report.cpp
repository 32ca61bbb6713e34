#include "opentla/proof/report.hpp"

#include <numeric>
#include <sstream>
#include <string_view>

namespace opentla {

bool ProofReport::all_discharged() const {
  for (const Obligation& ob : obligations) {
    if (!ob.discharged) return false;
  }
  return true;
}

double ProofReport::total_millis() const {
  return std::accumulate(obligations.begin(), obligations.end(), h1_build_millis,
                         [](double acc, const Obligation& ob) { return acc + ob.millis; });
}

Obligation& ProofReport::add(Obligation ob) {
  obligations.push_back(std::move(ob));
  return obligations.back();
}

std::string ProofReport::to_string() const {
  std::ostringstream os;
  os << "THEOREM " << theorem << "\n";
  for (const Obligation& ob : obligations) {
    os << "  [" << (ob.discharged ? "ok" : (ob.inconclusive ? "?budget" : "FAILED")) << "] "
       << ob.id << ": " << ob.description << "\n";
    os << "        method: " << ob.method;
    if (ob.millis > 0) os << "  (" << ob.millis << " ms)";
    os << "\n";
    // Every line of the detail (a counterexample trace, a refused route)
    // stays inside its obligation's block; a final newline ends the last.
    std::size_t from = 0;
    while (from < ob.detail.size()) {
      std::size_t to = ob.detail.find('\n', from);
      if (to == std::string::npos) to = ob.detail.size();
      if (to > from) os << "        " << std::string_view(ob.detail).substr(from, to - from);
      os << "\n";
      from = to + 1;
    }
  }
  if (h1_build_millis > 0) os << "  [shared] H1 product build  (" << h1_build_millis << " ms)\n";
  bool refuted = false;
  for (const Obligation& ob : obligations) {
    if (!ob.discharged && !ob.inconclusive) refuted = true;
  }
  os << (all_discharged() ? "  Q.E.D."
         : refuted        ? "  NOT PROVED"
                          : "  NOT PROVED (run budget stopped the proof)")
     << "\n";
  return os.str();
}

ObligationTimer::ObligationTimer(double& millis)
    : millis_(&millis), start_(std::chrono::steady_clock::now()) {}

ObligationTimer::~ObligationTimer() {
  const auto end = std::chrono::steady_clock::now();
  *millis_ = std::chrono::duration<double, std::milli>(end - start_).count();
}

}  // namespace opentla
