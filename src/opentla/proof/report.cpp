#include "opentla/proof/report.hpp"

#include <numeric>
#include <sstream>

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
    if (!ob.detail.empty()) os << "        " << ob.detail << "\n";
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
