// chain: the Composition Theorem at n = 4 — three handshake queues in
// series (plus the interleaving condition G) implement a (3N+2)-element
// queue. Demonstrates the n-ary use of the theorem; G among the conjuncts
// is recognized as a Disjoint, so every exploration generates each
// component's steps alone.

#include <chrono>
#include <iostream>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/queue/double_queue.hpp"

using namespace opentla;

int main(int argc, char** argv) {
  const int capacity = argc > 1 ? std::atoi(argv[1]) : 1;
  TripleQueueSystem sys = make_triple_queue(capacity, 2);
  std::cout << "Three queues in series: i -> z1 -> z2 -> o, N = " << capacity
            << " each, big queue capacity " << 3 * capacity + 2 << "\n\n";

  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};

  const auto t0 = std::chrono::steady_clock::now();
  ProofReport report = verify_composition(sys.vars, sys.components(), sys.goal(), opts);
  const auto t1 = std::chrono::steady_clock::now();
  std::cout << report.to_string();
  std::cout << "\nwall time: "
            << std::chrono::duration<double, std::milli>(t1 - t0).count() << " ms\n";
  return report.all_discharged() ? 0 : 1;
}
