// FIG9 — Figure 9: the mechanical proof of formula (4),
//
//   G /\ (QE^1 +> QM^1) /\ (QE^2 +> QM^2)  =>  (QE^dbl +> QM^dbl),
//
// with the per-hypothesis breakdown the paper sketches, plus the refutation
// of the unconditioned formula (3) and the noninterleaving proof of (3).
// The artifact prints how each instance discharges H2a: by Propositions 3
// and 4 on H1's product where G keeps the goal's output tuples apart, by
// the freeze product otherwise.
//
// Benchmarks: the full proof over N, the refutation of (3), and the
// noninterleaving proof.

#include "bench_common.hpp"
#include "opentla/ag/composition_theorem.hpp"
#include "opentla/queue/double_queue.hpp"

using namespace opentla;

namespace {

CompositionOptions options(const DoubleQueueSystem& sys) {
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  return opts;
}

void artifact() {
  std::cout << "=== FIG9: the Composition Theorem proof of formula (4) ===\n\n";
  DoubleQueueSystem sys = make_double_queue(1, 2);
  ProofReport proof = verify_composition(sys.vars, sys.components(), sys.goal(), options(sys));
  std::cout << proof.to_string();
  std::cout << "\ntotal: " << proof.total_millis() << " ms\n\n";

  std::cout << "--- formula (3): the same implication without G ---\n";
  ProofReport no_g = verify_composition(
      sys.vars, {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}}, sys.goal(), options(sys));
  for (const Obligation& ob : no_g.obligations) {
    if (!ob.discharged) {
      std::cout << "FAILED " << ob.id << " (" << ob.method << ")\n" << ob.detail << "\n";
      break;
    }
  }
  std::cout << (no_g.all_discharged() ? "unexpectedly proved?!" : "=> formula (3) is INVALID")
            << "\n\n";

  // The abstract's remark: with a NONINTERLEAVING representation, (3) holds.
  DoubleQueueSystem ni = make_double_queue_ni(1, 2);
  CompositionOptions ni_opts;
  ni_opts.goal_witness = {{"q", ni.qbar}};
  ProofReport ni_proof = verify_composition(
      ni.vars, {{ni.qe1, ni.qm1}, {ni.qe2, ni.qm2}}, ni.goal(), ni_opts);
  std::cout << "--- formula (3), noninterleaving representation ---\n"
            << (ni_proof.all_discharged() ? "Q.E.D. (no G needed)" : "NOT PROVED?!")
            << "  (" << ni_proof.total_millis() << " ms)\n\n";

  auto h2a_method = [](const ProofReport& report) {
    for (const Obligation& ob : report.obligations) {
      if (ob.id == "H2a") return ob.method;
    }
    return std::string("(not evaluated)");
  };
  std::cout << "--- H2a's method ---\n"
            << "formula (4):                  " << h2a_method(proof) << "\n"
            << "formula (3):                  " << h2a_method(no_g) << "\n"
            << "formula (3), noninterleaving: " << h2a_method(ni_proof) << "\n\n";
}

void BM_NonInterleavingProof(benchmark::State& state) {
  DoubleQueueSystem sys = make_double_queue_ni(static_cast<int>(state.range(0)), 2);
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  for (auto _ : state) {
    ProofReport proof = verify_composition(sys.vars, components, sys.goal(), opts);
    benchmark::DoNotOptimize(proof.all_discharged());
  }
}
BENCHMARK(BM_NonInterleavingProof)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FullProof(benchmark::State& state) {
  DoubleQueueSystem sys = make_double_queue(static_cast<int>(state.range(0)), 2);
  CompositionOptions opts = options(sys);
  for (auto _ : state) {
    ProofReport proof = verify_composition(sys.vars, sys.components(), sys.goal(), opts);
    benchmark::DoNotOptimize(proof.all_discharged());
  }
}
BENCHMARK(BM_FullProof)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_RefutationWithoutG(benchmark::State& state) {
  DoubleQueueSystem sys = make_double_queue(static_cast<int>(state.range(0)), 2);
  CompositionOptions opts = options(sys);
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  for (auto _ : state) {
    ProofReport proof = verify_composition(sys.vars, components, sys.goal(), opts);
    benchmark::DoNotOptimize(proof.all_discharged());
  }
}
BENCHMARK(BM_RefutationWithoutG)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

OPENTLA_BENCH_MAIN(artifact)
