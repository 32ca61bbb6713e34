// FIG9 — Figure 9: the mechanical proof of formula (4),
//
//   G /\ (QE^1 +> QM^1) /\ (QE^2 +> QM^2)  =>  (QE^dbl +> QM^dbl),
//
// with the per-hypothesis breakdown the paper sketches, plus the refutation
// of the unconditioned formula (3).
//
// Benchmarks: each hypothesis class in isolation (product inclusion for H1,
// the freeze product for H2a, complete-system refinement for H2b) and the
// full proof, over N.

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

  // H2a by the paper's own route (Figure 9 steps 2.1/2.2, Propositions 3/4)
  // versus the direct freeze product.
  Prop3Route route;
  route.env_outputs = sys.env_out;
  route.guarantee_outputs = {sys.i.ack, sys.o.sig, sys.o.val};
  std::vector<Obligation> via_prop3 =
      discharge_h2a_via_prop3(sys.vars, sys.components(), sys.goal(), route, options(sys));
  double prop3_ms = 0;
  bool prop3_ok = true;
  for (const Obligation& ob : via_prop3) {
    prop3_ms += ob.millis;
    prop3_ok = prop3_ok && ob.discharged;
  }
  std::cout << "--- H2a discharge routes ---\n"
            << "via Propositions 3/4 (steps 2.1 + 2.2): "
            << (prop3_ok ? "discharged" : "FAILED") << " in " << prop3_ms << " ms\n"
            << "(the direct freeze-product time appears in the H2a row above)\n\n";
}

void BM_H2aViaProp3(benchmark::State& state) {
  DoubleQueueSystem sys = make_double_queue(static_cast<int>(state.range(0)), 2);
  CompositionOptions opts = options(sys);
  Prop3Route route;
  route.env_outputs = sys.env_out;
  route.guarantee_outputs = {sys.i.ack, sys.o.sig, sys.o.val};
  for (auto _ : state) {
    std::vector<Obligation> obs =
        discharge_h2a_via_prop3(sys.vars, sys.components(), sys.goal(), route, opts);
    benchmark::DoNotOptimize(obs.back().discharged);
  }
}
BENCHMARK(BM_H2aViaProp3)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

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
