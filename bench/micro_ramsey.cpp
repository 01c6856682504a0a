// Microbenchmark for the Ramsey kernels: clique counting, flip deltas,
// heuristic move throughput, and the graph codec — the "useful work" whose
// instrumented ops the whole evaluation counts. Prints ONE machine-readable
// JSON line (see EXPERIMENTS.md, "Microbenchmarks"):
//
//   {"bench":"micro_ramsey","iters":...,
//    "ns_count_bad_17_4":...,"ns_count_bad_25_4":...,
//    "ns_count_bad_42_5":...,"ns_count_bad_64_5":...,"count_ops_per_s":...,
//    "ns_flip_delta_17_4":...,"ns_flip_delta_42_5":...,
//    "heuristic_ops_per_s":{"greedy":...,"tabu":...,"anneal":...},
//    "ns_graph_serialize":...,"ns_graph_deserialize":...,
//    "ns_is_counterexample_paley17":...,"checksum":...}
//
// The ns numbers are informational. The checksum folds the kernels' results
// and is constant for a given iteration count, so a changed checksum means
// the kernels changed, not just their speed. Exit status is non-zero if the
// Paley graph of order 17 fails to verify as an R(4,4) counter-example.
// `--quick` shrinks the iteration counts for the micro_ramsey_smoke ctest
// entry.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.hpp"
#include "ramsey/clique.hpp"
#include "ramsey/heuristic.hpp"

int main(int argc, char** argv) {
  using namespace ew;
  using namespace ew::ramsey;
  using bench::time_per_op;
  using bench::Timed;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t kIters = quick ? 200 : 20'000;
  double checksum = 0.0;
  bench::JsonWriter line;
  line.u64("iters", kIters);

  // Full bad-clique count: the energy every heuristic minimizes.
  double count_ops = 0.0;
  double count_ns = 0.0;
  const int count_shapes[][2] = {{17, 4}, {25, 4}, {42, 5}, {64, 5}};
  for (const auto& shape : count_shapes) {
    const int n = shape[0], k = shape[1];
    Rng rng(1);
    const ColoredGraph g = ColoredGraph::random(n, rng);
    OpsCounter ops;
    const Timed t = time_per_op(kIters, [&](std::size_t) {
      return static_cast<double>(count_bad_cliques(g, k, ops));
    });
    checksum += t.checksum;
    count_ops += static_cast<double>(ops.ops);
    count_ns += t.ns_per_op * static_cast<double>(kIters);
    line.f("ns_count_bad_" + std::to_string(n) + "_" + std::to_string(k),
           t.ns_per_op, 1);
  }
  line.g("count_ops_per_s", count_ns > 0 ? count_ops * 1e9 / count_ns : 0.0);

  // Flip delta: the per-candidate-move cost inside every heuristic.
  const int flip_shapes[][2] = {{17, 4}, {42, 5}};
  for (const auto& shape : flip_shapes) {
    const int n = shape[0], k = shape[1];
    Rng rng(2);
    const ColoredGraph g = ColoredGraph::random(n, rng);
    int j = 1;
    const Timed t = time_per_op(kIters * 10, [&](std::size_t) {
      OpsCounter ops;
      const auto d = flip_delta(g, k, 0, j, ops);
      j = j % (n - 1) + 1;
      return static_cast<double>(d);
    });
    checksum += t.checksum;
    line.f("ns_flip_delta_" + std::to_string(n) + "_" + std::to_string(k),
           t.ns_per_op, 1);
  }

  // Native instrumented-op rate of each heuristic; this is the per-host
  // calibration number behind the simulator's ops accounting.
  bench::JsonWriter heuristic_rates;
  for (const auto kind :
       {HeuristicKind::kGreedy, HeuristicKind::kTabu, HeuristicKind::kAnneal}) {
    HeuristicParams p;
    p.n = 42;
    p.k = 5;
    p.seed = 3;
    auto h = make_heuristic(kind, p);
    std::uint64_t ops_total = 0;
    const std::size_t runs = quick ? 2 : 50;
    const Timed t = time_per_op(runs, [&](std::size_t) {
      const StepOutcome out = h->run(1'000'000);
      ops_total += out.ops_used;
      return static_cast<double>(out.best_energy);
    });
    checksum += t.checksum;
    heuristic_rates.g(heuristic_name(kind),
                      static_cast<double>(ops_total) * 1e9 /
                          (t.ns_per_op * static_cast<double>(runs)));
  }
  line.raw("heuristic_ops_per_s", heuristic_rates.object());

  // Graph codec: what every work report and checkpoint carries.
  Rng codec_rng(4);
  const ColoredGraph g42 = ColoredGraph::random(42, codec_rng);
  const Timed ser = time_per_op(kIters * 10, [&](std::size_t) {
    return static_cast<double>(g42.serialize().size());
  });
  const Bytes blob = g42.serialize();
  const Timed deser = time_per_op(kIters * 10, [&](std::size_t) {
    return ColoredGraph::deserialize(blob).ok() ? 1.0 : 0.0;
  });
  checksum += ser.checksum + deser.checksum;

  // The persistent state manager's sanity check on every claimed store.
  const auto paley17 = ColoredGraph::paley(17);
  if (!paley17.ok()) {
    std::fprintf(stderr, "micro_ramsey: paley(17): %s\n",
                 paley17.error().to_string().c_str());
    return 1;
  }
  const Timed check = time_per_op(kIters, [&](std::size_t) {
    return is_counterexample(*paley17, 4) ? 1.0 : 0.0;
  });
  checksum += check.checksum;

  line.f("ns_graph_serialize", ser.ns_per_op, 1)
      .f("ns_graph_deserialize", deser.ns_per_op, 1)
      .f("ns_is_counterexample_paley17", check.ns_per_op, 1)
      .g("checksum", checksum);
  bench::emit_json("micro_ramsey", line);

  if (check.checksum != static_cast<double>(kIters)) {
    std::fprintf(stderr,
                 "micro_ramsey: Paley(17) failed to verify as an R(4,4) "
                 "counter-example\n");
    return 1;
  }
  return 0;
}
