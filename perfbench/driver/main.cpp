// perfbench: one measurement process of the EveryWare benchmark.
//
//   perfbench --workload rpc_bulk|gossip_sim|sched_sim
//             --seed N [--seconds S] [--trace 0|1] [--trace-out spans.csv]
//
// Prints one JSON object on stdout: the workload's raw measurements, its
// output-check tallies, and the run context. perfbench/run.py drives these
// processes and turns their output into the benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload rpc_bulk|gossip_sim|sched_sim "
               "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

std::string context_json() {
  rlimit rl{};
  getrlimit(RLIMIT_NOFILE, &rl);
  perfbench::Report c;
  c.integer("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .integer("rlimit_nofile", static_cast<std::uint64_t>(rl.rlim_cur))
      .str("tcp_path", "loopback 127.0.0.1 (a real socket path, not a real link)");
  return c.json();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      opts.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_value) {
      opts.trace_out = argv[++i];
    } else {
      return usage();
    }
  }

  perfbench::Report out;
  out.str("workload", opts.workload).integer("seed", opts.seed).flag("traced", opts.trace);
  int rc;
  if (opts.workload == "rpc_bulk") {
    rc = perfbench::run_rpc(opts, out);
  } else if (opts.workload == "gossip_sim") {
    rc = perfbench::run_gossip(opts, out);
  } else if (opts.workload == "sched_sim") {
    rc = perfbench::run_sched(opts, out);
  } else {
    return usage();
  }
  if (rc == 2) {
    std::fprintf(stderr, "perfbench: %s: could not build the world\n", opts.workload.c_str());
    return 2;
  }
  out.flag("checks_passed", rc == 0).raw("context", context_json());
  std::printf("%s\n", out.json().c_str());
  return rc;
}
