// perfbench: end-to-end and per-layer benchmark of the RP-BCM stack on the
// VGG-16 proxy and the serving engine. run.py builds it and is the entry
// point; README.md describes the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--source ID]
//
// Prints notes, a host fingerprint line, one line per metric and, as the
// last line, the result JSON. Exits non-zero without a result on an
// unknown workload, bad flags, or an error inside the stack.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "base/parallel.hpp"
#include "common.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--source") {
      opt.source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--source ID]\n");
    return 2;
  }
  rpbcm::base::set_num_threads(perfbench::pool_threads());
  perfbench::Report rep(opt);
  try {
    if (opt.workload == "infer_a0") {
      perfbench::run_infer(opt, 0.0, rep);
    } else if (opt.workload == "infer_a84") {
      perfbench::run_infer(opt, 0.84, rep);
    } else if (opt.workload == "train_a50") {
      perfbench::run_train(opt, rep);
    } else if (opt.workload == "serve_conv") {
      perfbench::run_serve(opt, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.print();
  return 0;
}
