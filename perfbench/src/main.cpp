// perfbench — the stack benchmark's binary, built and run by perfbench/run.py.
// Each workload's fixed load settings are constants of its source file.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--git-sha <sha>]
//
// Prints the result document, then one JSON line with the metrics; exits
// non-zero when any output was wrong.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") o->workload = val;
    else if (key == "--seed") o->seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") o->seconds = std::atof(val.c_str());
    else if (key == "--trace") o->trace = val == "1";
    else if (key == "--out-dir") o->out_dir = val;
    else if (key == "--git-sha") o->git_sha = val;
    else return false;
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir dir] [--git-sha sha]\n",
                 argv[0]);
    return 2;
  }
  // Results and span files land here; the traced run writes before emit().
  mkdir(options.out_dir.c_str(), 0755);
  perfbench::Result result(options);
  try {
    if (options.workload == "offline_1080p")
      perfbench::run_offline(options, result);
    else
      perfbench::run_wire(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return result.emit();
}
