// NOUS end-to-end benchmark: command-line entry point.
//
//   nous_perfbench --workload <bulk_build|durable_ingest|serve_under_ingest>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--git-sha <sha>] [--source-sha <sha>]
//
// Prints a run header, the workload's metrics with unit and sample
// count, and as the last stdout line one JSON result. Exits non-zero
// when an output is wrong (e.g. the follower diverged).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "workloads.h"

#ifndef NOUS_PERFBENCH_BUILD_TYPE
#define NOUS_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NOUS_PERFBENCH_COMPILER
#define NOUS_PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "nous_perfbench: %s\nusage: nous_perfbench --workload "
               "<bulk_build|durable_ingest|serve_under_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--git-sha <sha>] [--source-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string git_sha = "unknown", source_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--workdir") {
      ctx.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-sha") {
      source_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (ctx.workdir.empty()) return Usage("--workdir is required");
  if (!(ctx.seconds > 0)) return Usage("--seconds must be positive");
  int (*run)(RunContext*) = nullptr;
  if (ctx.workload == "bulk_build") run = RunBulkBuild;
  if (ctx.workload == "durable_ingest") run = RunDurableIngest;
  if (ctx.workload == "serve_under_ingest") run = RunServeUnderIngest;
  if (run == nullptr) return Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(ctx.workdir, ec);
  // The program's own structured logging would interleave with the
  // result on the terminal; warnings and errors still reach stderr.
  nous::SetLogLevel(nous::LogLevel::kWarning);

  ctx.nproc = Nproc();
  ctx.HeaderString("workload", ctx.workload);
  ctx.HeaderNumber("seed", static_cast<double>(ctx.seed));
  ctx.HeaderNumber("run_seconds", ctx.seconds);
  ctx.HeaderNumber("trace", ctx.trace ? 1 : 0);
  ctx.HeaderString("git_sha", git_sha);
  ctx.HeaderString("source_sha", source_sha);
  ctx.HeaderString("build_type", NOUS_PERFBENCH_BUILD_TYPE);
  ctx.HeaderString("compiler", NOUS_PERFBENCH_COMPILER);
  ctx.HeaderNumber("nproc", static_cast<double>(ctx.nproc));
  ctx.HeaderNumber("pool_threads", static_cast<double>(ctx.nproc));

  const int rc = run(&ctx);
  if (ctx.trace) {
    const std::string path = ctx.workdir + "/trace-" + ctx.workload +
                             "-seed" + std::to_string(ctx.seed) + ".json";
    if (Tracer::Get().WriteChromeJson(path)) {
      ctx.report.Note("trace written to " + path + " (" +
                      std::to_string(Tracer::Get().dropped()) +
                      " spans dropped)");
    } else {
      ctx.report.Fail("could not write trace " + path);
    }
  }
  std::string header = "run header {";
  for (size_t i = 0; i < ctx.header.size(); ++i) {
    if (i > 0) header += ", ";
    header += JsonString(ctx.header[i].first) + ": " + ctx.header[i].second;
  }
  std::printf("%s}\n", header.c_str());
  ctx.report.Print(ctx.trace);
  if (rc != 0) return rc;  // set-up failed; the report says why
  return ctx.report.correct() ? 0 : 1;
}
