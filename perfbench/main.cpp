// idf_perfbench: the repository's benchmark driver.
//
//   idf_perfbench --workload point_lookup|mixed_spill|batch_analytics
//                 --seed N --seconds S --trace 0|1 [--tiny] [--out-dir D]
//
// Prints what it measured by name and unit, then, as its last line, one
// JSON object: run context, operations attempted/failed, correctness, and
// every metric. Untraced runs measure the end-to-end metrics; a traced run
// records spans around each layer call and reports the per-layer metrics.
// Exits 1 on any wrong result or failed conservation check.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/build_info.h"

using namespace perfbench;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: idf_perfbench --workload point_lookup|mixed_spill|"
               "batch_analytics --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out-dir D]\n");
}

bool ParseArgs(int argc, char** argv, RunOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && (v = value())) {
      opt.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      opt.trace = std::atoi(v) != 0;
    } else if (arg == "--out-dir" && (v = value())) {
      opt.out_dir = v;
    } else {
      return false;
    }
  }
  return (opt.workload == "point_lookup" || opt.workload == "mixed_spill" ||
          opt.workload == "batch_analytics") &&
         opt.seconds > 0;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);

  MetricSheet sheet;
  RunContext ctx;
  Outcome outcome;
  const bool ok = opt.workload == "batch_analytics"
                      ? RunBatchWorkload(opt, sheet, ctx, outcome)
                      : RunServing(opt, sheet, ctx, outcome);

  // setup_s: the median set-up, so one cold first set-up in a process does
  // not decide it; every sample is printed with the context.
  std::vector<double> setups = ctx.setup_samples_s;
  Latencies setup;
  for (double s : setups) setup.Add(s);
  sheet.Set("setup_s", setup.Quantile(0.5), "s");
  sheet.Set("peak_rss_mb", PeakRssMb(), "MB");

  const idf::obs::BuildInfo& build = idf::obs::GetBuildInfo();
  std::string setup_list;
  for (size_t i = 0; i < setups.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", setups[i]);
    setup_list += buf;
  }
  std::string fault_list;
  for (size_t i = 0; i < ctx.setup_minor_faults.size(); ++i) {
    fault_list += (i ? ", " : "") + std::to_string(ctx.setup_minor_faults[i]);
  }
  const std::string context =
      "{\"workload\": " + Quote(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + std::to_string(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "true" : "false") +
      ", \"tiny\": " + (opt.tiny ? "true" : "false") +
      ", \"git_sha\": " + Quote(build.git_sha) +
      ", \"build_type\": " + Quote(build.build_type) +
      ", \"sanitizer\": " + Quote(build.sanitizer) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"rows\": " + std::to_string(ctx.rows) +
      ", \"distinct_keys\": " + std::to_string(ctx.distinct_keys) +
      ", \"clients\": " + std::to_string(ctx.clients) +
      ", \"probe_rows\": " + std::to_string(ctx.probe_rows) +
      ", \"governed_table_bytes\": " + std::to_string(ctx.governed_table_bytes) +
      ", \"budget_bytes\": " + std::to_string(ctx.budget_bytes) +
      ", \"setup_samples_s\": [" + setup_list + "]" +
      ", \"setup_minor_faults\": [" + fault_list + "]" +
      ", \"serving_steal_pct\": " + std::to_string(ctx.serving_steal_pct) +
      ", \"quiet_windows\": " + std::to_string(ctx.quiet_windows) + "}";

  std::printf("context: %s\n", context.c_str());
  sheet.Print();
  for (const std::string& e : outcome.first_errors) {
    std::fprintf(stderr, "%s\n", e.c_str());
  }
  const bool correct = ok && outcome.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"mismatches\": %llu, \"context\": %s, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.mismatches),
              context.c_str(), sheet.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
