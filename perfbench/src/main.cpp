// perfbench — host wall-clock benchmark of the paper pipelines and the
// fleet simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--git-sha SHA] [--build-flags FLAGS]
//
// One process runs one workload: a seeded, fixed job list as a closed
// loop with one client (the next job starts when the previous returns).
// --seconds sizes the list: whole passes of the workload's job pass, timed
// in up to five equal blocks; the best block gives the timing metrics.
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// runs one pass of the list three times — untraced, traced at the pool
// width, traced at width 1 — prints the per-layer metrics, and writes the
// span dump to DIR/spans.json. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 with a result line; 2 on bad arguments; 3 when a
// structural check fails (mirror fidelity, width 1 == width N, recording
// on == off, simulator counts across runs), with no result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/json_util.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kEdgeExact;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string git_sha = "unknown";
  std::string build_flags = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--scratch") {
      a.scratch = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--build-flags") {
      a.build_flags = val;
    } else {
      return false;
    }
  }
  return have_workload && !a.scratch.empty() && argc % 2 == 1;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiled_isa() {
  std::string isa;
#if defined(__AVX512F__)
  isa += " avx512f";
#endif
#if defined(__AVX2__)
  isa += " avx2";
#endif
#if defined(__FMA__)
  isa += " fma";
#endif
#if defined(__SSE4_2__)
  isa += " sse4.2";
#endif
  return isa.empty() ? "baseline" : isa.substr(1);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// The untimed job list's shape: whole passes of the job pass, split into
/// `blocks` timing blocks of `passes / blocks` passes each.
struct ListShape {
  std::size_t passes = 1;
  std::size_t blocks = 1;
};

/// Passes that fill `seconds` at the nominal pass cost (and give at least
/// 11 jobs), split into up to five blocks of at least 40 jobs, so a
/// block's tail is p75 or higher (see tail_rank); passes round down to a
/// multiple of the blocks.
ListShape list_shape(Workload w, double seconds) {
  const std::size_t pass = pass_length(w);
  ListShape shape;
  shape.passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(seconds / nominal_pass_seconds(w))));
  while (shape.passes * pass < 11) shape.passes += 1;
  for (std::size_t b = 5; b > 1; --b) {
    if ((shape.passes / b) * pass >= 40) {
      shape.blocks = b;
      shape.passes -= shape.passes % b;
      break;
    }
  }
  return shape;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %22s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// The default-budget fleet job may be rejected with a named
/// precondition (ROADMAP item 4's open defect) — an allowed outcome that
/// still counts against completed_ratio. Anything else is a failure.
bool known_rejection(const JobSpec& job, const JobOutcome& out) {
  return job.default_budget && !out.ok &&
         out.error.find("precondition failed: opts.total_samples >= "
                        "parts.size()") != std::string::npos;
}

struct CheckSummary {
  std::size_t completed = 0;  ///< returned a model that passed every check
  std::size_t rejected = 0;   ///< the known default-budget rejection
  std::size_t failed = 0;
  std::vector<double> costs;     ///< normalized cost of completed jobs
  std::vector<double> job_cost;  ///< per job; 0 when not completed
};

CheckSummary check_all(Workload w, const Setup& setup,
                       const std::vector<JobSpec>& jobs,
                       const std::vector<JobOutcome>& outs) {
  CheckSummary s;
  s.job_cost.assign(jobs.size(), 0.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    double cost = 0.0;
    const std::string why = check_job(w, setup, jobs[i], outs[i], &cost);
    if (why.empty()) {
      s.completed += 1;
      s.costs.push_back(cost);
      s.job_cost[i] = cost;
    } else if (known_rejection(jobs[i], outs[i])) {
      s.rejected += 1;
    } else {
      s.failed += 1;
      std::fprintf(stderr, "job %zu (%s) failed: %s\n", i,
                   jobs[i].label.c_str(), why.c_str());
    }
  }
  return s;
}

void print_checks(const CheckSummary& c, std::size_t attempted) {
  std::printf("jobs: %zu attempted, %zu completed, %zu rejected (known "
              "default-budget defect), %zu failed\n",
              attempted, c.completed, c.rejected, c.failed);
}

/// Per job label: median wall and device seconds, mean uplink bits and
/// the largest normalized cost — the per-pipeline numbers, with and
/// without QT.
void print_per_pipeline(const std::vector<JobSpec>& jobs,
                        const std::vector<JobOutcome>& outs,
                        const CheckSummary& checks) {
  std::vector<std::string> labels;
  for (const JobSpec& j : jobs) {
    if (std::find(labels.begin(), labels.end(), j.label) == labels.end()) {
      labels.push_back(j.label);
    }
  }
  std::printf("  %-22s %5s %12s %13s %13s %9s\n", "pipeline", "jobs",
              "wall_p50_s", "device_p50_s", "uplink_bits", "cost_max");
  for (const std::string& label : labels) {
    std::vector<double> wall, device, bits;
    double cost_max = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].label != label) continue;
      wall.push_back(outs[i].wall_s);
      cost_max = std::max(cost_max, checks.job_cost[i]);
      if (outs[i].ok) {
        device.push_back(outs[i].result.device_seconds);
        bits.push_back(static_cast<double>(outs[i].result.uplink.bits));
      }
    }
    std::printf("  %-22s %5zu %12.6g %13.6g %13.6g %9.4f\n", label.c_str(),
                wall.size(), median(wall), median(device), mean(bits),
                cost_max);
  }
}

void print_header(const Args& a, std::size_t width,
                  const std::vector<JobSpec>& jobs) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  const auto str = [](const std::string& v) {
    return "\"" + ekm::json_escape(v) + "\"";
  };
  std::string prov = "{\"git_sha\": " + str(a.git_sha);
  prov += ", \"compiler\": " + str(compiler());
  prov += ", \"build_flags\": " + str(a.build_flags);
  prov += ", \"cpu_model\": " + str(cpu_model());
  prov += ", \"isa\": " + str(compiled_isa());
  prov += ", \"nproc\": " + std::to_string(online_cpus());
  prov += ", \"pool_width\": " + std::to_string(width);
  prov += ", \"seed\": " + std::to_string(a.seed) + "}";
  std::printf("provenance %s\n", prov.c_str());
  std::printf("job list: %zu jobs, closed loop, one client:", jobs.size());
  for (std::size_t i = 0; i < jobs.size() && i < 16; ++i) {
    std::printf(" %s", jobs[i].label.c_str());
  }
  std::printf("%s\n", jobs.size() > 16 ? " ..." : "");
}

// --------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

/// Timing statistics of one block of consecutive jobs.
struct BlockTimes {
  std::size_t jobs = 0;
  double jobs_per_s = 0.0;
  double p50 = 0.0;
  double tail = 0.0;  ///< see tail_rank()
  double tail_pct = 0.0;
  std::size_t beyond_tail = 0;  ///< jobs slower than the tail
  double device_p50 = 0.0;  ///< over completed jobs
  double server_p50 = 0.0;  ///< wall minus device, over completed jobs
};

/// The 1-based nearest rank of job_tail_s in a block of `n` jobs: the
/// highest percentile with ten jobs beyond it. A block too small for that
/// to be p75 or above (edge_exact's 12 jobs) takes p90 instead, with fewer
/// than ten jobs beyond it.
std::size_t tail_rank(std::size_t n) {
  const std::size_t rank = n - 10;
  return 4 * rank >= 3 * n ? rank : (9 * n + 9) / 10;
}

/// Times each block of the job list's passes (the default-budget fleet
/// job runs after the last block and is in none). Every block has the
/// same job mix.
std::vector<BlockTimes> block_times(Workload w, const ListShape& shape,
                                    const std::vector<JobOutcome>& outs,
                                    const std::vector<double>& end_s) {
  const std::size_t block_jobs = shape.passes / shape.blocks * pass_length(w);
  std::vector<BlockTimes> blocks;
  const std::size_t timed_jobs = shape.passes * pass_length(w);
  for (std::size_t begin = 0; begin + block_jobs <= timed_jobs;
       begin += block_jobs) {
    std::vector<double> wall, device, server;
    for (std::size_t i = begin; i < begin + block_jobs; ++i) {
      wall.push_back(outs[i].wall_s);
      if (!outs[i].ok) continue;
      device.push_back(outs[i].result.device_seconds);
      server.push_back(outs[i].wall_s - outs[i].result.device_seconds);
    }
    BlockTimes t;
    t.jobs = block_jobs;
    const double start = begin == 0 ? 0.0 : end_s[begin - 1];
    t.jobs_per_s = static_cast<double>(block_jobs) /
                   (end_s[begin + block_jobs - 1] - start);
    t.p50 = median(wall);
    std::sort(wall.begin(), wall.end());
    const std::size_t rank = tail_rank(block_jobs);
    t.tail = wall[rank - 1];
    t.tail_pct = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(block_jobs);
    t.beyond_tail = block_jobs - rank;
    t.device_p50 = median(device);
    t.server_p50 = median(server);
    blocks.push_back(t);
  }
  return blocks;
}

int run_untraced(const Args& a, std::size_t width) {
  const Workload w = a.workload;
  const ListShape shape = list_shape(w, a.seconds);
  const std::vector<JobSpec> jobs = make_job_list(w, a.seed, shape.passes);
  print_header(a, width, jobs);

  // Set-up, three times: data generation, partitioning, the X* solve and
  // one untimed warm-up job (the first of the list). The median is
  // setup_s; the last set-up serves the jobs (all three are identical).
  std::vector<double> setup_times;
  Setup setup;
  for (int r = 0; r < 3; ++r) {
    ekm::Timer t;
    setup = make_setup(w, a.seed, nullptr);
    (void)run_job(w, setup, jobs.front(), a.scratch, nullptr);
    setup_times.push_back(t.seconds());
  }

  std::vector<JobOutcome> outs;
  outs.reserve(jobs.size());
  std::vector<double> end_s;  // loop clock when each job returned
  ekm::Timer loop;
  for (const JobSpec& job : jobs) {
    ekm::Timer t;
    JobOutcome out = run_job(w, setup, job, a.scratch, nullptr);
    out.wall_s = t.seconds();
    outs.push_back(std::move(out));
    end_s.push_back(loop.seconds());
  }

  CheckSummary checks = check_all(w, setup, jobs, outs);
  bool structural_ok = true;
  if (w == Workload::kFleetExplain) {
    // Recording on == off: the first pass's recorded centers against the
    // same jobs run recorder-off (as fleet_sim runs them), after the timed
    // loop. A traced run checks every job of its pass the same way.
    for (std::size_t i = 0; i < pass_length(w); ++i) {
      if (!outs[i].ok) continue;
      const JobOutcome ref =
          run_job(Workload::kFleetSim, setup, jobs[i], a.scratch, nullptr);
      if (!same_bits(ref.result.centers, outs[i].result.centers)) {
        std::fprintf(stderr, "job %zu (%s): recording on != off\n", i,
                     jobs[i].label.c_str());
        structural_ok = false;
      }
    }
  }
  if (!structural_ok) return 3;

  std::vector<double> bits;
  for (const JobOutcome& o : outs) {
    if (o.ok) bits.push_back(static_cast<double>(o.result.uplink.bits));
  }
  const std::size_t n = jobs.size();
  // The timing metrics all come from one block, the one with the highest
  // jobs_per_s: the repository reports wall-clock numbers best-of-N, and a
  // slow spell of a shared host inside the run stays out of its figures.
  const std::vector<BlockTimes> blocks = block_times(w, shape, outs, end_s);
  std::size_t best_block = 0;
  std::printf("  %-5s %5s %12s %12s %12s %14s %14s\n", "block", "jobs",
              "jobs_per_s", "job_p50_s", "job_tail_s", "device_p50_s",
              "server_p50_s");
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockTimes& t = blocks[b];
    std::printf("  %-5zu %5zu %12.6g %12.6g %12.6g %14.6g %14.6g\n", b, t.jobs,
                t.jobs_per_s, t.p50, t.tail, t.device_p50, t.server_p50);
    if (t.jobs_per_s > blocks[best_block].jobs_per_s) best_block = b;
  }
  const BlockTimes& best = blocks[best_block];
  print_checks(checks, n);
  print_per_pipeline(jobs, outs, checks);
  std::printf("timing metrics: block %zu of %zu (whole passes), the one with "
              "the highest jobs_per_s; job_tail_s is p%.1f of its %zu jobs "
              "(%zu jobs beyond it)\n",
              best_block, blocks.size(), best.tail_pct, best.jobs,
              best.beyond_tail);

  const std::vector<Metric> metrics = {
      {"jobs_per_s", best.jobs_per_s, "1/s"},
      {"job_p50_s", best.p50, "s"},
      {"job_tail_s", best.tail, "s"},
      {"device_p50_s", best.device_p50, "s"},
      {"server_p50_s", best.server_p50, "s"},
      {"uplink_bits_per_job", mean(bits), "bit"},
      {"norm_cost_mean", mean(checks.costs), "ratio"},
      {"completed_ratio",
       static_cast<double>(checks.completed) / static_cast<double>(n), "ratio"},
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_result(checks.failed == 0 && checks.completed > 0, n, checks.failed,
               metrics);
  return 0;
}

// --------------------------------------------------------------------------
// --trace 1: per-layer metrics.

struct TracedPass {
  std::size_t width = 1;
  Tracer tracer;
  std::vector<JobOutcome> outs;
  double jobs_per_s = 0.0;
};

void run_traced_pass(const Args& a, const std::vector<JobSpec>& jobs,
                     TracedPass& pass) {
  ekm::set_parallel_threads(pass.width);
  Tracer& tr = pass.tracer;
  const Setup setup = make_setup(a.workload, a.seed, &tr);
  (void)run_job(a.workload, setup, jobs.front(), a.scratch, nullptr);
  ekm::Timer loop;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tr.set_job(static_cast<int>(i));
    JobOutcome out;
    // The job's wall time comes from its own timer, around the root span,
    // so the span dump check compares the spans against an independent
    // clock reading; the difference is the time outside the root span.
    ekm::Timer job_timer;
    {
      Scope job_scope(&tr, "job");
      out = run_job(a.workload, setup, jobs[i], a.scratch, &tr);
    }
    out.wall_s = job_timer.seconds();
    pass.outs.push_back(std::move(out));
  }
  pass.jobs_per_s = static_cast<double>(jobs.size()) / loop.seconds();
  tr.set_job(kSetupJob);
}

/// Σ self seconds of spans named `name` on jobs (or, with
/// `setup` set, on the set-up), per attempted job.
double self_per_job(const TracedPass& p, const std::vector<double>& self,
                    const char* name, bool setup = false) {
  double total = 0.0;
  const auto& spans = p.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    if ((spans[i].job == kSetupJob) != setup) continue;
    total += self[i];
  }
  return setup ? total : total / static_cast<double>(p.outs.size());
}

double inclusive_per_job(const TracedPass& p, const char* name) {
  double total = 0.0;
  for (const Span& s : p.tracer.spans()) {
    if (s.job != kSetupJob && std::strcmp(s.name, name) == 0) {
      total += s.end_s - s.start_s;
    }
  }
  return total / static_cast<double>(p.outs.size());
}

double count_per_job(const TracedPass& p, const char* name) {
  double total = 0.0;
  for (const auto& [job, counts] : p.tracer.counts()) {
    if (job == kSetupJob) continue;
    const auto it = counts.find(name);
    if (it != counts.end()) total += it->second;
  }
  return total / static_cast<double>(p.outs.size());
}

/// The layer times of one traced pass, in metric order.
std::vector<std::pair<std::string, double>> layer_times(const TracedPass& p) {
  const std::vector<double> self = p.tracer.self_seconds();
  const auto s = [&](const char* name) { return self_per_job(p, self, name); };
  const double sim_run = s("sim.run");
  const double twin = inclusive_per_job(p, "sim.sync_twin");
  const double recorded = s("obs.recorded_run");
  return {
      {"data.generate", self_per_job(p, self, "data.generate", true)},
      {"linalg.thin_svd", s("linalg.thin_svd")},
      {"linalg.matmul", s("linalg.matmul")},
      {"dr.jl_apply", s("dr.jl_apply")},
      {"dr.lift", s("dr.lift")},
      {"cr.sensitivity", s("cr.sensitivity")},
      {"qt.quantize", s("qt.quantize")},
      {"net.encode", s("net.encode")},
      {"net.decode", s("net.decode")},
      {"kmeans.solve", s("kmeans.solve")},
      {"distributed.dispca", s("distributed.dispca")},
      {"distributed.project", s("distributed.project")},
      {"distributed.disss", s("distributed.disss")},
      {"sim.run", sim_run},
      {"sim.sync_twin", twin},
      {"sim.overhead", twin > 0.0 ? sim_run - twin : 0.0},
      {"obs.record_overhead", recorded > 0.0 ? recorded - sim_run : 0.0},
      {"obs.trace_write", s("obs.trace_write")},
      {"obs.metrics_write", s("obs.metrics_write")},
      {"obs.attribute", s("obs.attribute")},
      {"job.unattributed", s("job")},
  };
}

bool write_span_dump(const std::string& path, const Args& a,
                     const std::vector<JobSpec>& jobs,
                     const std::vector<const TracedPass*>& passes) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload_name(a.workload) << "\", \"seed\": "
      << a.seed << ", \"passes\": [";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const TracedPass& pass = *passes[p];
    const std::vector<double> self = pass.tracer.self_seconds();
    out << (p > 0 ? ", " : "") << "{\"width\": " << pass.width
        << ", \"jobs\": [";
    for (std::size_t j = 0; j < pass.outs.size(); ++j) {
      out << (j > 0 ? ", " : "") << "{\"job\": " << j << ", \"label\": \""
          << jobs[j].label << "\", \"wall_s\": " << fmt(pass.outs[j].wall_s)
          << "}";
    }
    out << "], \"spans\": [";
    const auto& spans = pass.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << (i > 0 ? ", " : "") << "{\"name\": \"" << spans[i].name
          << "\", \"start_s\": " << fmt(spans[i].start_s)
          << ", \"end_s\": " << fmt(spans[i].end_s)
          << ", \"parent\": " << spans[i].parent << ", \"job\": "
          << spans[i].job << ", \"self_s\": " << fmt(self[i]) << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int run_traced(const Args& a, std::size_t width) {
  const Workload w = a.workload;
  // One pass of the job list per section keeps the span dump small (a
  // fleet job records a few thousand per-site spans).
  const std::vector<JobSpec> jobs = make_job_list(w, a.seed, 1);
  print_header(a, width, jobs);

  // Untraced pass at width N: the reference outputs and jobs_per_s.
  ekm::set_parallel_threads(width);
  std::vector<JobOutcome> plain;
  const Setup setup = make_setup(w, a.seed, nullptr);
  (void)run_job(w, setup, jobs.front(), a.scratch, nullptr);
  ekm::Timer loop;
  for (const JobSpec& job : jobs) {
    plain.push_back(run_job(w, setup, job, a.scratch, nullptr));
  }
  const double untraced_jps = static_cast<double>(jobs.size()) / loop.seconds();
  const CheckSummary checks = check_all(w, setup, jobs, plain);
  print_checks(checks, jobs.size());

  TracedPass wide;
  wide.width = width;
  run_traced_pass(a, jobs, wide);
  TracedPass single;
  single.width = 1;
  run_traced_pass(a, jobs, single);
  ekm::set_parallel_threads(width);

  bool structural_ok = true;
  const auto fail = [&](std::size_t i, const char* what) {
    std::fprintf(stderr, "job %zu (%s): %s\n", i, jobs[i].label.c_str(), what);
    structural_ok = false;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& p = plain[i];
    const JobOutcome& t = wide.outs[i];
    const JobOutcome& t1 = single.outs[i];
    if (p.ok != t.ok || t.ok != t1.ok) {
      fail(i, "job outcome differs between passes");
      continue;
    }
    if (!t.ok) {
      if (t.error.find("recording changed") != std::string::npos ||
          t1.error.find("recording changed") != std::string::npos) {
        fail(i, "recording on != off");
      }
      continue;
    }
    if (!is_fleet(w) && !same_result(p.result, t.result)) {
      fail(i, "mirror differs from the library pipeline");
    }
    if (!same_bits(t.result.centers, t1.result.centers)) {
      fail(i, "centers differ between width 1 and width N");
    }
    if (!same_sim_counts(p.sim, t.sim) || !same_sim_counts(t.sim, t1.sim)) {
      fail(i, "simulator counts differ across runs or widths");
    }
  }
  const std::string dump = a.scratch + "/spans.json";
  if (!write_span_dump(dump, a, jobs, {&wide, &single})) {
    std::fprintf(stderr, "cannot write %s\n", dump.c_str());
    structural_ok = false;
  }
  if (!structural_ok) return 3;
  std::printf("span dump: %s\n", dump.c_str());

  std::vector<Metric> metrics;
  const auto wide_times = layer_times(wide);
  const auto single_times = layer_times(single);
  for (const auto& [name, value] : wide_times) {
    metrics.push_back({name + "_s", value, "s"});
  }
  for (const auto& [name, value] : single_times) {
    metrics.push_back({name + "_t1_s", value, "s"});
  }
  double attempts = 0, lost = 0, misses = 0, queue = 0, server_vs = 0,
         trace_bytes = 0, rec_spans = 0;
  for (const JobOutcome& o : wide.outs) {
    attempts += o.sim.uplink_attempts;
    lost += o.sim.lost_attempts;
    misses += o.sim.deadline_misses;
    queue += o.sim.queue_high_water;
    server_vs += o.sim.server_completion_vs;
    trace_bytes += o.sim.trace_bytes;
    rec_spans += o.sim.recorded_spans;
  }
  const double jobs_n = static_cast<double>(jobs.size());
  const auto per_job = [&](const char* name) {
    return count_per_job(wide, name);
  };
  const std::vector<Metric> counts = {
      {"linalg.thin_svd_calls", per_job("linalg.thin_svd_calls"), "count"},
      {"cr.summary_points", per_job("cr.summary_points"), "count"},
      {"net.uplink_messages", per_job("net.uplink_messages"), "count"},
      {"net.downlink_bits", per_job("net.downlink_bits"), "bit"},
      {"kmeans.solve_iters", per_job("kmeans.solve_iters"), "count"},
      {"sim.uplink_attempts", attempts / jobs_n, "count"},
      {"sim.retx_ratio", attempts > 0 ? lost / attempts : 0.0, "ratio"},
      {"sim.deadline_misses", misses / jobs_n, "count"},
      {"sim.queue_high_water", queue / jobs_n, "count"},
      {"sim.server_completion_vs", server_vs / jobs_n, "virtual_s"},
      {"obs.trace_bytes", trace_bytes / jobs_n, "byte"},
      {"obs.recorded_spans", rec_spans / jobs_n, "count"},
      {"trace.untraced_jobs_per_s", untraced_jps, "1/s"},
      {"trace.traced_jobs_per_s", wide.jobs_per_s, "1/s"},
  };
  metrics.insert(metrics.end(), counts.begin(), counts.end());
  std::printf("tracing overhead: %.4g jobs/s traced vs %.4g untraced\n",
              wide.jobs_per_s, untraced_jps);
  print_result(checks.failed == 0 && checks.completed > 0, jobs.size(),
               checks.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload edge_exact|edge_jl|fleet_sim|"
                 "fleet_explain --seed N --seconds S --trace 0|1 --scratch DIR "
                 "[--git-sha SHA] [--build-flags FLAGS]\n");
    return 2;
  }
  std::filesystem::create_directories(args.scratch);
  const std::size_t width = std::min<std::size_t>(perfbench::online_cpus(), 4);
  ekm::set_parallel_threads(width);
  return args.trace ? perfbench::run_traced(args, width)
                    : perfbench::run_untraced(args, width);
}
