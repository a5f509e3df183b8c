// The benchmark's workloads: seeded inputs, the fixed job list, how one
// job runs (untraced: the library's own entry points; traced: the mirror
// and the simulator with layer spans), and the per-job output checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "tracer.hpp"

namespace perfbench {

enum class Workload { kEdgeExact, kEdgeJl, kFleetSim, kFleetExplain };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] bool is_fleet(Workload w);

/// Host seconds one pass of the job list took on a 4-core Xeon at pool
/// width 4. It only sizes the fixed job list from --seconds, so the list,
/// and every metric's sample count, depends on --seconds alone.
[[nodiscard]] double nominal_pass_seconds(Workload w);

/// Jobs in one pass of the workload's job list.
[[nodiscard]] std::size_t pass_length(Workload w);

/// One entry of the job list.
struct JobSpec {
  ekm::PipelineKind kind = ekm::PipelineKind::kFss;
  int significant_bits = 52;  ///< 52 = QT off
  std::uint64_t seed = 0;
  /// Fleet only: run at the library's default sample budget, which hits
  /// the known `opts.total_samples >= parts.size()` precondition at
  /// 2,048 sites (a defect the benchmark keeps visible in completed_ratio).
  bool default_budget = false;
  std::size_t input = 0;  ///< index into Setup::inputs
  std::string label;
};

/// One data draw and its ground truth.
struct Input {
  ekm::Dataset data;
  std::vector<ekm::Dataset> parts;  ///< the sources' shards of `data`
  double baseline_cost = 0.0;       ///< cost(P, X*), X* solved on all of P
};

/// Inputs shared by the jobs of a run: several data draws, which jobs
/// take in turn, so one run's figures do not hinge on a single draw.
struct Setup {
  std::vector<Input> inputs;
};

/// Generates the workload's inputs from `seed` and solves X* on each.
/// Data generation runs inside "data.generate" spans.
[[nodiscard]] Setup make_setup(Workload w, std::uint64_t seed, Tracer* tracer);

/// `passes` repetitions of the workload's job pass; the fleet workloads
/// append exactly one default-budget job.
[[nodiscard]] std::vector<JobSpec> make_job_list(Workload w, std::uint64_t seed,
                                                 std::size_t passes);

/// Per-job simulator and recorder counters (zero on edge workloads).
struct SimCounts {
  // Simulator counts: deterministic, so equal across runs and widths.
  double uplink_attempts = 0;
  double lost_attempts = 0;
  double deadline_misses = 0;
  double queue_high_water = 0;
  double server_completion_vs = 0;
  // Recorder output. The trace carries host-clock kernel spans, so its
  // byte size varies run to run.
  double trace_bytes = 0;
  double recorded_spans = 0;
  bool attribution_matches = true;
};

/// Equality of the deterministic simulator counts.
[[nodiscard]] bool same_sim_counts(const SimCounts& a, const SimCounts& b);

struct JobOutcome {
  bool ok = false;
  std::string error;  ///< why the job failed (throw or check)
  double wall_s = 0.0;
  ekm::PipelineResult result;
  SimCounts sim;
};

/// Runs one job. Untraced (tracer null): the library's
/// run_pipeline / run_distributed_pipeline / Coordinator::run, plus the
/// exporters and attribution on fleet_explain. Traced: edge jobs run the
/// mirror; fleet jobs run Coordinator::run under "sim.run" and the same
/// parts and config through the synchronous Network under
/// "sim.sync_twin"; fleet_explain also runs the recorded job under
/// "obs.recorded_run". precondition_error / invariant_error mark the job
/// failed; the run goes on.
[[nodiscard]] JobOutcome run_job(Workload w, const Setup& setup,
                                 const JobSpec& job,
                                 const std::string& scratch_dir,
                                 Tracer* tracer);

/// The per-job output checks: centers finite and k x d, normalized cost
/// under the family's bound, uplink ledger against the billing of the
/// received summary, and (fleet_explain) attribution matching the
/// reported critical path. Returns "" when every check passes.
[[nodiscard]] std::string check_job(Workload w, const Setup& setup,
                                    const JobSpec& job, const JobOutcome& out,
                                    double* normalized_cost);

/// Bitwise equality of two matrices (shape and every bit of every entry).
[[nodiscard]] bool same_bits(const ekm::Matrix& a, const ekm::Matrix& b);

/// Bitwise equality of two pipeline results: centers, both ledgers and
/// the summary size.
[[nodiscard]] bool same_result(const ekm::PipelineResult& a,
                               const ekm::PipelineResult& b);

/// The pipeline configuration a job runs with.
[[nodiscard]] ekm::PipelineConfig job_config(Workload w, const JobSpec& job);

}  // namespace perfbench
