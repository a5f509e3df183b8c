#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "mirror.hpp"
#include "net/summary_codec.hpp"
#include "obs/attribution.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "qt/quantizer.hpp"
#include "sim/coordinator.hpp"

namespace perfbench {
namespace {

using namespace ekm;

// --- edge_*: the MNIST-shaped stand-in, the paper's m = 10 sources. ---
constexpr std::size_t kEdgeN = 2000;
constexpr std::size_t kEdgeD = 784;
constexpr std::size_t kEdgeK = 2;
constexpr std::size_t kEdgeSources = 10;

// --- fleet_*: a 2,048-site tree of tiny shards. ---
constexpr std::size_t kFleetSites = 2048;
constexpr std::size_t kFleetPointsPerSite = 8;
constexpr std::size_t kFleetD = 16;
constexpr std::size_t kFleetK = 4;
/// `ekm --coreset-size` default: below the fleet size, so a default-budget
/// run trips disSS's `total_samples >= parts.size()` precondition.
constexpr std::size_t kCliDefaultCoresetSize = 300;
/// Wi-Fi with 5% per-attempt loss, a 1% straggling tail at 1/100 speed,
/// a 2 s round deadline, give-up retries and cross-round pipelining.
/// Sized so that every job retransmits and misses deadlines (about 20
/// stragglers per seed); check_job holds every fleet job to that.
constexpr const char* kFleetScenario =
    "radio=wifi,loss=0.05,stragglers=0.01,slowdown=100,sps=1e-4,deadline=2,"
    "retry=giveup,pipeline=on,event-log=off,topology=tree,branching=32";

/// Data draws per run.
constexpr std::size_t kInputs = 4;

/// The QT width of the jobs that quantize: low enough that QT changes
/// both the uplink bits and the centers.
constexpr int kLowBits = 8;

/// Normalized-cost bound of the FSS / BKLW / NR family: the pipelines
/// target (1 + epsilon).
constexpr double kEpsilon = 0.3;
/// Normalized-cost bound of the JL family (JL+FSS, JL+FSS+JL, JL+BKLW,
/// FSS+JL) on the MNIST-shaped input. The JL lift loses the center
/// component orthogonal to the projection's row space, so the family sits
/// near 1.2: the largest of about 1,400 such jobs over seeds 101-106 was
/// 1.25. 1.35 leaves room for seed noise but fails a lift that loses
/// much more.
constexpr double kJlCostBound = 1.35;
/// The same bound on the fleet. There JL+BKLW's 16 x 16 Gaussian map
/// (practical_jl_dim clamps to d = 16) distorts the mixture enough that
/// the server solve occasionally settles in a merged-cluster local
/// optimum: one of about 430 jobs over seeds 101-106 scored 2.74, the
/// rest at most 1.24. edge_jl holds the lift to kJlCostBound; here the
/// bound only rejects centers that fit no clustering at all.
constexpr double kFleetJlCostBound = 4.0;

std::size_t workload_k(Workload w) { return is_fleet(w) ? kFleetK : kEdgeK; }

bool is_jl_family(PipelineKind kind) {
  return kind == PipelineKind::kJlFss || kind == PipelineKind::kFssJl ||
         kind == PipelineKind::kJlFssJl || kind == PipelineKind::kJlBklw;
}

std::string job_label(PipelineKind kind, int bits) {
  std::string s = pipeline_name(kind);
  if (bits < kDoubleSignificandBits) s += "+QT" + std::to_string(bits);
  return s;
}

std::vector<std::pair<PipelineKind, int>> job_pass(Workload w) {
  using K = PipelineKind;
  switch (w) {
    case Workload::kEdgeExact:
      return {{K::kBklw, 52},       {K::kFss, 52},       {K::kFssJl, 52},
              {K::kBklw, kLowBits}, {K::kFss, kLowBits}, {K::kFssJl, kLowBits}};
    case Workload::kEdgeJl:
      // Algorithms 1 and 3 run twice per pass: with the single-source JL
      // pipelines the majority, the median job is one of them instead of
      // falling in the gap between two pipelines' costs.
      return {{K::kJlFss, 52},        {K::kJlFssJl, 52},
              {K::kJlBklw, 52},       {K::kNoReduction, 52},
              {K::kJlFss, kLowBits},  {K::kJlFssJl, kLowBits},
              {K::kJlFss, 52},        {K::kJlFssJl, 52},
              {K::kJlBklw, kLowBits}, {K::kNoReduction, kLowBits},
              {K::kJlFss, kLowBits},  {K::kJlFssJl, kLowBits}};
    case Workload::kFleetSim:
    case Workload::kFleetExplain:
      return {{K::kBklw, 52},
              {K::kJlBklw, 52},
              {K::kBklw, kLowBits},
              {K::kJlBklw, kLowBits}};
  }
  return {};
}

/// RAII install of a recorder on the process-global kernel-span hook.
class InstalledRecorder {
 public:
  explicit InstalledRecorder(Recorder& rec) { install_recorder(&rec); }
  InstalledRecorder(const InstalledRecorder&) = delete;
  InstalledRecorder& operator=(const InstalledRecorder&) = delete;
  ~InstalledRecorder() { install_recorder(nullptr); }
};

void copy_sim_counts(const SimReport& report, SimCounts& c) {
  c.uplink_attempts = static_cast<double>(report.uplink_stats.attempts);
  c.lost_attempts = static_cast<double>(report.uplink_stats.drops);
  c.deadline_misses = static_cast<double>(report.deadline_misses);
  c.queue_high_water = static_cast<double>(report.queue_high_water);
  c.server_completion_vs = report.server_completion_seconds;
}

/// The --explain user path after a recorded run: Chrome trace, metrics
/// JSONL, attribution and its JSON rendering.
void export_and_explain(const Recorder& rec, const SimReport& report,
                        const std::string& scratch_dir, Tracer* tracer,
                        SimCounts& c) {
  const std::string trace_path = scratch_dir + "/fleet_explain.trace.json";
  const std::string metrics_path = scratch_dir + "/fleet_explain.metrics.jsonl";
  const bool trace_ok = traced(tracer, "obs.trace_write", [&] {
    return write_chrome_trace(rec, trace_path);
  });
  const bool metrics_ok = traced(tracer, "obs.metrics_write", [&] {
    return write_metrics_jsonl(rec, metrics_path);
  });
  EKM_ENSURES_MSG(trace_ok && metrics_ok, "recorder export failed");
  const std::string explain = traced(tracer, "obs.attribute", [&] {
    return render_explain_json(attribute_run(rec),
                               report.server_critical_path_seconds);
  });
  c.attribution_matches =
      explain.find("\"matches_reported\": true") != std::string::npos;
  c.trace_bytes = static_cast<double>(std::filesystem::file_size(trace_path));
  c.recorded_spans = static_cast<double>(rec.spans().size());
}

JobOutcome run_fleet_job(Workload w, const Input& in, const JobSpec& job,
                         const std::string& scratch_dir, Tracer* tracer) {
  JobOutcome out;
  const PipelineConfig cfg = job_config(w, job);
  const Coordinator coord(parse_scenario(std::string(kFleetScenario) +
                                         ",seed=" + std::to_string(job.seed)));
  const bool traced_run = tracer != nullptr;
  if (w == Workload::kFleetExplain) {
    Recorder rec;
    PipelineConfig rec_cfg = cfg;
    rec_cfg.recorder = &rec;
    const SimReport report = traced(tracer, "obs.recorded_run", [&] {
      InstalledRecorder installed(rec);
      return coord.run(job.kind, in.parts, rec_cfg);
    });
    export_and_explain(rec, report, scratch_dir, tracer, out.sim);
    copy_sim_counts(report, out.sim);
    out.result = report.result;
  }
  if (w == Workload::kFleetSim || traced_run) {
    // fleet_explain runs this only when traced: the recorder-off twin
    // whose time is subtracted to give obs.record_overhead_s.
    const SimReport report = traced(
        tracer, "sim.run", [&] { return coord.run(job.kind, in.parts, cfg); });
    if (w == Workload::kFleetSim) {
      copy_sim_counts(report, out.sim);
      out.result = report.result;
    } else if (!same_bits(report.result.centers, out.result.centers)) {
      out.error = "recording changed the centers";
    }
  }
  if (traced_run) {
    Scope twin(tracer, "sim.sync_twin");
    Network net(in.parts.size());
    (void)mirror_distributed_pipeline(job.kind, in.parts, cfg, net, tracer);
  }
  return out;
}

/// The received summary's shape for a single-source coreset pipeline,
/// so its billing can be asked of the codec (coreset_wire_bits).
Coreset summary_shape(PipelineKind kind, const PipelineConfig& cfg,
                      std::size_t d, std::size_t points) {
  Coreset cs;
  const std::size_t d1 = std::min(cfg.jl_dim, d);
  switch (kind) {
    case PipelineKind::kFss:
      cs.points = Dataset(Matrix(points, cfg.pca_dim));
      cs.basis = Matrix(cfg.pca_dim, d);
      break;
    case PipelineKind::kJlFss:
      cs.points = Dataset(Matrix(points, cfg.pca_dim));
      cs.basis = Matrix(cfg.pca_dim, d1);
      break;
    case PipelineKind::kFssJl:
      cs.points = Dataset(Matrix(points, std::min(cfg.jl_dim2, d)));
      break;
    case PipelineKind::kJlFssJl:
      cs.points = Dataset(Matrix(points, std::min(cfg.jl_dim2, d1)));
      break;
    default:  // BKLW / JL+BKLW: the union of the sites' t2-dim coords
      cs.points = Dataset(Matrix(points, cfg.pca_dim));
      break;
  }
  return cs;
}

/// One data draw: the workload's input family at `seed`, its shards,
/// and X*.
Input make_input(Workload w, std::uint64_t seed, Tracer* tracer) {
  Input s;
  {
    Scope gen(tracer, "data.generate");
    Rng rng = make_rng(seed, 0xdadaULL);
    if (is_fleet(w)) {
      GaussianMixtureSpec spec;
      spec.n = kFleetSites * kFleetPointsPerSite;
      spec.dim = kFleetD;
      spec.k = kFleetK;
      s.data = make_gaussian_mixture(spec, rng);
    } else {
      MnistLikeSpec spec;
      spec.n = kEdgeN;
      spec.dim = kEdgeD;
      s.data = make_mnist_like(spec, rng);
    }
  }
  {
    Scope part(tracer, "data.partition");
    Rng rng = make_rng(seed, 0x9a87ULL);
    s.parts = partition_random(s.data, is_fleet(w) ? kFleetSites : kEdgeSources,
                               rng);
  }
  // X*, exactly as ExperimentContext solves the paper's denominator.
  Scope solve(tracer, "setup.baseline_solve");
  KMeansOptions opts;
  opts.k = workload_k(w);
  opts.restarts = 10;
  opts.max_iters = 200;
  opts.seed = derive_seed(seed, 0xba5eULL);
  s.baseline_cost = kmeans(s.data, opts).cost;
  return s;
}

/// Uplink bits a fault-free BKLW / JL+BKLW run bills beyond the union
/// coreset's own frame: per site, disPCA's Σ and V frames, disSS's cost
/// scalar, and the site frame's Δ scalar (the union bills one Δ).
std::uint64_t bklw_protocol_bits(PipelineKind kind, const PipelineConfig& cfg,
                                 const std::vector<Dataset>& parts,
                                 std::size_t d) {
  const std::size_t dr =
      kind == PipelineKind::kJlBklw ? std::min(cfg.jl_dim, d) : d;
  std::uint64_t bits = 0;
  for (const Dataset& p : parts) {
    const std::size_t t1 = std::min({cfg.pca_dim, p.size(), dr});
    bits += 64 * (t1 + dr * t1) + 64 + 64;
  }
  return bits - 64;
}

std::string ledger_mismatch(std::uint64_t bits, std::uint64_t billed) {
  return "uplink ledger " + std::to_string(bits) + " bits, codec bills " +
         std::to_string(billed);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kEdgeExact, Workload::kEdgeJl,
                     Workload::kFleetSim, Workload::kFleetExplain}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kEdgeExact: return "edge_exact";
    case Workload::kEdgeJl: return "edge_jl";
    case Workload::kFleetSim: return "fleet_sim";
    case Workload::kFleetExplain: return "fleet_explain";
  }
  return "?";
}

bool is_fleet(Workload w) {
  return w == Workload::kFleetSim || w == Workload::kFleetExplain;
}

double nominal_pass_seconds(Workload w) {
  switch (w) {
    case Workload::kEdgeExact: return 8.5;
    case Workload::kEdgeJl: return 0.49;
    case Workload::kFleetSim: return 0.55;
    case Workload::kFleetExplain: return 0.93;
  }
  return 1.0;
}

std::size_t pass_length(Workload w) { return job_pass(w).size(); }


Setup make_setup(Workload w, std::uint64_t seed, Tracer* tracer) {
  Setup setup;
  for (std::size_t draw = 0; draw < kInputs; ++draw) {
    setup.inputs.push_back(make_input(w, derive_seed(seed, draw), tracer));
  }
  return setup;
}

std::vector<JobSpec> make_job_list(Workload w, std::uint64_t seed,
                                   std::size_t passes) {
  const auto pass = job_pass(w);
  std::vector<JobSpec> jobs;
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      // Every job draws its own seed (pipeline randomness and, on the
      // fleet, the straggler draw), so a run averages over many draws.
      JobSpec job;
      job.kind = pass[i].first;
      job.significant_bits = pass[i].second;
      job.seed = derive_seed(seed, 0x10b0000ULL + jobs.size());
      job.input = jobs.size() % kInputs;
      job.label = job_label(job.kind, job.significant_bits);
      jobs.push_back(job);
    }
  }
  if (is_fleet(w)) {
    JobSpec job;
    job.kind = PipelineKind::kBklw;
    job.seed = derive_seed(seed, 0xdef0ULL);
    job.default_budget = true;
    job.label = "BKLW@default-budget";
    jobs.push_back(job);
  }
  return jobs;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.flat().data(), b.flat().data(),
                      a.size() * sizeof(double)) == 0);
}

bool same_sim_counts(const SimCounts& a, const SimCounts& b) {
  return a.uplink_attempts == b.uplink_attempts &&
         a.lost_attempts == b.lost_attempts &&
         a.deadline_misses == b.deadline_misses &&
         a.queue_high_water == b.queue_high_water &&
         a.server_completion_vs == b.server_completion_vs;
}

bool same_result(const PipelineResult& a, const PipelineResult& b) {
  return same_bits(a.centers, b.centers) && a.uplink == b.uplink &&
         a.downlink == b.downlink && a.summary_points == b.summary_points;
}

PipelineConfig job_config(Workload w, const JobSpec& job) {
  PipelineConfig cfg;
  cfg.k = workload_k(w);
  cfg.epsilon = kEpsilon;
  cfg.seed = job.seed;
  cfg.significant_bits = job.significant_bits;
  if (is_fleet(w)) {
    // Explicit budget, as fleet_scale_sweep sizes it; the default-budget
    // job takes the ekm CLI's --coreset-size default instead.
    cfg.coreset_size = job.default_budget ? kCliDefaultCoresetSize
                                          : 2 * kFleetSites;
    cfg.pca_dim = 6;
    // practical_jl_dim clamps to the input dimension at this n.
    cfg.jl_dim = kFleetD;
  } else {
    // The Figure 1 settings for the MNIST-shaped input.
    cfg.coreset_size = 200;
    cfg.pca_dim = 24;
    cfg.jl_dim = 96;
    cfg.jl_dim2 = 48;
  }
  return cfg;
}

JobOutcome run_job(Workload w, const Setup& setup, const JobSpec& job,
                   const std::string& scratch_dir, Tracer* tracer) {
  JobOutcome out;
  const bool traced_run = tracer != nullptr;
  const Input& in = setup.inputs.at(job.input);
  try {
    if (is_fleet(w)) {
      out = run_fleet_job(w, in, job, scratch_dir, tracer);
    } else {
      const PipelineConfig cfg = job_config(w, job);
      if (pipeline_is_distributed(job.kind)) {
        Network net(in.parts.size());
        out.result = traced_run ? mirror_distributed_pipeline(
                                      job.kind, in.parts, cfg, net, tracer)
                                : run_distributed_pipeline(job.kind, in.parts,
                                                           cfg, net);
      } else {
        out.result = traced_run
                         ? mirror_pipeline(job.kind, in.data, cfg, tracer)
                         : run_pipeline(job.kind, in.data, cfg);
      }
    }
    out.ok = out.error.empty();
  } catch (const precondition_error& e) {
    out.ok = false;
    out.error = e.what();
  } catch (const invariant_error& e) {
    out.ok = false;
    out.error = e.what();
  }
  if (traced_run && out.ok) {
    tracer->count("cr.summary_points",
                  static_cast<double>(out.result.summary_points));
    tracer->count("net.uplink_messages",
                  static_cast<double>(out.result.uplink.messages));
    tracer->count("net.downlink_bits",
                  static_cast<double>(out.result.downlink.bits));
  }
  return out;
}

std::string check_job(Workload w, const Setup& setup, const JobSpec& job,
                      const JobOutcome& out, double* normalized_cost) {
  if (!out.ok) return out.error;
  const Input& in = setup.inputs.at(job.input);
  const Matrix& c = out.result.centers;
  const std::size_t d = in.data.dim();
  if (c.rows() != workload_k(w) || c.cols() != d) {
    return "centers are " + std::to_string(c.rows()) + "x" +
           std::to_string(c.cols()) + ", expected " +
           std::to_string(workload_k(w)) + "x" + std::to_string(d);
  }
  for (double v : c.flat()) {
    if (!std::isfinite(v)) return "non-finite center coordinate";
  }

  const double ratio = kmeans_cost(in.data, c) / in.baseline_cost;
  *normalized_cost = ratio;
  const double jl_bound = is_fleet(w) ? kFleetJlCostBound : kJlCostBound;
  const double bound = is_jl_family(job.kind) ? jl_bound : 1.0 + kEpsilon;
  if (!(ratio <= bound)) {
    return "normalized cost " + std::to_string(ratio) + " above bound " +
           std::to_string(bound);
  }

  // Uplink ledger against the codec's billing of what the server received.
  const PipelineConfig cfg = job_config(w, job);
  const std::uint64_t bits = out.result.uplink.bits;
  const int width = job.significant_bits;
  if (job.kind == PipelineKind::kNoReduction) {
    const std::uint64_t billed =
        in.data.size() * d * wire_bits_per_scalar(width);
    if (bits != billed) return ledger_mismatch(bits, billed);
  } else {
    const std::uint64_t summary = coreset_wire_bits(
        summary_shape(job.kind, cfg, d, out.result.summary_points), width);
    if (is_fleet(w)) {
      // Deadline misses bill frames whose data the server dropped, so on
      // the fleet only the lower bound is exact.
      if (bits < summary) return ledger_mismatch(bits, summary);
    } else {
      const std::uint64_t billed =
          summary + (pipeline_is_distributed(job.kind)
                         ? bklw_protocol_bits(job.kind, cfg, in.parts, d)
                         : 0);
      if (bits != billed) return ledger_mismatch(bits, billed);
    }
  }
  if (is_fleet(w) &&
      (out.sim.lost_attempts == 0 || out.sim.deadline_misses == 0)) {
    return "fleet job without retransmits or deadline misses";
  }
  if (w == Workload::kFleetExplain && !out.sim.attribution_matches) {
    return "attribution does not match the reported critical path";
  }
  return "";
}

}  // namespace perfbench
