#include "mirror.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/timer.hpp"
#include "core/calibration.hpp"
#include "cr/fss.hpp"
#include "cr/sensitivity.hpp"
#include "distributed/bklw.hpp"
#include "distributed/dispca.hpp"
#include "distributed/disss.hpp"
#include "dr/jl.hpp"
#include "dr/pca.hpp"
#include "linalg/svd.hpp"
#include "net/summary_codec.hpp"
#include "qt/quantizer.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {
namespace {

using namespace ekm;

// --- copies of pipeline.cpp's file-local helpers. A drift between these
// and the originals shows up as a fidelity failure, not as silently
// different per-layer numbers. ---

KMeansOptions solver_options(const PipelineConfig& cfg) {
  KMeansOptions opts;
  opts.k = cfg.k;
  opts.restarts = cfg.solver_restarts;
  opts.max_iters = cfg.solver_max_iters;
  opts.seed = derive_seed(cfg.seed, 0x501feULL);
  return opts;
}

std::size_t practical_jl_dim(double epsilon, std::size_t n, std::size_t k,
                             double delta, std::size_t input_dim) {
  const double raw = std::ceil(
      4.0 * std::log(4.0 * static_cast<double>(n) * static_cast<double>(k) /
                     delta) /
      (epsilon * epsilon));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 4.0)),
                                 4, std::max<std::size_t>(input_dim, 4));
}

FssOptions fss_options(const PipelineConfig& cfg, double stage_epsilon) {
  FssOptions fo;
  fo.k = cfg.k;
  fo.epsilon = stage_epsilon;
  fo.delta = cfg.delta;
  fo.sample_size = cfg.coreset_size;
  fo.intrinsic_dim = cfg.pca_dim;
  return fo;
}

// --- layer calls, one span each. ---

KMeansResult solve(const Dataset& data, const PipelineConfig& cfg,
                   Tracer* tracer) {
  KMeansResult res =
      traced(tracer, "kmeans.solve",
             [&] { return kmeans(data, solver_options(cfg)); });
  if (tracer != nullptr) tracer->count("kmeans.solve_iters", res.iterations);
  return res;
}

Matrix solve_summary(const Coreset& coreset, const PipelineConfig& cfg,
                     Tracer* tracer) {
  const KMeansResult res = solve(coreset.points, cfg, tracer);
  if (coreset.basis) {
    return traced(tracer, "linalg.matmul",
                  [&] { return matmul(res.centers, *coreset.basis); });
  }
  return res.centers;
}

void quantize_points(Coreset& coreset, int significant_bits, Tracer* tracer) {
  if (significant_bits >= kDoubleSignificandBits) return;
  Scope scope(tracer, "qt.quantize");
  const RoundingQuantizer q(significant_bits);
  coreset.points = q.quantize(coreset.points);
}

LinearMap jl_projection(std::size_t d, std::size_t d_out, std::uint64_t seed,
                        Tracer* tracer) {
  return traced(tracer, "dr.jl_apply",
                [&] { return make_jl_projection(d, d_out, seed); });
}

Dataset jl_apply(const LinearMap& map, const Dataset& data, Tracer* tracer) {
  return traced(tracer, "dr.jl_apply", [&] { return map.apply(data); });
}

Matrix lift(const LinearMap& map, const Matrix& centers, Tracer* tracer) {
  return traced(tracer, "dr.lift", [&] { return map.lift(centers); });
}

/// fss_coreset (src/cr/fss.cpp), with pca_project (src/dr/pca.cpp)
/// opened up so the exact SVD is its own span.
Coreset fss(const Dataset& data, const FssOptions& opts, Rng& rng,
            Tracer* tracer) {
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  const std::size_t t = opts.intrinsic_dim > 0
                            ? std::min({opts.intrinsic_dim, n, d})
                            : fss_intrinsic_dim(opts.k, opts.epsilon, n, d);
  const std::size_t sample_size =
      opts.sample_size > 0 ? opts.sample_size
                           : fss_coreset_size(opts.k, opts.epsilon,
                                              opts.delta, n);

  // pca_project(data, t)
  const std::size_t r = std::min({t, n, d});
  Svd svd = traced(tracer, "linalg.thin_svd",
                   [&] { return thin_svd(data.points()); });
  if (tracer != nullptr) tracer->count("linalg.thin_svd_calls", 1);
  double residual_sq = 0.0;
  for (std::size_t j = r; j < svd.rank(); ++j) {
    residual_sq += svd.sigma[j] * svd.sigma[j];
  }
  svd.truncate(r);
  Matrix coords = traced(tracer, "linalg.matmul",
                         [&] { return matmul(data.points(), svd.v); });
  const Dataset projected = data.is_weighted()
                                ? Dataset(std::move(coords), *data.weights())
                                : Dataset(std::move(coords));

  SensitivitySampleOptions sopts;
  sopts.k = opts.k;
  sopts.sample_size = sample_size;
  sopts.include_bicriteria_centers = opts.include_bicriteria_centers;
  Coreset cs = traced(tracer, "cr.sensitivity", [&] {
    return sensitivity_sample(projected, sopts, rng);
  });
  cs.delta = residual_sq;
  cs.basis = svd.v.transposed();
  return cs;
}

Dataset to_ambient(const Coreset& cs, Tracer* tracer) {
  return traced(tracer, "linalg.matmul", [&] { return cs.to_ambient(); });
}

PipelineResult finish_single_source(Coreset summary, Fabric& net,
                                    const PipelineConfig& cfg,
                                    const LinearMap* lift1,
                                    const LinearMap* lift2, double device_s,
                                    Tracer* tracer) {
  traced(tracer, "net.encode", [&] {
    net.uplink(0).send(encode_coreset(summary, cfg.significant_bits));
  });
  const Coreset received = traced(tracer, "net.decode", [&] {
    return decode_coreset(net.uplink(0).receive());
  });
  Matrix centers = solve_summary(received, cfg, tracer);
  if (lift2 != nullptr) centers = lift(*lift2, centers, tracer);
  if (lift1 != nullptr) centers = lift(*lift1, centers, tracer);

  PipelineResult result;
  result.centers = std::move(centers);
  result.device_seconds = device_s;
  result.uplink = net.total_uplink();
  result.downlink = net.total_downlink();
  result.summary_points = received.size();
  return result;
}

BklwOptions bklw_options(const PipelineConfig& cfg, double eps) {
  BklwOptions opts;
  opts.k = cfg.k;
  opts.epsilon = eps;
  opts.delta = cfg.delta;
  opts.intrinsic_dim = cfg.pca_dim;
  opts.total_samples = cfg.coreset_size;
  opts.significant_bits = cfg.significant_bits;
  opts.quant = cfg.quant_policy;
  opts.round_deadline_s = cfg.round_deadline_s;
  opts.min_responders = cfg.min_round_responders;
  opts.reallocate = cfg.reallocate_budget;
  opts.realloc_reserve = cfg.realloc_reserve;
  opts.pipeline = cfg.pipeline_rounds;
  return opts;
}

/// bklw_coreset (src/distributed/bklw.cpp): disPCA, the per-site
/// projection phase, disSS — each its own span.
Coreset bklw(std::span<const Dataset> parts, const BklwOptions& opts,
             Fabric& net, Stopwatch& device_work, std::uint64_t seed,
             Tracer* tracer) {
  std::size_t n_total = 0;
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    n_total += p.size();
    if (p.size() > 0) d = p.dim();
  }
  EKM_EXPECTS_MSG(n_total > 0, "all sources empty");

  DisPcaOptions popts;
  const std::size_t t = opts.intrinsic_dim > 0
                            ? opts.intrinsic_dim
                            : fss_intrinsic_dim(opts.k, opts.epsilon,
                                                n_total, d);
  popts.t1 = t;
  popts.t2 = t;
  popts.round_deadline_s = opts.round_deadline_s;
  popts.min_responders = opts.min_responders;
  const DisPcaResult pca = traced(tracer, "distributed.dispca", [&] {
    return dispca(parts, popts, net, device_work);
  });

  std::vector<Dataset> projected(parts.size());
  TaskGraph graph;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) {
      (void)graph.add({TaskKind::kCollect, i, "bklw/drain-basis",
                       [&net, i] {
                         (void)net.downlink(i).receive_by(kNoRound);
                       },
                       {}});
      continue;
    }
    (void)graph.add(
        {TaskKind::kCompute, i, "bklw/project",
         [&, i] {
           auto scope = device_work.measure();
           auto basis_frame = net.downlink(i).receive_by(kNoRound);
           if (!basis_frame.has_value()) return;
           const Matrix v = traced(tracer, "net.decode",
                                   [&] { return decode_matrix(*basis_frame); });
           Matrix coords = traced(tracer, "linalg.matmul",
                                  [&] { return matmul(parts[i].points(), v); });
           projected[i] = parts[i].is_weighted()
                              ? Dataset(std::move(coords), *parts[i].weights())
                              : Dataset(std::move(coords));
         },
         {}});
  }
  traced(tracer, "distributed.project",
         [&] { PhaseScheduler(net).run(graph); });

  DisSsOptions sopts;
  sopts.k = opts.k;
  sopts.total_samples =
      opts.total_samples > 0
          ? opts.total_samples
          : disss_sample_size(opts.k, opts.epsilon, opts.delta, parts.size(),
                              n_total);
  sopts.significant_bits = opts.significant_bits;
  sopts.quant = opts.quant;
  sopts.round_deadline_s = opts.round_deadline_s;
  sopts.min_responders = opts.min_responders;
  sopts.reallocate = opts.reallocate;
  sopts.realloc_reserve = opts.realloc_reserve;
  sopts.pipeline = opts.pipeline;
  Coreset coreset = traced(tracer, "distributed.disss", [&] {
    return disss(projected, sopts, net, device_work, seed);
  });
  coreset.delta = 0.0;
  coreset.basis = pca.v.transposed();
  return coreset;
}

}  // namespace

PipelineResult mirror_pipeline(PipelineKind kind, const Dataset& data,
                               const PipelineConfig& cfg, Tracer* tracer) {
  EKM_EXPECTS(!pipeline_is_distributed(kind));
  EKM_EXPECTS(!data.empty());
  EKM_EXPECTS(cfg.k >= 1);
  EKM_EXPECTS_MSG(cfg.refine_iters == 0, "the mirror covers refine_iters == 0");
  Network net(1);
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  Rng rng = make_rng(cfg.seed, 0xc0ULL);

  switch (kind) {
    case PipelineKind::kNoReduction: {
      Timer timer;
      Matrix payload = data.points();
      if (cfg.significant_bits < kDoubleSignificandBits) {
        payload = traced(tracer, "qt.quantize", [&] {
          return RoundingQuantizer(cfg.significant_bits).quantize(payload);
        });
      }
      const double device_s = timer.seconds();
      traced(tracer, "net.encode", [&] {
        net.uplink(0).send(encode_matrix(payload, cfg.significant_bits));
      });
      Matrix raw = traced(tracer, "net.decode", [&] {
        return decode_matrix(net.uplink(0).receive());
      });
      const KMeansResult res = solve(Dataset(std::move(raw)), cfg, tracer);

      PipelineResult result;
      result.centers = res.centers;
      result.device_seconds = device_s;
      result.uplink = net.total_uplink();
      result.summary_points = n;
      return result;
    }

    case PipelineKind::kFss: {
      const double eps = epsilon_for_fss(cfg.epsilon);
      Timer timer;
      Coreset cs = fss(data, fss_options(cfg, eps), rng, tracer);
      quantize_points(cs, cfg.significant_bits, tracer);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(cs), net, cfg, nullptr, nullptr,
                                  device_s, tracer);
    }

    case PipelineKind::kJlFss: {
      const double eps = epsilon_for_alg1(cfg.epsilon);
      const std::size_t d1 =
          cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                         : practical_jl_dim(eps, n, cfg.k, cfg.delta, d);
      const LinearMap pi1 = jl_projection(d, d1, cfg.seed, tracer);
      Timer timer;
      const Dataset projected = jl_apply(pi1, data, tracer);
      Coreset cs = fss(projected, fss_options(cfg, eps), rng, tracer);
      quantize_points(cs, cfg.significant_bits, tracer);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(cs), net, cfg, &pi1, nullptr,
                                  device_s, tracer);
    }

    case PipelineKind::kFssJl: {
      const double eps = epsilon_for_alg2(cfg.epsilon);
      Timer timer;
      Coreset cs = fss(data, fss_options(cfg, eps), rng, tracer);
      const Dataset ambient = to_ambient(cs, tracer);
      const std::size_t jl_override =
          cfg.jl_dim2 > 0 ? cfg.jl_dim2 : cfg.jl_dim;
      const std::size_t d2 =
          jl_override > 0
              ? std::min(jl_override, d)
              : practical_jl_dim(eps, std::max<std::size_t>(ambient.size(), 2),
                                 cfg.k, cfg.delta, d);
      const LinearMap pi1 = jl_projection(d, d2, cfg.seed, tracer);
      Coreset wire;
      wire.points = jl_apply(pi1, ambient, tracer);
      wire.delta = cs.delta;
      quantize_points(wire, cfg.significant_bits, tracer);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(wire), net, cfg, &pi1, nullptr,
                                  device_s, tracer);
    }

    case PipelineKind::kJlFssJl: {
      const double eps = epsilon_for_alg3(cfg.epsilon);
      const std::size_t d1 =
          cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                         : practical_jl_dim(eps, n, cfg.k, cfg.delta, d);
      const LinearMap pi1 =
          jl_projection(d, d1, derive_seed(cfg.seed, 1), tracer);
      Timer timer;
      const Dataset projected = jl_apply(pi1, data, tracer);
      Coreset cs = fss(projected, fss_options(cfg, eps), rng, tracer);
      const Dataset ambient = to_ambient(cs, tracer);
      const std::size_t d2 =
          cfg.jl_dim2 > 0
              ? std::min(cfg.jl_dim2, d1)
              : practical_jl_dim(eps, std::max<std::size_t>(ambient.size(), 2),
                                 cfg.k, cfg.delta, d1);
      const LinearMap pi2 =
          jl_projection(d1, d2, derive_seed(cfg.seed, 2), tracer);
      Coreset wire;
      wire.points = jl_apply(pi2, ambient, tracer);
      wire.delta = cs.delta;
      quantize_points(wire, cfg.significant_bits, tracer);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(wire), net, cfg, &pi1, &pi2,
                                  device_s, tracer);
    }

    case PipelineKind::kBklw:
    case PipelineKind::kJlBklw:
      break;
  }
  EKM_EXPECTS_MSG(false, "distributed pipeline requires parts");
  return {};
}

PipelineResult mirror_distributed_pipeline(PipelineKind kind,
                                           std::span<const Dataset> parts,
                                           const PipelineConfig& cfg,
                                           Fabric& net, Tracer* tracer) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS_MSG(pipeline_is_distributed(kind),
                  "the mirror covers the distributed coreset pipelines");
  EKM_EXPECTS_MSG(cfg.refine_iters == 0, "the mirror covers refine_iters == 0");
  EKM_EXPECTS(net.num_sources() == parts.size());
  Stopwatch device_work;

  std::size_t n_total = 0;
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    n_total += p.size();
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS(n_total > 0 && d > 0);

  Coreset cs;
  std::optional<LinearMap> pi1;
  if (kind == PipelineKind::kBklw) {
    const double eps = epsilon_for_bklw(cfg.epsilon);
    cs = bklw(parts, bklw_options(cfg, eps), net, device_work, cfg.seed,
              tracer);
  } else {
    const double eps = epsilon_for_alg4(cfg.epsilon);
    const std::size_t d1 =
        cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                       : practical_jl_dim(eps, n_total, cfg.k, cfg.delta, d);
    pi1 = jl_projection(d, d1, cfg.seed, tracer);
    std::vector<Dataset> projected(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].empty()) continue;
      auto scope = device_work.measure();
      projected[i] = jl_apply(*pi1, parts[i], tracer);
    }
    cs = bklw(projected, bklw_options(cfg, eps), net, device_work, cfg.seed,
              tracer);
  }
  quantize_points(cs, cfg.significant_bits, tracer);
  Matrix centers = solve_summary(cs, cfg, tracer);
  if (pi1) centers = lift(*pi1, centers, tracer);

  PipelineResult result;
  result.centers = std::move(centers);
  result.device_seconds = device_work.total_seconds();
  result.uplink = net.total_uplink();
  result.downlink = net.total_downlink();
  result.summary_points = cs.size();
  return result;
}

}  // namespace perfbench
