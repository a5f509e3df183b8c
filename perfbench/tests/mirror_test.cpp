// Mirror fidelity: for every pipeline kind of the edge_exact and edge_jl
// job passes, with and without QT, the benchmark's traced
// re-composition (src/mirror.cpp) must reproduce run_pipeline /
// run_distributed_pipeline bit for bit — centers, uplink and downlink
// ledgers, summary size — at pool width 1 and 4. If pipeline.cpp's stage
// order or calls drift from the mirror, this fails, and the per-layer
// split would be describing a different program.
//
// Runs on a reduced MNIST-shaped input (n = 400, d = 128) with the
// workloads' own pipeline settings, so it takes seconds.
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "data/generators.hpp"
#include "mirror.hpp"
#include "workloads.hpp"

namespace {

using namespace ekm;
using perfbench::JobSpec;
using perfbench::Tracer;
using perfbench::Workload;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failures += 1;
  }
}

/// Spans of one tracer nest: each child inside its parent, siblings
/// disjoint and in order.
bool spans_nest(const Tracer& tr) {
  const auto& spans = tr.spans();
  std::vector<double> last_child_end(spans.size(), -1.0);
  double last_root_end = -1.0;
  for (const perfbench::Span& s : spans) {
    if (s.end_s < s.start_s) return false;
    if (s.parent < 0) {
      if (s.start_s < last_root_end) return false;
      last_root_end = s.end_s;
      continue;
    }
    const perfbench::Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_s < p.start_s || s.end_s > p.end_s) return false;
    double& prev = last_child_end[static_cast<std::size_t>(s.parent)];
    if (s.start_s < prev) return false;
    prev = s.end_s;
  }
  return true;
}

}  // namespace

int main() {
  MnistLikeSpec spec;
  spec.n = 400;
  spec.dim = 128;
  Rng rng = make_rng(7, 0xdadaULL);
  const Dataset data = make_mnist_like(spec, rng);
  Rng part_rng = make_rng(7, 0x9a87ULL);
  const std::vector<Dataset> parts = partition_random(data, 10, part_rng);

  for (Workload w : {Workload::kEdgeExact, Workload::kEdgeJl}) {
    for (const JobSpec& job : perfbench::make_job_list(w, 7, 1)) {
      const PipelineConfig cfg = perfbench::job_config(w, job);
      std::vector<PipelineResult> by_width;
      for (std::size_t width : {1u, 4u}) {
        set_parallel_threads(width);
        Tracer tracer;
        PipelineResult lib;
        PipelineResult mirror;
        if (pipeline_is_distributed(job.kind)) {
          Network lib_net(parts.size());
          lib = run_distributed_pipeline(job.kind, parts, cfg, lib_net);
          Network mirror_net(parts.size());
          mirror = perfbench::mirror_distributed_pipeline(job.kind, parts, cfg,
                                                          mirror_net, &tracer);
        } else {
          lib = run_pipeline(job.kind, data, cfg);
          mirror = perfbench::mirror_pipeline(job.kind, data, cfg, &tracer);
        }
        const std::string tag = std::string(perfbench::workload_name(w)) + " " +
                                job.label + " width " + std::to_string(width);
        expect(perfbench::same_result(lib, mirror),
               tag + ": mirror differs from the library");
        expect(!tracer.spans().empty(), tag + ": no spans recorded");
        expect(spans_nest(tracer), tag + ": spans do not nest");
        by_width.push_back(std::move(mirror));
      }
      expect(perfbench::same_result(by_width[0], by_width[1]),
             job.label + ": width 1 and width 4 differ");
    }
  }
  set_parallel_threads(0);
  if (failures > 0) {
    std::fprintf(stderr, "%d mirror-fidelity check(s) failed\n", failures);
    return 1;
  }
  std::printf("mirror fidelity: all pipeline kinds match at widths 1 and 4\n");
  return 0;
}
