// Traced re-composition ("mirror") of the paper pipelines.
//
// run_pipeline / run_distributed_pipeline (src/core/pipeline.cpp) are
// black boxes from outside: they give a whole-job time and nothing
// finer. The mirror makes the same public calls in the same order —
// down to fss_coreset's PCA and sensitivity sampling and bklw_coreset's
// disPCA / projection / disSS phases — with a benchmark span around
// each one. Its results must equal the library's bit for bit (centers
// and both ledgers); tests/mirror_test.cpp and the traced benchmark run
// check that, so the per-layer split describes the real program.
//
// Scope: refine_iters == 0 (the paper-faithful default) and, for the
// distributed entry, the coreset pipelines (BKLW, JL+BKLW).
#pragma once

#include <span>

#include "core/pipeline.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Mirror of ekm::run_pipeline (NR, FSS, JL+FSS, FSS+JL, JL+FSS+JL).
[[nodiscard]] ekm::PipelineResult mirror_pipeline(
    ekm::PipelineKind kind, const ekm::Dataset& data,
    const ekm::PipelineConfig& cfg, Tracer* tracer);

/// Mirror of ekm::run_distributed_pipeline over `net` (BKLW, JL+BKLW).
[[nodiscard]] ekm::PipelineResult mirror_distributed_pipeline(
    ekm::PipelineKind kind, std::span<const ekm::Dataset> parts,
    const ekm::PipelineConfig& cfg, ekm::Fabric& net, Tracer* tracer);

}  // namespace perfbench
