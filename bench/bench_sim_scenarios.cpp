// Scenario sweeps over the discrete-event edge-network simulator for the
// BKLW multi-source pipeline: radio classes × fault rates, round
// deadlines, budget reallocation, phase overlap, cross-round
// pipelining, churn under adaptive quantization, fleet scale up to
// 10240 sites, and a critical-path attribution audit. Every cell reports
// deployment metrics — virtual completion time, site energy, goodput vs
// retransmitted bits, attempt/drop and responder counts, and the k-means
// cost ratio against the NR (ship-everything) baseline — to
// BENCH_sim.json so successive PRs can track the trajectory.
//
// Each section is one entry of kSections, documented there: a row schema
// (columns laid out line by line as the JSON prints them) and the sweep
// that produces its cells. One writer renders both the stdout table and
// the JSON section from it; adding a section is adding an entry.
//
// Every reported number lives on the virtual clock or in a ledger, so
// the whole JSON is bitwise deterministic for a fixed --seed at any
// EKM_THREADS setting (tests/test_sim.cpp holds the simulator to that).
//
// Usage: bench_sim_scenarios [--n N] [--d D] [--k K] [--sources M]
//                            [--seed S] [--json PATH] [--only SECTION]
//                            [--list] [--meta key=value ...]
//                            [--trace-out FILE] [--metrics-out FILE]
// --meta pairs land verbatim in a top-level "provenance" object
// (tools/run_bench.sh stamps git SHA, compiler, flags, EKM_THREADS).
// --list prints the splice-able section names, one per line, and exits
// (the single source of truth tools/run_bench.sh --list defers to).
// --only runs a single sweep section (one of the --list names) and
// emits a JSON holding just that section — still valid JSON with the
// full header/provenance, so tools/run_bench.sh can splice it into an
// existing BENCH_sim.json without re-running the other sweeps. Every
// section's cells are bitwise independent of which other sections ran
// (each cell builds its own Coordinator from its own spec string), so
// a spliced section matches a full run byte for byte.
// --trace-out/--metrics-out attach one flight recorder (src/obs/)
// across all sweep cells — a debug artifact whose presence never
// changes a single reported number (recording is side-effect-free).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "obs/attribution.hpp"
#include "obs/json_util.hpp"
#include "obs/trace_export.hpp"
#include "sim/coordinator.hpp"

namespace {

using namespace ekm;

/// One table or JSON value: a count, a real, a flag, or text.
using Value = std::variant<std::uint64_t, double, bool, std::string>;

/// One sweep point and its run.
struct Cell {
  std::vector<Value> keys;  ///< sweep coordinates, in key-column order
  std::size_t sources = 0;  ///< fleet size the cell ran on
  bool feasible = true;     ///< false: a round fell below min-responders
  SimReport report{};
  double cost_ratio = 0.0;  ///< k-means cost against the NR baseline
  RunAttribution attribution{};  ///< attribution section only
};

/// What cells run on: a Gaussian-mixture dataset, its random shards, the
/// pipeline config, and the NR cost the cost ratios are against (0: none).
struct Fleet {
  Dataset data;
  std::vector<Dataset> parts;
  PipelineConfig cfg;
  double nr_cost = 0.0;
};

Fleet make_fleet(std::size_t n, std::size_t dim, std::size_t k,
                 std::size_t sites, std::size_t coreset_size,
                 std::size_t pca_dim, std::uint64_t seed,
                 std::uint64_t data_salt, std::uint64_t part_salt) {
  Rng data_rng = make_rng(seed, data_salt);
  Rng part_rng = make_rng(seed, part_salt);
  Fleet f;
  f.data = make_gaussian_mixture({.n = n, .dim = dim, .k = k}, data_rng);
  f.parts = partition_random(f.data, sites, part_rng);
  f.cfg.k = k;
  f.cfg.epsilon = 0.3;
  f.cfg.seed = seed;
  f.cfg.coreset_size = coreset_size;
  f.cfg.pca_dim = pca_dim;
  return f;
}

template <class... Args>
std::string sprint(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

/// printf of one value; a flag prints as one of two words. Without a
/// format, JSON's by value type: counts as integers, reals round-trip
/// exact, flags as true/false, text quoted.
std::string render(const char* fmt, const Value& v, const char* yes = "true",
                   const char* no = "false") {
  static constexpr const char* kJson[] = {"%llu", "%.17g", "%s", "\"%s\""};
  if (fmt == nullptr) fmt = kJson[v.index()];
  if (auto* b = std::get_if<bool>(&v)) return sprint(fmt, *b ? yes : no);
  if (auto* t = std::get_if<std::string>(&v)) return sprint(fmt, t->c_str());
  if (auto* x = std::get_if<double>(&v)) return sprint(fmt, *x);
  return sprint(fmt, static_cast<unsigned long long>(std::get<0>(v)));
}

/// Runs a section's sweep points and collects their cells.
struct Runner {
  const Fleet& fleet;
  std::vector<Cell> cells{};
  bool attribute = false;  ///< run each cell under its own flight recorder

  /// The one cell runner. Each cell builds its own Coordinator from its
  /// own spec string, so a section is bitwise independent of which other
  /// sections ran. A round budget so tight that a round falls below the
  /// availability floor (a 0.5 s deadline or a churn draw can do it on
  /// other seeds and shapes) marks the cell infeasible instead of
  /// killing the whole sweep.
  void operator()(const std::string& spec, std::vector<Value> keys,
                  const Fleet* other = nullptr) {
    const Fleet& f = other != nullptr ? *other : fleet;
    Cell& cell = cells.emplace_back(Cell{std::move(keys), f.parts.size()});
    std::optional<Recorder> recorder;
    PipelineConfig cfg = f.cfg;
    if (attribute) cfg.recorder = &recorder.emplace();
    const Coordinator coord(
        parse_scenario(spec + ",seed=" + std::to_string(f.cfg.seed)));
    try {
      cell.report = coord.run(PipelineKind::kBklw, f.parts, cfg);
    } catch (const invariant_error&) {
      cell.feasible = false;
      return;
    }
    if (f.nr_cost > 0.0) {
      cell.cost_ratio =
          kmeans_cost(f.data, cell.report.result.centers) / f.nr_cost;
    }
    if (attribute) cell.attribution = attribute_run(*recorder);
  }
};

// The straggler shape the overlap, pipeline and attribution sections
// share: 0, 1 or 2 sites behind 2 kbps links, `knob` off and on (a key
// column too when `knob_key`). Event logging is off: a sweep of lossy
// multi-round runs has no use for full traces in memory.
constexpr const char* kStragglerBase =
    "radio=wifi,sps=1e-4,deadline=3,retry=giveup,event-log=off";
constexpr int kStragglerBps = 2000;

void straggler_sweep(Runner& run, const char* knob, bool knob_key = false) {
  std::string spec = kStragglerBase;
  for (std::uint64_t slow = 0; slow <= 2; ++slow) {
    for (bool on : {false, true}) {
      run(spec + "," + knob + "=" + (on ? "on" : "off"),
          knob_key ? std::vector<Value>{slow, std::string(knob), on}
                   : std::vector<Value>{slow, on});
    }
    spec += sprint(",site%llu.bandwidth=%d",
                   static_cast<unsigned long long>(slow), kStragglerBps);
  }
}

// ---- row schema ----------------------------------------------------------

// A getter over the cell `c` and its report `r`.
#define GET(expr)                                         \
  [](const Cell& c) -> Value {                            \
    [[maybe_unused]] const SimReport& r = c.report;       \
    return (expr);                                        \
  }

/// One column. A column without a getter is a sweep coordinate: the
/// leading columns of a section, read from Cell::keys in order — an
/// infeasible row shows only those. Table columns print in list order.
struct Column {
  const char* key = nullptr;    ///< JSON member name; nullptr: table only
  Value (*get)(const Cell&) = nullptr;
  const char* head = nullptr;   ///< table header; nullptr: JSON only
  const char* table = nullptr;  ///< table format; the header takes its width
  const char* json = nullptr;   ///< JSON format; nullptr: by value type
  const char* yes = "on";       ///< table words for a flag
  const char* no = "off";

  Column json_only() const { Column c = *this; c.head = nullptr; return c; }
  Column table_only() const { Column c = *this; c.key = nullptr; return c; }
  Column table_as(const char* fmt) const {
    Column c = *this;
    c.table = fmt;
    return c;
  }
};

constexpr const char* kRate = "%.3f";

/// "n/sources", 8 wide right and 3 wide left of the slash.
std::string of_sources(std::uint64_t n, const Cell& c) {
  return sprint("%8llu/%-3zu", static_cast<unsigned long long>(n), c.sources);
}

// Columns several sections share.
const Column kFeasible{"feasible", GET(true)};
const Column kCompletion{"completion_seconds", GET(r.completion_seconds),
                         "completion_s", "%14.4f"};
const Column kServerDone{
    "server_completion_seconds", GET(r.server_completion_seconds),
    "server_done_s", "%14.4f"};
const Column kCpBound{
    "server_critical_path_seconds", GET(r.server_critical_path_seconds),
    "cp_bound_s", "%12.4f"};
const Column kEnergy{"energy_joules", GET(r.energy_joules), "energy_J",
                     "%12.4e"};
const Column kMisses{"deadline_misses", GET(r.deadline_misses), "misses",
                     "%9llu"};
const Column kRounds{"rounds", GET(r.rounds)};
const Column kSitesDropped{"sites_dropped", GET(r.sites_dropped)};
const Column kSummary{"summary_points", GET(r.result.summary_points),
                      "summary_pts", "%14llu"};
const Column kSources{"sources", GET(c.sources)};
const Column kGoodput{"goodput_bits", GET(r.result.uplink.bits),
                      "goodput_bits", "%14llu"};
const Column kUplinkBits{"uplink_bits", GET(r.result.uplink.bits)};
const Column kRetx{"retransmit_bits", GET(r.uplink_stats.retransmit_bits),
                   "retx_bits", "%10llu"};
const Column kAttempts{"attempts", GET(r.uplink_stats.attempts), "attempts",
                       "%9llu"};
const Column kDrops{"drops", GET(r.uplink_stats.drops), "drops", "%7llu"};
const Column kEvents{"events", GET(r.event_log.size())};
const Column kCost{"cost_ratio_vs_nr", GET(c.cost_ratio), "cost_ratio",
                   "%10.4f"};
const Column kSlow{"slow_sites", nullptr, "slow", "%-6llu"};
std::string blame_object(const Cell& c) {
  std::string obj = "{";
  for (std::size_t b = 0; b < kBlameCategoryCount; ++b) {
    obj += sprint("%s\"%s\": %.17g", b == 0 ? "" : ", ",
                  blame_category_name(static_cast<BlameCategory>(b)),
                  c.attribution.blame_total[b]);
  }
  return obj + "}";
}
template <BlameCategory B>
Value blame(const Cell& c) {
  return c.attribution.blame_total[static_cast<std::size_t>(B)];
}

/// One BENCH_sim.json section, declared once: its row schema and the
/// sweep that produces its cells.
struct Section {
  const char* name;
  const char* caption;   ///< table title; nullptr: the radio grid
  const char* scenario;  ///< base scenario; nullptr: a bare "cells" array
  std::string extra;     ///< further header members, verbatim
  std::vector<std::vector<Column>> lines;  ///< the JSON row, line by line
  void (*sweep)(const char* scenario, Runner& run);
};

const std::string kStragglerMember =
    sprint("    \"straggler_bandwidth_bps\": %d,\n", kStragglerBps);
constexpr std::size_t kFleetPoints = 8, kFleetDim = 8, kFleetK = 2;

// Where the table's column order differs from the JSON's, a table-only
// copy of the column sits at its table position.
const std::vector<Section> kSections = {
    {"cells", nullptr, nullptr, "",
     {{{"radio", nullptr, "radio", "%-6s"},
       {"fault_rate", nullptr, "fault", "%-6.2f", kRate}},
      {kCompletion, kEnergy},
      {kGoodput, {"goodput_scalars", GET(r.result.uplink.scalars)}},
      {kRetx.table_as("%14llu"), kAttempts, kDrops},
      {{"uplink_airtime_seconds", GET(r.uplink_stats.airtime_s)}, kEvents},
      {kCost}},
     [](const char*, Runner& run) {
       for (const char* radio : {"lora", "ble", "wifi", "5g"}) {
         for (double fault : {0.0, 0.05, 0.2}) {
           run(sprint("radio=%s,loss=%.3f,dropout=%.3f,outage=2,jitter=%.3f",
                      radio, fault, fault / 2.0, fault / 2.0),
               {std::string(radio), fault});
         }
       }
     }},
    // --- deadline sweep: responders vs accuracy under partial
    // aggregation. A straggler-heavy, compute-bound fleet with lossy-mesh
    // faults; the per-round deadline tightens from infinity (the paper's
    // protocol, bit-identical to the wait-for-everyone cells above in
    // ledgers and centers) down to budgets that drop the straggling
    // sites.
    {"deadline_sweep",
     "deadline sweep  scenario=lossy-mesh+stragglers pipeline=BKLW",
     "lossy-mesh,stragglers=0.25,slowdown=64,sps=1e-5", "",
     {{{nullptr, nullptr, "deadline", "%-10g"}, {"deadline_seconds"},
       {"unbounded"}},
      {kFeasible},
      {{"responders", GET(c.sources - r.sites_dropped)}, kSources,
       {nullptr, GET(of_sources(c.sources - r.sites_dropped, c)),
        "responders", "%12s"}},
      {kMisses.json_only(), kRounds}, {kCompletion},
      {kServerDone, kMisses.table_only()}, {kEnergy.json_only()},
      {kGoodput.json_only(), kDrops.table_only(), kRetx},
      {kAttempts.json_only(), kDrops.json_only(),
       {"expired", GET(r.uplink_stats.expired)}},
      {kCost}},
     [](const char* base, Runner& run) {
       for (double deadline : {std::numeric_limits<double>::infinity(), 16.0,
                               8.0, 4.0, 2.0, 1.0, 0.5}) {
         const bool unbounded = !std::isfinite(deadline);
         // JSON has no Infinity literal; the unbounded round is deadline 0.
         run(unbounded ? base : sprint("%s,deadline=%g", base, deadline),
             {deadline, unbounded ? 0.0 : deadline, unbounded});
       }
     }},
    // --- realloc sweep: budget conservation under faults. A compute-
    // bound straggler fleet (deadline-fleet shaped) whose slow quarter
    // reports costs in time but blows the summary round, so its sample
    // allocation is at stake every round — swept across frame-loss rates
    // with deadline-aware budget reallocation off (PR 3's renormalize-
    // over-responders) and on (the within-round re-split wave). The
    // column to watch is summary_points: with reallocation on, the
    // server's coreset holds ≈ the full sample budget the scenario paid
    // for, instead of shrinking with every dropped site.
    // "miss_sites" (not "responders"): sites_dropped counts any site with
    // an abandoned frame, including a responder whose wave *supplement*
    // missed while its first-wave coreset stands — so it upper-bounds
    // actual data loss in realloc=on cells (see SimReport::sites_dropped).
    // Likewise the JSON emits "uplink_bits" (not "goodput_bits"): with
    // realloc=on the uplink total includes superseded first-wave coresets
    // the server replaced, so bits are a *cost* column here; the benefit
    // column is summary_points.
    {"realloc_sweep",
     "realloc sweep  scenario=5g+stragglers,deadline=8 pipeline=BKLW",
     "radio=5g,sps=1e-3,stragglers=0.25,slowdown=16,deadline=8,"
     "realloc-reserve=0.5,outage=2", "",
     {{{"fault_rate", nullptr, "fault", "%-6.2f", kRate},
       {"realloc", nullptr, "realloc", "%-8s"}, kFeasible},
      {{"sites_with_misses", GET(r.sites_dropped)}, kSources,
       {nullptr, GET(of_sources(r.sites_dropped, c)), "miss_sites", "%12s"}},
      {kSummary, {"realloc_waves", GET(r.realloc_waves)}},
      {kMisses, {nullptr, GET(r.realloc_waves), "waves", "%7llu"}, kRounds},
      {kCompletion.json_only()}, {kServerDone.json_only()},
      {kUplinkBits, kRetx}, {kCost}},
     [](const char* base, Runner& run) {
       for (double fault : {0.0, 0.05, 0.2}) {
         for (bool on : {false, true}) {
           run(sprint("%s,loss=%.3f,dropout=%.3f,jitter=%.3f,realloc=%s",
                      base, fault, fault / 2.0, fault / 2.0, on ? "on" : "off"),
               {fault, on});
         }
       }
     }},
    // --- overlap sweep: phase-overlap scheduling vs the lock-step
    // barriers. A 3-second-round give-up fleet where 0/1/2 sites sit
    // behind 2 kbps links: their multi-kilobit summaries can never make
    // a round, so they expire at compute-ready time — with overlap off
    // the server still waits every round out; with overlap on the expiry
    // NAK commits each merge barrier at its last final input and the
    // fast sites' next phase starts early. The protocol actions are
    // identical either way (same frames, responders, RNG draws), so the
    // columns to watch are pure timing: server_completion_seconds and
    // completion_seconds. The 0-straggler rows are the control: overlap
    // must change nothing there.
    {"overlap_sweep",
     "overlap sweep  scenario=wifi+2kbps-stragglers,deadline=3 pipeline=BKLW",
     kStragglerBase, kStragglerMember,
     {{kSlow, {"overlap", nullptr, "overlap", "%-8s"}, kFeasible},
      {kServerDone}, {kCpBound}, {kCompletion}, {kEnergy},
      {kMisses,
       {"supplemental_misses", GET(r.supplemental_misses), "suppl", "%7llu"}},
      {kSitesDropped, {"sites_data_dropped", GET(r.sites_data_dropped)}},
      {kRounds, kEvents}, {kCost}},
     [](const char*, Runner& run) { straggler_sweep(run, "overlap"); }},
    // --- pipeline sweep: cross-round pipelining vs lock-step rounds on
    // the overlap sweep's straggler shape. The give-up stragglers' frames
    // expire at compute-ready time without keying the radio, so centers,
    // ledgers, and energy are identical pipelined or not; what pipelining
    // changes is when the server *learns*: predicted-arrival NAKs prove
    // the miss at scheduled-send time and round r+1's task graph hangs
    // off round r's committed barrier instead of its cutoff. The column
    // to watch is server_completion_seconds against
    // server_critical_path_seconds — the per-run lower bound (server
    // compute + downlink sends + consumed uplink arrivals only); the
    // pipelined rows should close most of the gap the unpipelined rows
    // leave. The 0-straggler rows are the control: the fleet is
    // fault-free there, so pipelining must change nothing at all.
    {"pipeline_sweep",
     "pipeline sweep  scenario=wifi+2kbps-stragglers,deadline=3 pipeline=BKLW",
     kStragglerBase, kStragglerMember,
     {{kSlow, {"pipelined", nullptr, "pipeline", "%-9s"}, kFeasible},
      {kServerDone}, {kCpBound}, {kCompletion}, {kEnergy},
      {kMisses, kSitesDropped}, {kRounds}, {kCost}},
     [](const char*, Runner& run) { straggler_sweep(run, "pipeline"); }},
    // --- churn sweep: graceful degradation under deadline pressure. Two
    // of the eight sites ride an 8 kbps trace link, so their full-width
    // summary coresets can never cross inside the round; the rest of the
    // fleet optionally churns (stochastic leave/rejoin). Each (deadline,
    // churn) point runs with quant=fixed — the paper's billing, which
    // loses the slow sites' data to the deadline — and quant=adaptive,
    // which narrows those frames until they fit. The columns to watch:
    // misses and summary_pts (adaptive keeps the slow sites' data in the
    // model) against cost_ratio (the accuracy price of the narrowed
    // coordinates). Orphans/joins/leaves trace the churn process itself —
    // identical across the quant pair, since membership draws come from
    // dedicated streams.
    {"churn_sweep",
     "churn sweep  scenario=wifi+8kbps-trace-sites pipeline=BKLW",
     "radio=wifi,retry=giveup,event-log=off,"
     "site0.trace=0:8000:0,site1.trace=0:8000:0",
     "    \"trace_bandwidth_bps\": 8000,\n",
     {{{"deadline_seconds", nullptr, "deadline", "%-9g"},
       {"churn_rate", nullptr, "churn", "%-6.2f", kRate}},
      {{"adaptive_quant", nullptr, "quant", "%-9s", nullptr, "adaptive",
        "fixed"},
       kFeasible},
      {kMisses.table_as("%8llu"),
       {"orphaned_frames", GET(r.orphaned_frames), "orphans", "%8llu"}},
      {{"joins", GET(r.joins), "joins", "%6llu"},
       {"leaves", GET(r.leaves), "leaves", "%6llu"}},
      {kSummary.table_as("%12llu"), kSitesDropped}, {kRounds, kUplinkBits},
      {kCompletion.json_only()}, {kServerDone.json_only()},
      {kEnergy.json_only()}, {kCost}},
     [](const char* base, Runner& run) {
       for (double deadline : {8.0, 5.0}) {
         for (double churn : {0.0, 0.02, 0.05}) {
           for (bool adaptive : {false, true}) {
             run(sprint("%s,deadline=%g,churn=%.3f,quant=%s", base, deadline,
                        churn, adaptive ? "adaptive" : "fixed"),
                 {deadline, churn, adaptive});
           }
         }
       }
     }},
    // --- fleet scale sweep: hierarchical aggregation at fleet sizes a
    // star server cannot reasonably fan-in. Four fault-free wifi fleets
    // from 256 to 10240 sites, each run star and as a two-level tree
    // with branching ≈ √sites, on small per-site shards (8 points × 8
    // dims per site) so the cost scales with the protocol, not the data.
    // The columns to watch: server fan-in (tree: gateways; star: sites),
    // server_completion_seconds (time-to-fresh-model — the tree server
    // drains O(branching) frames instead of O(sites)), and the
    // bits-per-level split — level-0 (site uplinks) is identical star vs
    // tree on a fault-free fleet, the gateway→server hop adds level-1
    // on top. queue_high_water gauges the event-queue memory pressure
    // the 10k-site runs exercise (the reservation the simulator makes
    // up front). No cost-ratio column: every cell is fault-free, so the
    // model quality question belongs to the fault sweeps above.
    {"fleet_scale_sweep",
     "fleet scale sweep  scenario=wifi,fault-free pipeline=BKLW",
     "radio=wifi,sps=1e-6,event-log=off",
     sprint("    \"per_site_points\": %zu, \"dim\": %zu, \"k\": %zu,\n",
            kFleetPoints, kFleetDim, kFleetK),
     {{{"sites", nullptr, "sites", "%-7llu"},
       {"topology", nullptr, "topo", "%-5s"}, kFeasible},
      {{"branching", GET(r.branching), "branch", "%7llu"},
       {"gateways", GET(r.gateways)}},
      {{"server_fan_in", GET(r.server_fan_in), "fan_in", "%7llu"}},
      {kServerDone}, {kCompletion},
      {{"level0_uplink_bits", GET(r.result.uplink.bits), "l0_bits", "%13llu"}},
      {{"level1_uplink_bits", GET(r.gateway_uplink_bits), "l1_bits",
        "%13llu"}},
      {{"queue_high_water", GET(r.queue_high_water), "queue_hw", "%9llu"}},
      {kSummary.json_only(), kRounds}, {kEnergy.json_only()}},
     [](const char* base, Runner& run) {
       for (const auto& [sites, branching] :
            {std::pair<std::uint64_t, std::size_t>{256, 16}, {1024, 32},
             {4096, 64}, {10240, 128}}) {
         // Fresh data and config per fleet size, deterministic in (seed,
         // sites) only — a --only run regenerates exactly what the full run
         // saw — and off the --trace-out recorder.
         const Fleet fleet = make_fleet(
             kFleetPoints * sites, kFleetDim, kFleetK, sites, 2 * sites, 4,
             run.fleet.cfg.seed, 0xf1ee70000ULL + sites, 0x9a870000ULL + sites);
         for (bool tree : {false, true}) {
           run(tree ? sprint("%s,topology=tree,branching=%zu", base, branching)
                    : base,
               {sites, std::string(tree ? "tree" : "star")}, &fleet);
         }
       }
     }},
    // --- attribution: the causal-replay audit over the overlap and
    // pipeline grids. Every (slow × knob × on/off) cell of the two timing
    // sweeps is re-run with its own flight recorder attached, the
    // recorded server-clock op stream is replayed (src/obs/attribution),
    // and the cell reports whether the replayed critical path reproduces
    // the run's server_critical_path_seconds BIT FOR BIT (`cp_match`) —
    // plus where the server's completion time went, per blame category.
    // Each cell builds its own Coordinator and Recorder, so the section
    // is bitwise independent of which other sections ran (the splice
    // contract), and recording never changes a reported number (the
    // recorder contract) — the runs here ARE the overlap_sweep /
    // pipeline_sweep runs, re-observed.
    {"attribution",
     "attribution  scenario=wifi+2kbps-stragglers,deadline=3 pipeline=BKLW",
     kStragglerBase, kStragglerMember,
     {{kSlow, {"knob", nullptr, "knob", "%-9s"}, {"on", nullptr, "on", "%-4s"}},
      {kFeasible,
       {"critical_path_matches",
        GET(c.attribution.valid && c.attribution.critical_path_s ==
                                       r.server_critical_path_seconds),
        "cp_match", "%9s", nullptr, "yes", "NO"}},
      {{"critical_path_seconds", GET(c.attribution.critical_path_s), "cp_s",
        "%12.4f"}},
      {{"reported_server_critical_path_seconds",
        GET(r.server_critical_path_seconds)}},
      {{"server_completion_seconds", GET(c.attribution.server_completion_s),
        "server_done_s", "%14.4f"}},
      {{"blame", GET(blame_object(c)), nullptr, nullptr, "%s"},
       {nullptr, blame<BlameCategory::kSiteCompute>, "site_cmp_s", "%12.4f"},
       {nullptr, blame<BlameCategory::kUplinkAirtime>, "airtime_s", "%12.4f"},
       {nullptr, blame<BlameCategory::kDeadlineWait>, "dl_wait_s", "%12.4f"}}},
     [](const char*, Runner& run) {
       run.attribute = true;
       for (const char* knob : {"overlap", "pipeline"}) {
         straggler_sweep(run, knob, true);
       }
     }},
};
#undef GET

/// A table cell of `text` in a column printed with format `fmt`: the
/// format's flags and width, applied to a string.
std::string table_cell(const char* fmt, const char* text) {
  const std::size_t spec = std::strspn(fmt + 1, "-0123456789");
  return sprint(("%" + std::string(fmt + 1, spec) + "s").c_str(), text);
}

/// The one writer: prints the section's stdout table and returns its
/// JSON member (opening with ",\n", so sections concatenate after the
/// header and each one's bytes are independent of which others ran —
/// what tools/run_bench.sh's splice relies on). An infeasible cell
/// prints the same way in every section: its key columns, then
/// "infeasible" in the table and "feasible": false in JSON.
std::string write_section(const Section& s, const std::vector<Cell>& cells) {
  // Table cells are appended with a leading space, dropped at print.
  std::string head, infeasible;  // infeasible: in the first non-key column
  for (const auto& line : s.lines) {
    for (const Column& col : line) {
      if (col.head == nullptr) continue;
      if (col.get != nullptr && infeasible.empty()) {
        infeasible = " " + table_cell(col.table, "infeasible");
      }
      head += " " + table_cell(col.table, col.head);
    }
  }
  if (s.caption != nullptr) std::printf("\n%s\n", s.caption);
  std::printf("%s\n", head.c_str() + 1);

  const std::string pad(s.scenario == nullptr ? 4 : 6, ' ');
  const std::string next_line = ",\n " + pad;
  std::string json =
      s.scenario == nullptr
          ? std::string(",\n  \"cells\": [\n")
          : sprint(",\n  \"%s\": {\n    \"scenario\": \"%s\",\n"
                   "    \"pipeline\": \"bklw\",\n%s    \"cells\": [\n",
                   s.name, json_escape(s.scenario).c_str(), s.extra.c_str());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::string row, members;
    std::size_t key = 0;
    for (const auto& line : s.lines) {
      bool line_start = true;
      for (const Column& col : line) {
        if (col.get != nullptr && !cell.feasible) break;
        const Value v = col.get != nullptr ? col.get(cell) : cell.keys[key++];
        if (col.head != nullptr) {
          row += " " + render(col.table, v, col.yes, col.no);
        }
        if (col.key == nullptr) continue;
        if (!members.empty()) {
          members += line_start && cell.feasible ? next_line : ", ";
        }
        line_start = false;
        members += sprint("\"%s\": ", col.key) + render(col.json, v);
      }
    }
    if (!cell.feasible) {
      row += infeasible;
      members += ", \"feasible\": false";
    }
    std::printf("%s\n", row.c_str() + 1);
    json += (i == 0 ? "" : ",\n") + pad + "{" + members + "}";
  }
  return json + (s.scenario == nullptr ? "\n  ]" : "\n    ]\n  }");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 4000, d = 32, k = 4, sources = 8;
  std::uint64_t seed = 7;
  std::string json_path, trace_path, metrics_path;
  std::string only;  // empty: run every section
  bool list_sections = false;
  bench::MetaPairs meta;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {  // a flag and its value
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    const auto size = [&] {
      return static_cast<std::size_t>(std::atoll(argv[++i]));
    };
    if (flag("--n")) n = size();
    else if (flag("--d")) d = size();
    else if (flag("--k")) k = size();
    else if (flag("--sources")) sources = size();
    else if (flag("--seed")) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (flag("--json")) json_path = argv[++i];
    else if (flag("--only")) only = argv[++i];
    else if (std::strcmp(argv[i], "--list") == 0) list_sections = true;
    else if (flag("--trace-out")) trace_path = argv[++i];
    else if (flag("--metrics-out")) metrics_path = argv[++i];
    else if (flag("--meta") && !bench::parse_meta_pair(argv[++i], meta))
      return 2;
  }
  if (list_sections) {
    for (const Section& s : kSections) std::printf("%s\n", s.name);
    return 0;
  }
  if (!only.empty() &&
      std::none_of(kSections.begin(), kSections.end(),
                   [&](const Section& s) { return only == s.name; })) {
    std::fprintf(stderr, "unknown --only section '%s' (expected one of:",
                 only.c_str());
    for (const Section& s : kSections) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Fleet fleet =
      make_fleet(n, d, k, sources, 300, 16, seed, 0xdadaULL, 0x9a87ULL);
  PipelineConfig& cfg = fleet.cfg;

  // One recorder across all sweep cells (each Coordinator run attaches
  // it to its own SimNetwork): spans from different cells share the
  // virtual-time axis, which is fine for a debug artifact. Attached
  // only when an export was requested — and even attached, recording
  // changes no reported number.
  Recorder recorder;
  if (!trace_path.empty() || !metrics_path.empty()) {
    cfg.recorder = &recorder;
    install_recorder(&recorder);
  }

  // The ship-everything baseline the cost ratios are against.
  const PipelineResult nr = run_distributed_pipeline(
      PipelineKind::kNoReduction, fleet.parts, cfg);
  fleet.nr_cost = kmeans_cost(fleet.data, nr.centers);

  std::printf("sim scenarios  n=%zu d=%zu k=%zu sources=%zu pipeline=BKLW\n",
              n, d, k, sources);
  std::string sections_json;
  for (const Section& s : kSections) {
    if (!only.empty() && only != s.name) continue;
    Runner run{fleet};
    s.sweep(s.scenario, run);
    sections_json += write_section(s, run.cells);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim_scenarios\",\n");
    bench::write_provenance(f, meta, "  ");
    std::fprintf(f,
                 "  \"pipeline\": \"bklw\",\n"
                 "  \"n\": %zu, \"d\": %zu, \"k\": %zu, \"sources\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"nr_cost\": %.17g%s\n}\n",
                 n, d, k, sources, static_cast<unsigned long long>(seed),
                 fleet.nr_cost, sections_json.c_str());
    std::fclose(f);
  }

  install_recorder(nullptr);
  if (!trace_path.empty() && !write_chrome_trace(recorder, trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  if (!metrics_path.empty() && !write_metrics_jsonl(recorder, metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  return 0;
}
