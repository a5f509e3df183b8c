// Tests for hierarchical aggregation (topology=tree): the shared
// associative-merge layer's order contracts (permutation-invariant
// multisets, bitwise-stable fixed folds), TreeTopology's shape
// arithmetic and per-level deadline split, star-vs-tree bitwise parity
// on a fault-free fleet, EKM_THREADS determinism on a 3-gateway fleet,
// and the scenario grammar's build-time rejection of malformed or
// misplaced tree keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "cr/merge.hpp"
#include "data/generators.hpp"
#include "net/topology.hpp"
#include "sim/coordinator.hpp"
#include "sim/scenario.hpp"

namespace ekm {
namespace {

std::vector<Dataset> make_parts(std::size_t m, std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.k = 4;
  Rng rng = make_rng(seed, 0xdadaULL);
  const Dataset data = make_gaussian_mixture(spec, rng);
  Rng part_rng = make_rng(seed, 0x9a87ULL);
  return partition_random(data, m, part_rng);
}

PipelineConfig base_config(std::uint64_t seed = 11) {
  PipelineConfig cfg;
  cfg.k = 3;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.coreset_size = 200;
  cfg.pca_dim = 8;
  return cfg;
}

Coreset make_coreset(std::size_t n, std::size_t d, std::uint64_t salt) {
  Rng rng = make_rng(97, salt);
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> uniform;
  Matrix pts(n, d);
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) pts(i, j) = normal(rng);
    weights[i] = 1.0 + uniform(rng);
  }
  Coreset c;
  c.points = Dataset(std::move(pts), std::move(weights));
  return c;
}

/// A dataset's weighted rows as a sortable multiset.
std::vector<std::vector<double>> weighted_rows(const Dataset& ds) {
  std::vector<std::vector<double>> rows;
  rows.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto p = ds.point(i);
    std::vector<double> row(p.begin(), p.end());
    row.push_back(ds.weight(i));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(Merge, WeightedUnionIsOrderInvariantAndStable) {
  const Coreset a = make_coreset(7, 4, 0xaULL);
  const Coreset b = make_coreset(5, 4, 0xbULL);

  const Dataset ab = merge_weighted(a, b);
  const Dataset ba = merge_weighted(b, a);
  ASSERT_EQ(ab.size(), 12u);
  ASSERT_EQ(ba.size(), 12u);
  // Permuting the operands permutes rows but preserves the weighted
  // point multiset exactly — no tolerance needed, the merge never
  // touches a coordinate.
  EXPECT_EQ(weighted_rows(ab), weighted_rows(ba));
  EXPECT_NE(ab.point(0)[0], ba.point(0)[0]);  // but the order did move

  // Fixed operand order is bitwise stable across repeated folds.
  const Dataset again = merge_weighted(a, b);
  ASSERT_EQ(again.size(), ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    auto x = ab.point(i);
    auto y = again.point(i);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
    EXPECT_EQ(ab.weight(i), again.weight(i));
  }
}

TEST(Merge, UnionSkipsEmptiesAndConcatenatesInOrder) {
  const Coreset a = make_coreset(3, 4, 0xcULL);
  const Coreset b = make_coreset(2, 4, 0xdULL);
  std::vector<Dataset> pieces;
  pieces.push_back({});
  pieces.push_back(a.points);
  pieces.push_back({});
  pieces.push_back(b.points);
  const Dataset u = merge_union(std::move(pieces));
  ASSERT_EQ(u.size(), 5u);
  // Concatenation order: a's rows then b's rows, coordinates untouched.
  EXPECT_EQ(u.point(0)[0], a.points.point(0)[0]);
  EXPECT_EQ(u.point(3)[0], b.points.point(0)[0]);
  EXPECT_EQ(u.weight(4), b.points.weight(1));

  EXPECT_EQ(merge_union({}).size(), 0u);
  std::vector<Dataset> empties(3);
  EXPECT_EQ(merge_union(std::move(empties)).size(), 0u);
}

TEST(TreeTopology, ShapeArithmeticAndDeadlineSplit) {
  TreeTopology t;
  t.sites = 10;
  t.branching = 4;
  EXPECT_EQ(t.gateways(), 3u);
  EXPECT_EQ(t.gateway_of(0), 0u);
  EXPECT_EQ(t.gateway_of(7), 1u);
  EXPECT_EQ(t.gateway_of(9), 2u);
  EXPECT_EQ(t.child_begin(2), 8u);
  EXPECT_EQ(t.child_end(2), 10u);  // last gateway takes the remainder
  EXPECT_EQ(t.fan_in(0), 4u);
  EXPECT_EQ(t.fan_in(2), 2u);

  // A finite budget splits along level_split; an unbounded round stays
  // unbounded at both levels.
  t.level_split = 0.25;
  EXPECT_DOUBLE_EQ(t.level0_deadline(10.0, 8.0), 10.0 - 0.75 * 8.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(t.level0_deadline(inf, inf), inf);
}

TEST(Tree, StarAndTreeAgreeBitwiseOnFaultFreeFleet) {
  const auto parts = make_parts(12, 2400, 16, 7);
  const PipelineConfig cfg = base_config(7);
  const Coordinator star(parse_scenario("radio=wifi,seed=7"));
  const Coordinator tree(
      parse_scenario("radio=wifi,seed=7,topology=tree,branching=4"));

  const SimReport s = star.run(PipelineKind::kBklw, parts, cfg);
  const SimReport t = tree.run(PipelineKind::kBklw, parts, cfg);

  // The contract: a fault-free tree is the star model bit for bit —
  // same centers, same summary, same level-0 ledger (site uplinks are
  // the paper's metric; the gateway hop is billed separately).
  EXPECT_EQ(t.result.centers, s.result.centers);
  EXPECT_EQ(t.result.summary_points, s.result.summary_points);
  EXPECT_EQ(t.result.uplink, s.result.uplink);

  // What the tree changes: the server's fan-in collapses to the
  // gateway count and the level-1 hop appears in its own ledger.
  EXPECT_EQ(s.server_fan_in, 12u);
  EXPECT_EQ(s.gateways, 0u);
  EXPECT_EQ(t.gateways, 3u);
  EXPECT_EQ(t.branching, 4u);
  EXPECT_EQ(t.server_fan_in, 3u);
  EXPECT_GT(t.gateway_uplink_bits, 0u);
  EXPECT_EQ(s.gateway_uplink_bits, 0u);
  EXPECT_GT(t.queue_high_water, 0u);
  EXPECT_EQ(t.sites_dropped, 0u);

  // branching >= fleet degenerates to the star path exactly.
  const Coordinator degenerate(
      parse_scenario("radio=wifi,seed=7,topology=tree,branching=16"));
  const SimReport dg = degenerate.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(dg.gateways, 0u);
  EXPECT_EQ(dg.result.centers, s.result.centers);
  EXPECT_EQ(dg.result.uplink, s.result.uplink);
  EXPECT_EQ(dg.completion_seconds, s.completion_seconds);
}

TEST(Tree, DeterministicAcrossThreadCountsOnThreeGatewayFleet) {
  const auto parts = make_parts(12, 1800, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator coord(
      parse_scenario("lossy-mesh,seed=23,topology=tree,branching=4"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.uplink, eight.result.uplink);
  EXPECT_EQ(one.result.centers, eight.result.centers);
  EXPECT_EQ(one.gateway_uplink_bits, eight.gateway_uplink_bits);
  EXPECT_EQ(one.queue_high_water, eight.queue_high_water);
}

TEST(Tree, ScenarioGrammarRejectsMalformedOrMisplacedKeys) {
  // Tree-only keys are rejected under star — at parse time, naming the
  // offending key so a fat-fingered spec fails the build, not the run.
  EXPECT_THROW((void)parse_scenario("branching=4"), precondition_error);
  EXPECT_THROW((void)parse_scenario("level-split=0.5"), precondition_error);
  try {
    (void)parse_scenario("gateway0.loss=0.1");
    FAIL() << "gatewayN.* without topology=tree must not parse";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("gateway0.loss"), std::string::npos);
  }

  // Malformed values name themselves too.
  EXPECT_THROW((void)parse_scenario("topology=ring"), precondition_error);
  EXPECT_THROW((void)parse_scenario("topology=tree"), precondition_error);
  EXPECT_THROW((void)parse_scenario("topology=tree,branching=1"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("topology=tree,branching=4,level-split=1"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("topology=tree,branching=4,level-split=0"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("topology=tree,branching=x"),
               precondition_error);

  // The full grammar parses when the keys agree.
  const SimScenario ok = parse_scenario(
      "topology=tree,branching=4,level-split=0.5,gateway0.loss=0.1");
  EXPECT_EQ(ok.topology, SimTopology::kTree);
  EXPECT_EQ(ok.branching, 4u);
  ASSERT_EQ(ok.gateway_overrides.size(), 1u);
  EXPECT_EQ(ok.gateway_overrides[0].site, 0u);
}

TEST(Tree, CoordinatorRejectsUnsupportedCombinations) {
  const auto parts = make_parts(8, 800, 8, 3);
  const PipelineConfig cfg = base_config(3);

  // A gateway override past the derived gateway count names the key.
  const Coordinator bad_gw(parse_scenario(
      "radio=wifi,topology=tree,branching=4,gateway7.loss=0.5"));
  try {
    (void)bad_gw.run(PipelineKind::kBklw, parts, cfg);
    FAIL() << "gateway override past the tree must not run";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("gateway7.loss"), std::string::npos);
  }

  // No-reduction ships raw points a gateway cannot merge.
  const Coordinator tree(
      parse_scenario("radio=wifi,topology=tree,branching=4"));
  EXPECT_THROW((void)tree.run(PipelineKind::kNoReduction, parts, cfg),
               precondition_error);

  // Streaming needs each site's summary individually replaceable.
  StreamingCoresetOptions sopts;
  sopts.coreset_size = 60;
  sopts.seed = 3;
  EXPECT_THROW((void)tree.run_streaming(parts, sopts, cfg, 2),
               precondition_error);
}

// --- cross-round pipelining on a tree (RoundPolicy::pipeline) -------------

TEST(Pipeline, LateGatewayReduceNeverAliasesTheNextRound) {
  // The inner fabric of a tree carries sites + gateways as ordinary
  // sources; a gateway's reduce rides its uplink like any site frame.
  // Model a 2-site + 1-gateway inner fleet where the gateway (index 2)
  // is behind a 1 kbps link: its round-r reduce is still on the air
  // when round r+1 opens. Round r's receive consumes the late frame
  // (abandoning it); an r+1-scoped receive reaching the same link
  // while the r frame is queued is cross-round aliasing and must trip
  // the fabric's assert rather than hand round r's data to round r+1.
  SimNetwork net(3, parse_scenario("radio=wifi,site2.bandwidth=1000"));
  net.set_round_pipelining(true);
  const auto send_reduce = [&] {
    Message msg;
    msg.payload.resize(1 << 14);
    msg.wire_bits = 100'000;  // ~100 s at 1 kbps: late for any 2 s round
    msg.scalars = 4;
    net.uplink(2).send(std::move(msg));
  };

  // Correct lifecycle: the round that sent the frame receives it.
  const RoundId r1 = net.open_round(2.0);
  send_reduce();
  const RoundId r2 = net.open_round(2.0);  // pipelined round r+1 opens
  EXPECT_FALSE(net.uplink(2).receive_by(r1).has_value());  // late → miss
  send_reduce();
  EXPECT_FALSE(net.uplink(2).receive_by(r2).has_value());

  // Violation: a frame sent under r3 but reached for with r4's handle.
  const RoundId r3 = net.open_round(2.0);
  send_reduce();
  const RoundId r4 = net.open_round(2.0);
  EXPECT_GT(r4, r3);
  EXPECT_THROW((void)net.uplink(2).receive_by(r4), precondition_error);
}

TEST(Pipeline, StragglingGatewayFleetKeepsResultsAndCommitsEarlier) {
  // One gateway behind a 2 kbps link under a 3 s round with give-up
  // retry: its reduces expire at ready without keying the radio, so
  // pipelining changes *when the server learns* (predicted-arrival NAK
  // at the provable miss instead of the round cutoff) and nothing
  // else — centers, ledgers, energy, misses all bit-identical, with a
  // strictly earlier server commit bounded below by the critical path.
  const auto parts = make_parts(12, 2400, 16, 7);
  const PipelineConfig cfg = base_config(7);
  const char* base =
      "radio=wifi,deadline=3,retry=giveup,topology=tree,branching=4,"
      "gateway0.bandwidth=2000,seed=7";
  const Coordinator off(parse_scenario(base));
  const Coordinator on(parse_scenario(std::string(base) + ",pipeline=on"));

  const SimReport plain = off.run(PipelineKind::kBklw, parts, cfg);
  const SimReport piped = on.run(PipelineKind::kBklw, parts, cfg);

  ASSERT_GT(plain.deadline_misses, 0u);  // the gateway really straggled
  EXPECT_EQ(piped.result.centers, plain.result.centers);
  EXPECT_EQ(piped.result.uplink, plain.result.uplink);
  EXPECT_EQ(piped.result.downlink, plain.result.downlink);
  EXPECT_EQ(piped.energy_joules, plain.energy_joules);
  EXPECT_EQ(piped.deadline_misses, plain.deadline_misses);
  EXPECT_EQ(piped.gateway_uplink_bits, plain.gateway_uplink_bits);
  EXPECT_LT(piped.server_completion_seconds, plain.server_completion_seconds);
  EXPECT_GE(piped.server_completion_seconds,
            piped.server_critical_path_seconds);
  EXPECT_GE(plain.server_completion_seconds,
            plain.server_critical_path_seconds);
}

TEST(Pipeline, TreeDeterministicAcrossThreadCountsWithPipelining) {
  const auto parts = make_parts(12, 1800, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator coord(parse_scenario(
      "lossy-mesh,seed=23,topology=tree,branching=4,deadline=4,"
      "retry=giveup,pipeline=on"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.server_completion_seconds, eight.server_completion_seconds);
  EXPECT_EQ(one.server_critical_path_seconds,
            eight.server_critical_path_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.uplink, eight.result.uplink);
  EXPECT_EQ(one.result.centers, eight.result.centers);
  EXPECT_EQ(one.gateway_uplink_bits, eight.gateway_uplink_bits);
}

}  // namespace
}  // namespace ekm
