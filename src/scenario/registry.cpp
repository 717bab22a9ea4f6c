#include "scenario/registry.hpp"

#include <limits>
#include <memory>
#include <utility>

#include "graph/ba.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/gnp.hpp"
#include "graph/graph.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/rgg2d.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "scenario/spec_params.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::scenario {

namespace {

constexpr SpecParams kSpec("topology spec");

/// parse_u64 narrowed to the 32-bit constructor parameters; out-of-range
/// values throw instead of silently wrapping to a different substrate.
std::uint32_t narrow_u32(const std::string& family, const std::string& key,
                         std::uint64_t value) {
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    kSpec.fail(family, "parameter '" + key + "=" + std::to_string(value) +
                           "': exceeds the 32-bit range");
  }
  return static_cast<std::uint32_t>(value);
}

/// Splits "AxB" into two strict uints.
std::pair<std::uint64_t, std::uint64_t> parse_pair(const std::string& family,
                                                   const std::string& what,
                                                   const std::string& params) {
  const auto x = params.find('x');
  if (x == std::string::npos) {
    kSpec.fail(family, "expected '" + what + "', got '" + params + "'");
  }
  const auto lhs = what.substr(0, what.find('x'));
  const auto rhs = what.substr(what.find('x') + 1);
  return {kSpec.parse_u64(family, lhs, params.substr(0, x)),
          kSpec.parse_u64(family, rhs, params.substr(x + 1))};
}

Registry make_built_in() {
  Registry reg;

  reg.register_family(
      "torus2d",
      {.make =
           [](const std::string& params) {
             const auto [w, h] = parse_pair("torus2d", "WIDTHxHEIGHT", params);
             return graph::AnyTopology(
                 graph::Torus2D(narrow_u32("torus2d", "WIDTH", w),
                                narrow_u32("torus2d", "HEIGHT", h)));
           },
       .canonical =
           [](const std::string& params) {
             const auto [w, h] = parse_pair("torus2d", "WIDTHxHEIGHT", params);
             return "torus2d:" + std::to_string(w) + "x" + std::to_string(h);
           },
       .grammar = "torus2d:WIDTHxHEIGHT (2-D torus, Section 2; "
                  "e.g. torus2d:64x64)"});

  reg.register_family(
      "ring",
      {.make =
           [](const std::string& params) {
             return graph::AnyTopology(
                 graph::Ring(kSpec.parse_u64("ring", "NODES", params)));
           },
       .canonical =
           [](const std::string& params) {
             return "ring:" + std::to_string(
                                  kSpec.parse_u64("ring", "NODES", params));
           },
       .grammar = "ring:NODES (1-D torus, Section 4.2; "
                  "e.g. ring:10000)"});

  reg.register_family(
      "hypercube",
      {.make =
           [](const std::string& params) {
             return graph::AnyTopology(graph::Hypercube(narrow_u32(
                 "hypercube", "DIMS",
                 kSpec.parse_u64("hypercube", "DIMS", params))));
           },
       .canonical =
           [](const std::string& params) {
             return "hypercube:" + std::to_string(kSpec.parse_u64(
                                       "hypercube", "DIMS", params));
           },
       .grammar = "hypercube:DIMS (k-dim hypercube, Section 4.5; "
                  "e.g. hypercube:14)"});

  reg.register_family(
      "toruskd",
      {.make =
           [](const std::string& params) {
             const auto [k, side] = parse_pair("toruskd", "DIMSxSIDE", params);
             return graph::AnyTopology(
                 graph::TorusKD(narrow_u32("toruskd", "DIMS", k),
                                narrow_u32("toruskd", "SIDE", side)));
           },
       .canonical =
           [](const std::string& params) {
             const auto [k, side] = parse_pair("toruskd", "DIMSxSIDE", params);
             return "toruskd:" + std::to_string(k) + "x" +
                    std::to_string(side);
           },
       .grammar = "toruskd:DIMSxSIDE (k-dim torus, Section 4.3; "
                  "e.g. toruskd:3x22)"});

  reg.register_family(
      "complete",
      {.make =
           [](const std::string& params) {
             return graph::AnyTopology(graph::CompleteGraph(
                 kSpec.parse_u64("complete", "NODES", params)));
           },
       .canonical =
           [](const std::string& params) {
             return "complete:" + std::to_string(kSpec.parse_u64(
                                      "complete", "NODES", params));
           },
       .grammar = "complete:NODES (complete graph, Section 1.1; "
                  "e.g. complete:4096)"});

  const std::vector<KvField> expander_fields = {
      u64_field("d", true), u64_field("n", true), u64_field("seed", false, 1)};
  reg.register_family(
      "expander",
      {.make =
           [=](const std::string& params) {
             const auto v = kSpec.parse_kv("expander", params, expander_fields);
             // The explicit graph is owned by the handle (payload), so
             // the spec string is the only lifetime the caller manages.
             auto g = std::make_shared<graph::Graph>(
                 graph::make_random_regular_graph(
                     narrow_u32("expander", "n", v.u64s[1]),
                     narrow_u32("expander", "d", v.u64s[0]), v.u64s[2]));
             return graph::AnyTopology::with_payload(
                 graph::ExplicitTopology(*g, "expander"), g);
           },
       .canonical =
           [=](const std::string& params) {
             const auto v = kSpec.parse_kv("expander", params, expander_fields);
             return "expander:d=" + std::to_string(v.u64s[0]) +
                    ",n=" + std::to_string(v.u64s[1]) +
                    ",seed=" + std::to_string(v.u64s[2]);
           },
       .grammar = "expander:d=DEGREE,n=NODES[,seed=S] (random d-regular "
                  "graph, Section 4.4; e.g. expander:d=8,n=100000,seed=7)"});

  // --- Implicit generator families (KaGen-style, O(1) memory) ---

  const std::vector<KvField> rgg2d_fields = {
      u64_field("n", true), f64_field("r", true), u64_field("seed", false, 1)};
  const auto rgg2d_parse = [=](const std::string& params) {
    const auto v = kSpec.parse_kv("rgg2d", params, rgg2d_fields);
    kSpec.check_range(v.f64s[1] > 0.0 && v.f64s[1] < 1.0, "rgg2d", "r",
                      util::format_shortest(v.f64s[1]),
                      "radius must be in (0, 1)");
    kSpec.check_range(v.u64s[0] >= 2, "rgg2d", "n",
                      std::to_string(v.u64s[0]), "need at least 2 nodes");
    return v;
  };
  reg.register_family(
      "rgg2d",
      {.make =
           [=](const std::string& params) {
             const auto v = rgg2d_parse(params);
             return graph::AnyTopology(
                 graph::Rgg2D(v.u64s[0], v.f64s[1], v.u64s[2]));
           },
       .canonical =
           [=](const std::string& params) {
             const auto v = rgg2d_parse(params);
             return "rgg2d:n=" + std::to_string(v.u64s[0]) +
                    ",r=" + util::format_shortest(v.f64s[1]) +
                    ",seed=" + std::to_string(v.u64s[2]);
           },
       .grammar = "rgg2d:n=NODES,r=RADIUS[,seed=S] (implicit toroidal "
                  "random geometric graph, O(1) memory; "
                  "e.g. rgg2d:n=100000000,r=0.0002,seed=1)"});

  const std::vector<KvField> gnp_fields = {
      u64_field("n", true), f64_field("p", true), u64_field("seed", false, 1)};
  const auto gnp_parse = [=](const std::string& params) {
    const auto v = kSpec.parse_kv("gnp", params, gnp_fields);
    kSpec.check_range(v.f64s[1] > 0.0 && v.f64s[1] <= 1.0, "gnp", "p",
                      util::format_shortest(v.f64s[1]),
                      "edge probability must be in (0, 1]");
    kSpec.check_range(v.u64s[0] >= 2, "gnp", "n", std::to_string(v.u64s[0]),
                      "need at least 2 nodes");
    return v;
  };
  reg.register_family(
      "gnp",
      {.make =
           [=](const std::string& params) {
             const auto v = gnp_parse(params);
             return graph::AnyTopology(
                 graph::Gnp(v.u64s[0], v.f64s[1], v.u64s[2]));
           },
       .canonical =
           [=](const std::string& params) {
             const auto v = gnp_parse(params);
             return "gnp:n=" + std::to_string(v.u64s[0]) +
                    ",p=" + util::format_shortest(v.f64s[1]) +
                    ",seed=" + std::to_string(v.u64s[2]);
           },
       .grammar = "gnp:n=NODES,p=PROB[,seed=S] (implicit Erdős–Rényi "
                  "G(n, p), O(1) memory, O(n) neighbor queries; "
                  "e.g. gnp:n=2000,p=0.01,seed=1)"});

  const std::vector<KvField> ba_fields = {
      u64_field("n", true), u64_field("d", true), u64_field("seed", false, 1)};
  const auto ba_parse = [=](const std::string& params) {
    const auto v = kSpec.parse_kv("ba", params, ba_fields);
    kSpec.check_range(v.u64s[1] >= 1, "ba", "d", std::to_string(v.u64s[1]),
                      "attachment degree must be >= 1");
    kSpec.check_range(v.u64s[0] > v.u64s[1], "ba", "n",
                      std::to_string(v.u64s[0]), "need n > d");
    return v;
  };
  reg.register_family(
      "ba",
      {.make =
           [=](const std::string& params) {
             const auto v = ba_parse(params);
             return graph::AnyTopology(
                 graph::Ba(v.u64s[0], v.u64s[1], v.u64s[2]));
           },
       .canonical =
           [=](const std::string& params) {
             const auto v = ba_parse(params);
             return "ba:n=" + std::to_string(v.u64s[0]) +
                    ",d=" + std::to_string(v.u64s[1]) +
                    ",seed=" + std::to_string(v.u64s[2]);
           },
       .grammar = "ba:n=NODES,d=ATTACH[,seed=S] (implicit Barabási–Albert "
                  "preferential attachment, O(1) memory, O(n*d) neighbor "
                  "queries; e.g. ba:n=5000,d=4,seed=1)"});

  return reg;
}

}  // namespace

const Registry& Registry::built_in() {
  static const Registry reg = make_built_in();
  return reg;
}

}  // namespace antdense::scenario
