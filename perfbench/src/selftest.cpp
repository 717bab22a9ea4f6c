// The benchmark's own tests: inputs are a pure function of the seed, and
// the output checks fire on corrupted or biased results.  Exit code 0
// when every case passes.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "inputs.hpp"
#include "scenario/experiment.hpp"

namespace {

using antdense::util::JsonValue;
using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  } else {
    std::cout << "ok: " << what << "\n";
  }
}

std::string dump_all(const std::vector<WalkInput>& inputs) {
  std::string out;
  for (const WalkInput& input : inputs) {
    out += input.spec.dump(0) + "\n";
  }
  return out;
}

std::string request_stream(std::uint64_t seed) {
  const std::vector<JsonValue> pool = serve_pool(seed);
  std::string out;
  for (unsigned client = 0; client < 4; ++client) {
    for (std::uint64_t i = 0; i < 4 * kBurstEvery; ++i) {
      out += serve_request(pool, seed, client, i).spec.dump(0) + "\n";
    }
  }
  return out;
}

void test_inputs_follow_the_seed() {
  const std::string a = dump_all(walk_inputs(11, 4));
  expect(a == dump_all(walk_inputs(11, 4)),
         "walk-regular: same seed, same spec list");
  expect(a != dump_all(walk_inputs(12, 4)),
         "walk-regular: another seed, another spec list");
  for (const std::string workload : {"walk-regular", "sweep-churn"}) {
    expect(invariance_spec(workload, 11).dump(0) !=
               invariance_spec(workload, 12).dump(0),
           workload + ": the invariance spec follows the seed");
  }
  expect(sweep_campaign(11, 4).dump(0) == sweep_campaign(11, 4).dump(0),
         "sweep-churn: same seed, same campaign");
  expect(sweep_campaign(11, 4).dump(0) != sweep_campaign(12, 4).dump(0),
         "sweep-churn: another seed, another campaign");
  expect(request_stream(11) == request_stream(11),
         "serve-mix: same seed, same request stream");
  expect(request_stream(11) != request_stream(12),
         "serve-mix: another seed, another request stream");
}

void test_sizes_do_not_follow_the_seed() {
  // The seed moves sampled values only; the work stays the same.
  auto shape = [](std::uint64_t seed) {
    std::string out;
    for (const WalkInput& input : walk_inputs(seed, 4)) {
      out += input.family + ":" + input.spec.find("engine")->as_string() +
             ":" + input.spec.find("agents")->dump(0) + ":" +
             input.spec.find("rounds")->dump(0) + ",";
    }
    return out;
  };
  std::string sorted_a = shape(11);
  std::string sorted_b = shape(12);
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  expect(sorted_a == sorted_b, "walk-regular: sizes do not depend on the seed");
}

void test_bursts_are_shared() {
  const std::vector<JsonValue> pool = serve_pool(5);
  const std::uint64_t burst = kBurstEvery - 1;
  const ServeRequest a = serve_request(pool, 5, 0, burst);
  const ServeRequest b = serve_request(pool, 5, 3, burst);
  expect(a.kind == ServeRequest::Kind::kBurst &&
             a.spec.dump(0) == b.spec.dump(0),
         "serve-mix: every client sends the same burst spec");
  expect(serve_request(pool, 5, 0, burst + kBurstEvery).spec.dump(0) !=
             a.spec.dump(0),
         "serve-mix: each burst is a new spec");
}

void test_checks_catch_corruption() {
  // A real result, so the statistics are the ones the benchmark sees.
  antdense::scenario::ScenarioSpec spec;
  spec.topology = "torus2d:64x64";
  spec.agents = 410;
  spec.rounds = 300;
  spec.trials = 2;
  spec.seed = 3;
  const antdense::scenario::ScenarioResult result =
      antdense::scenario::Experiment(spec).run();
  const double mean = result.summary.mean;
  const double se = result.summary.standard_error;
  const double truth = result.true_value;
  expect(lemma2_unbiased(mean, se, truth), "Lemma 2 passes a real result");
  expect(!lemma2_unbiased(truth + 6 * true_standard_error(se), se, truth),
         "Lemma 2 catches a mean biased up by 6 SE");
  expect(!lemma2_unbiased(truth * 0.9, se, truth),
         "Lemma 2 catches a mean biased down by 10%");
  expect(!lemma2_lower_bound(truth - 6 * true_standard_error(se), se, truth),
         "the lower bound catches a mean 6 SE low");
  expect(lemma2_lower_bound(truth * 1.5, se, truth),
         "the lower bound allows degree-biased means above the truth");
  expect(theorem1_verdict(0.95, 0.1) && !theorem1_verdict(0.85, 0.1),
         "Theorem 1 verdict at 1 - delta");

  const std::string bytes = canonical_result(result);
  std::string corrupted = bytes;
  corrupted[corrupted.size() / 2] ^= 0x01;
  expect(payload_mismatch(bytes, bytes).empty(),
         "identical payloads compare equal");
  expect(!payload_mismatch(bytes, corrupted).empty(),
         "one flipped payload byte is caught");
  expect(!payload_mismatch(bytes, bytes + " ").empty(),
         "a longer payload is caught");
}

}  // namespace

int main() {
  test_inputs_follow_the_seed();
  test_sizes_do_not_follow_the_seed();
  test_bursts_are_shared();
  test_checks_catch_corruption();
  std::cout << (failures == 0 ? "all passed" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
