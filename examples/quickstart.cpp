// Quickstart: the full MPass pipeline in ~60 lines.
//
//  1. Generate a synthetic malware PE and confirm its behavior in the
//     sandbox (the Cuckoo substitute).
//  2. Load the trained detector zoo (cached after the first run).
//  3. Attack the MalConv detector through the hard-label oracle with
//     attack::Mpass, the same attack::Attack the experiment harness runs.
//  4. Verify the adversarial example bypasses the detector AND still shows
//     the identical malicious behavior trace.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "attack/mpass.hpp"
#include "corpus/generator.hpp"
#include "detectors/zoo.hpp"
#include "vm/sandbox.hpp"

int main() {
  using namespace mpass;

  // 1. A fresh malware sample.
  corpus::CompiledSample malware = corpus::make_malware(/*seed=*/20230712);
  const util::ByteBuf original = malware.bytes();
  std::printf("sample: family=%s, %zu bytes, %zu sections\n",
              std::string(corpus::family_name(malware.meta.family)).c_str(),
              original.size(), malware.pe.sections.size());

  const vm::Sandbox sandbox;
  const vm::SandboxReport before = sandbox.analyze(original);
  std::printf("sandbox: ran=%d malicious=%d, %zu API events\n",
              before.executed_ok, before.malicious, before.trace().size());

  // 2. Trained detectors (first run trains and caches them).
  detect::ModelZoo& zoo = detect::ModelZoo::instance();
  const detect::Detector& target = zoo.offline_by_name("MalConv");
  std::printf("target %s: score=%.3f (threshold %.3f) -> %s\n",
              std::string(target.name()).c_str(), target.score(original),
              target.threshold(),
              target.is_malicious(original) ? "DETECTED" : "missed");

  // 3. MPass with the remaining differentiable models as the known ensemble
  //    (the attack copies them).
  attack::Mpass attack("MPass", {}, zoo.benign_pool(),
                       zoo.known_nets_excluding(target.name()));
  detect::HardLabelOracle oracle(target, /*max_queries=*/100);
  const attack::AttackResult result = attack.run(original, oracle, /*seed=*/7);
  const double apr = attack::apr_of(original.size(), result.adversarial.size());
  std::printf("attack: success=%d queries=%zu APR=%.0f%%\n", result.success,
              oracle.queries(), 100.0 * apr);

  // 4. The AE must evade *and* behave identically.
  if (result.success) {
    std::printf("AE score on target: %.3f (below threshold)\n",
                target.score(result.adversarial));
    const bool preserved =
        sandbox.functionality_preserved(original, result.adversarial);
    std::printf("functionality preserved (identical behavior trace): %s\n",
                preserved ? "YES" : "NO");
    return preserved ? 0 : 1;
  }
  std::printf("attack failed within the query budget\n");
  return 1;
}
