// Detector interface: every ML-based static malware detector in this
// repository scores raw PE file bytes. Attacks only ever see detectors
// through HardLabelOracle -- the paper's hard-label black-box query model
// (benign/malicious verdict only, with a query counter).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace mpass::detect {

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string_view name() const = 0;

  /// Maliciousness score in [0, 1] on raw file bytes. Must never throw on
  /// malformed files (adversarial inputs are the norm).
  virtual double score(std::span<const std::uint8_t> bytes) const = 0;

  /// Deep copy carrying the trained state *and* the threshold. Concurrent
  /// attack tasks each query a private clone, so detectors whose score()
  /// mutates internal forward caches never race. Never null.
  virtual std::unique_ptr<Detector> clone() const = 0;

  double threshold() const { return threshold_; }
  void set_threshold(double t) { threshold_ = t; }

  /// Hard-label verdict.
  bool is_malicious(std::span<const std::uint8_t> bytes) const {
    return score(bytes) >= threshold_;
  }

 private:
  double threshold_ = 0.5;
};

/// Black-box query interface with a query budget/counter, shared by all
/// attacks so AVQ is measured identically (paper §IV, "AVQ" metric): the
/// oracle, not the attack, is the only source of query accounting.
class HardLabelOracle {
 public:
  explicit HardLabelOracle(const Detector& detector,
                           std::size_t max_queries = 100)
      : detector_(detector), max_queries_(max_queries) {}

  /// Hard-label query; increments the counter and remembers the index of
  /// the first benign verdict.
  /// Returns true if the detector flags the sample as malicious.
  /// Inside an obs::TraceScope, each query emits a trace event carrying the
  /// verdict and the underlying score -- the score is observability only
  /// and is never returned to the attack (the threat model stays
  /// hard-label).
  bool query(std::span<const std::uint8_t> bytes) {
    ++queries_;
    const double s = detector_.score(bytes);
    const bool malicious = s >= detector_.threshold();
    if (!malicious && first_evasion_ == 0) first_evasion_ = queries_;
    if (obs::tracing())
      obs::Event("query")
          .uint("i", queries_)
          .boolean("malicious", malicious)
          .num("score", s);
    return malicious;
  }

  std::size_t queries() const { return queries_; }
  /// 1-based index of the first query answered benign; 0 = never evaded.
  /// The harness's AVQ input.
  std::size_t first_evasion() const { return first_evasion_; }
  std::size_t max_queries() const { return max_queries_; }
  bool exhausted() const { return queries_ >= max_queries_; }
  std::string_view target_name() const { return detector_.name(); }

 private:
  const Detector& detector_;
  std::size_t queries_ = 0;
  std::size_t first_evasion_ = 0;
  std::size_t max_queries_;
};

}  // namespace mpass::detect
