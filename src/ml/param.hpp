// Parameter storage and optimizers for the from-scratch neural nets.
//
// Every learnable tensor is a Param (weights + gradient accumulator)
// registered in a ParamSet; optimizers iterate the set generically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.hpp"

namespace mpass::ml {

/// One learnable tensor (flat storage; shape is the owning layer's concern).
struct Param {
  std::string name;
  std::vector<float> w;  // weights
  std::vector<float> g;  // gradient (accumulated until step())

  void resize(std::size_t n) {
    w.assign(n, 0.0f);
    g.assign(n, 0.0f);
  }
  std::size_t size() const { return w.size(); }
};

/// Registry of a model's parameters.
///
/// The set carries a monotonically increasing *version*: every code path
/// that mutates weights (Adam::step, load, owners' manual clamps) bumps
/// it, and consumers that cache activations keyed on the weights
/// (ByteConvNet's incremental forward) compare versions to detect
/// staleness. Code that pokes `w` directly (numeric gradient checks) must
/// call bump_version() afterwards -- or the owning net's caches go stale.
class ParamSet {
 public:
  /// Registers and returns a new parameter of n elements.
  Param& create(std::string name, std::size_t n) {
    params_.push_back(new Param{});
    params_.back()->name = std::move(name);
    params_.back()->resize(n);
    return *params_.back();
  }

  ~ParamSet() {
    for (Param* p : params_) delete p;
  }
  ParamSet() = default;
  // Deep copy: layers hold Param* into the set, so owners must re-bind
  // their pointers after copying (see ByteConvNet's copy constructor).
  ParamSet(const ParamSet& other) {
    params_.reserve(other.params_.size());
    for (const Param* p : other.params_) params_.push_back(new Param(*p));
  }
  ParamSet& operator=(const ParamSet&) = delete;

  std::vector<Param*>& all() { return params_; }
  const std::vector<Param*>& all() const { return params_; }

  void zero_grad() {
    for (Param* p : params_) std::fill(p->g.begin(), p->g.end(), 0.0f);
  }

  /// Weight-mutation counter (see class comment).
  std::uint64_t version() const { return version_; }
  void bump_version() { ++version_; }

  void save(util::Archive& ar) const {
    ar.tag("params");
    ar.u32(static_cast<std::uint32_t>(params_.size()));
    for (const Param* p : params_) {
      ar.str(p->name);
      ar.floats(p->w);
    }
  }

  /// Loads weights into already-created params (names+sizes must match).
  void load(util::Unarchive& ar);

 private:
  std::vector<Param*> params_;
  std::uint64_t version_ = 0;
};

/// Adam optimizer (the paper's optimizer for perturbation generation; also
/// used for model training).
class Adam {
 public:
  explicit Adam(ParamSet& params, float lr = 1e-3f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  /// Applies accumulated gradients and zeroes them.
  void step();

 private:
  ParamSet& params_;
  float lr_, beta1_, beta2_, eps_;
  std::uint64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace mpass::ml
