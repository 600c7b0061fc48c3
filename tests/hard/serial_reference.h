/// \file serial_reference.h
/// \brief A test-only serial reference for the adaptive round loop, written
/// out without any of the sampler code it checks: blocks of
/// `block_samples` draws on `Rng(HashCombine(seed, b))`, rounds of 1, 1, 2,
/// 4, … (at most 32) blocks, and the precision stop evaluated after each
/// round. No deadline budget.

#ifndef PPREF_TESTS_HARD_SERIAL_REFERENCE_H_
#define PPREF_TESTS_HARD_SERIAL_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "ppref/common/hash.h"
#include "ppref/common/random.h"
#include "ppref/hard/estimator.h"

namespace ppref::testing {

/// `hit(rng)` makes one draw and says whether it hit.
inline hard::AdaptiveEstimate SerialAdaptiveReference(
    const hard::AdaptiveOptions& options,
    const std::function<bool(Rng&)>& hit) {
  hard::AdaptiveEstimate out;
  const std::uint64_t cap = options.max_samples;
  std::uint64_t hits = 0;
  std::uint64_t n = 0;
  unsigned block = 0;
  for (unsigned round = 0; n < cap; ++round) {
    const unsigned blocks = round == 0 ? 1u : 1u << std::min(round - 1, 5u);
    for (unsigned i = 0; i < blocks && n < cap; ++i, ++block) {
      Rng rng(HashCombine(options.seed, block));
      for (unsigned s = 0; s < options.block_samples && n < cap; ++s, ++n) {
        if (hit(rng)) ++hits;
      }
    }
    const double p = static_cast<double>(hits) / static_cast<double>(n);
    out.estimate = p;
    out.std_error = std::sqrt(p * (1.0 - p) / static_cast<double>(n));
    out.n_samples = n;
    if (options.target_half_width > 0.0 && n >= options.min_samples &&
        options.z * out.std_error <= options.target_half_width) {
      out.target_met = true;
      break;
    }
  }
  return out;
}

}  // namespace ppref::testing

#endif  // PPREF_TESTS_HARD_SERIAL_REFERENCE_H_
