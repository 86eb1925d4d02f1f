// Token sampling strategies: greedy, temperature, top-k and top-p.
#pragma once

#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace lmpeel::lm {

struct SamplerConfig {
  double temperature = 1.0;  ///< <= 0 means greedy
  int top_k = 0;             ///< 0 disables
  double top_p = 1.0;        ///< 1 disables
};

/// Returns the argmax token (first one on ties).  NaN logits are skipped,
/// except that a NaN at index 0 is returned; throws if every logit is -inf.
int sample_greedy(std::span<const float> logits);

/// Whether `logits` is a row the samplers accept: no NaN and no +inf (they
/// would poison the softmax or the argmax silently) and at least one
/// logit above -inf (-inf masks a non-generable token, see
/// lm/language_model.hpp).
bool sampleable(std::span<const float> logits);

/// Samples according to `config`; temperature is applied first, then top-k,
/// then top-p renormalisation.  -inf logits are never selected.
///
/// The support is ordered by weight exp((logit - max) / T) descending,
/// ties by token ascending; top-k and top-p cut that order, and one
/// uniform draw walks it against the sequential double sum of the kept
/// weights.  The weights come from detail::exp_scalar (on lanes), so a
/// draw does not depend on the host's libm.
int sample(std::span<const float> logits, const SamplerConfig& config,
           util::Rng& rng);

/// Normalised probabilities (softmax) of the logits; -inf maps to 0.
void probabilities(std::span<const float> logits, std::span<float> out);

namespace detail {
/// glibc's double exp (the 2.28+ e_exp.c: a 128-entry 2^(i/128) table and
/// a degree-5 polynomial), with std::fma exactly where the x86-64 FMA
/// variant its ifunc picks on FMA + AVX2 hosts fuses.  The sampler's exp;
/// equal to that libm's exp on every input test_sampler checks.
double exp_scalar(double x);

/// out[i] = exp_scalar(x[i]) for i < n, four lanes at a time where the
/// build has AVX2; `out` may be `x`.
void exp_lanes(const double* x, std::size_t n, double* out);
}  // namespace detail

}  // namespace lmpeel::lm
