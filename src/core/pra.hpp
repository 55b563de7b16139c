/**
 * @file
 * PRA - Probabilistic Row Activation refresh (Kim et al., CAL 2015;
 * paper Sections II and III-A).
 *
 * On every row activation the memory controller draws from a PRNG and,
 * with probability p, refreshes the TWO rows adjacent to the accessed
 * row (the aggressor itself is not refreshed).  The PRNG must produce
 * ceil(log2(1/p)) bits per activation; for p = 0.002/0.003 that is 9
 * bits, whose generation energy dominates PRA's CMRPO.
 */

#ifndef CATSIM_CORE_PRA_HPP
#define CATSIM_CORE_PRA_HPP

#include <cstdint>
#include <memory>

#include "core/mitigation.hpp"
#include "core/prng_source.hpp"

namespace catsim
{

/**
 * PRA's decision rule for a refresh probability p in (0,1), shared by
 * Pra and the Monte-Carlo window model (reliability/montecarlo): draw
 * `bits` = ceil(log2(1/p)) PRNG bits per activation, and refresh when
 * the draw is below `acceptBelow` = max(1, round(p * 2^bits)).
 */
struct PraDecisionRule
{
    unsigned bits;
    std::uint32_t acceptBelow;
};
PraDecisionRule praDecisionRule(double p);

/** Probabilistic neighbor-refresh mitigation. */
class Pra : public MitigationScheme
{
  public:
    /**
     * @param num_rows Rows per bank.
     * @param p        Per-activation refresh probability.
     * @param prng     Bit source; defaults to a TruePrng.
     */
    Pra(RowAddr num_rows, double p,
        std::unique_ptr<PrngSource> prng = nullptr);

    RefreshAction onActivate(RowAddr row) override;

    double probability() const { return p_; }
    unsigned bitsPerDraw() const { return rule_.bits; }

  private:
    double p_;
    PraDecisionRule rule_{};
    std::unique_ptr<PrngSource> prng_;
};

/**
 * Build a RefreshAction for the neighbors row - 1 and row + 1 of
 * @p row (one at a bank edge), shared by the exact-victim schemes
 * (PRA, counter cache, Misra-Gries, RFM).
 */
RefreshAction neighborRefresh(RowAddr row, RowAddr num_rows);

} // namespace catsim

#endif // CATSIM_CORE_PRA_HPP
