#include "pra.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace catsim
{

PraDecisionRule
praDecisionRule(double p)
{
    // ceil(log2(1/p)) bits per decision; 9 bits for p = 0.002..0.003.
    // 1/p > 1 for every p in (0,1), so bits is at least 1.
    const auto bits = static_cast<unsigned>(std::ceil(std::log2(1.0 / p)));
    const auto accept = static_cast<std::uint32_t>(
        std::llround(p * std::pow(2.0, bits)));
    return {bits, accept ? accept : 1};
}

Pra::Pra(RowAddr num_rows, double p, std::unique_ptr<PrngSource> prng)
    : MitigationScheme(num_rows),
      p_(p),
      prng_(prng ? std::move(prng) : std::make_unique<TruePrng>())
{
    if (p <= 0.0 || p >= 1.0)
        CATSIM_FATAL("PRA probability must be in (0,1), got ", p);
    rule_ = praDecisionRule(p);
}

RefreshAction
neighborRefresh(RowAddr row, RowAddr num_rows)
{
    // The aggressor is skipped, so an edge row has a single victim.
    RefreshAction act;
    if (row == 0) {
        act.lo = act.hi = 1;
        act.rowCount = 1;
    } else if (row == num_rows - 1) {
        act.lo = act.hi = row - 1;
        act.rowCount = 1;
    } else {
        act.lo = row - 1;
        act.hi = row + 1;
        act.rowCount = 2;
    }
    return act;
}

RefreshAction
Pra::onActivate(RowAddr row)
{
    ++stats_.activations;
    stats_.prngBits += rule_.bits;

    const std::uint32_t draw = prng_->nextBits(rule_.bits);
    if (draw >= rule_.acceptBelow)
        return {};

    const RefreshAction act = neighborRefresh(row, numRows_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

} // namespace catsim
