#include "rfm.hpp"

#include "common/logging.hpp"
#include "core/pra.hpp"

namespace catsim
{

Rfm::Rfm(RowAddr num_rows, std::uint32_t raa_budget)
    : MitigationScheme(num_rows), budget_(raa_budget)
{
    if (raa_budget == 0)
        CATSIM_FATAL("RFM needs an activation budget > 0");
}

RefreshAction
Rfm::onActivate(RowAddr row)
{
    ++stats_.activations;
    // RAA counter read + write.
    stats_.sramAccesses += 2;
    if (++raa_ < budget_)
        return {};
    raa_ = 0;
    const RefreshAction act = neighborRefresh(row, numRows_);
    ++stats_.refreshEvents;
    stats_.victimRowsRefreshed += act.rowCount;
    return act;
}

void
Rfm::onEpoch()
{
    // REF resets the rolling window (DDR5 decrements RAA per REF; a
    // full retention pass clears it entirely).
    raa_ = 0;
    ++stats_.epochResets;
}

} // namespace catsim
