/**
 * @file
 * DDR5 Refresh-Management (RFM) style mitigation.
 *
 * The memory controller keeps a Rolling Accumulated ACT (RAA) counter
 * per bank; whenever the counter reaches the configured budget
 * (JEDEC's RAAIMT) it issues an RFM command and resets.  The DRAM's
 * internal sampler then refreshes the neighbors of the activation that
 * crossed the budget - the deterministic-sampling TRR model.  Like
 * PRA, the scheme is rate-based: refresh work scales with the
 * activation stream, not with a per-row threshold, so no aggressor is
 * ever *guaranteed* a refresh - it is only sampled in proportion to
 * its share of the bank's traffic.
 */

#ifndef CATSIM_CORE_RFM_HPP
#define CATSIM_CORE_RFM_HPP

#include <cstdint>

#include "core/adjacency.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

/** Rolling-activation-counter refresh management. */
class Rfm : public MitigationScheme
{
  public:
    /**
     * @param num_rows   Rows per bank.
     * @param raa_budget Activations between RFM commands (RAAIMT).
     */
    Rfm(RowAddr num_rows, std::uint32_t raa_budget);

    RefreshAction onActivate(RowAddr row) override;
    void onEpoch() override;

    /**
     * Use a physical-adjacency model for victim selection; must
     * outlive this scheme, nullptr restores direct adjacency.
     */
    void setAdjacency(const RowAdjacency *adjacency)
    {
        adjacency_ = adjacency;
    }

    std::uint32_t budget() const { return budget_; }

  private:
    std::uint32_t budget_;
    std::uint32_t raa_ = 0;
    const RowAdjacency *adjacency_ = nullptr;
};

} // namespace catsim

#endif // CATSIM_CORE_RFM_HPP
