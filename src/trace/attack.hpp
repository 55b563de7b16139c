/**
 * @file
 * Kernel-attack stream generator (paper Section VIII-D).
 *
 * Each attack kernel selects a few target rows per bank (4 by default;
 * 64 targets across the dual-core/2-channel system), positioned with a
 * Gaussian distribution around a random center, and hammers them much
 * more frequently than ordinary rows.  Attack records are interleaved
 * with a memory-intensive benign workload at the paper's three mix
 * ratios: Heavy (75 % target accesses), Medium (50 %), Light (25 %).
 */

#ifndef CATSIM_TRACE_ATTACK_HPP
#define CATSIM_TRACE_ATTACK_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "trace/attack_kernel.hpp"
#include "trace/workloads.hpp"

namespace catsim
{

/** Attack intensity mix from the paper. */
enum class AttackMode
{
    Heavy,  //!< 75 % target rows + 25 % benign accesses
    Medium, //!< 50 % / 50 %
    Light,  //!< 25 % / 75 %
};

/** Fraction of accesses aimed at target rows for a mode. */
double attackTargetFraction(AttackMode mode);

/** Mode name for reports. */
const char *attackModeName(AttackMode mode);

/** Row-hammer kernel mixed into a benign workload. */
class AttackWorkload : public TraceStream
{
  public:
    /**
     * @param benign   Benign profile providing the background traffic.
     * @param geometry DRAM organization.
     * @param mapper   Address composer.
     * @param mode     Heavy/Medium/Light mix.
     * @param kernel_seed One of the paper's 12 kernels (1..12); decides
     *                 target row placement.
     * @param stream_seed Per-core stream seed.
     * @param length   Records before end-of-stream.
     * @param targets_per_bank Hammered rows per bank (default 4).
     * @param kernel_kind Target-placement strategy (default the paper's
     *                 per-bank Gaussian; MultiBank synchronizes one
     *                 target set across all banks).
     */
    AttackWorkload(const WorkloadProfile &benign,
                   const DramGeometry &geometry,
                   const AddressMapper &mapper, AttackMode mode,
                   std::uint64_t kernel_seed, std::uint64_t stream_seed,
                   std::uint64_t length,
                   std::uint32_t targets_per_bank = 4,
                   AttackKernelKind kernel_kind =
                       AttackKernelKind::Gaussian);

    bool next(TraceRecord &out) override;

    /** Target rows of one bank (for tests). */
    const std::vector<RowAddr> &targets(std::uint32_t bank_flat) const;

  private:
    DramGeometry geometry_;
    const AddressMapper &mapper_;
    AttackMode mode_;
    double targetFraction_;
    std::uint64_t length_;
    std::uint64_t produced_ = 0;
    Xoshiro256StarStar rng_;
    SyntheticWorkload benign_;
    std::vector<std::vector<RowAddr>> targets_; //!< per flat bank
};

} // namespace catsim

#endif // CATSIM_TRACE_ATTACK_HPP
