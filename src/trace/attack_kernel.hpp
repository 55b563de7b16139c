/**
 * @file
 * Target-placement strategies for row-hammer attack kernels.
 *
 * An AttackKernel decides *where* an attack hammers: it fills one
 * target-row set per flat bank from a kernel seed.  The stream mixing
 * (how often targets are hit, which benign traffic surrounds them)
 * stays in AttackWorkload / the activation sources, so placement and
 * intensity vary independently.
 *
 * Four placements are provided:
 *  - GaussianKernel: the paper's Section VIII-D kernels - per-bank
 *    targets drawn from a Gaussian around an independent random center.
 *  - MultiBankCoordinatedKernel: one Gaussian target set replicated
 *    into every bank of every rank/channel, so a coordinated attacker
 *    stresses the same counter indices in all per-bank (or future
 *    per-rank shared) counter pools simultaneously.
 *  - ManySidedKernel: aggressor pairs straddling Gaussian-placed
 *    victims (v-1, v+1) - the modern many-/double-sided pattern where
 *    every victim is squeezed from both physical neighbors.
 *  - HalfDoubleKernel: far aggressor pairs (v-2, v+2) reaching each
 *    victim at physical distance 2, the Half-Double blast-radius-2
 *    pattern.  No scheme or metric applies a blast radius yet: every
 *    scheme still refreshes the logical +/-1 neighbours.
 */

#ifndef CATSIM_TRACE_ATTACK_KERNEL_HPP
#define CATSIM_TRACE_ATTACK_KERNEL_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dram/geometry.hpp"

namespace catsim
{

/** Which target-placement strategy an attack uses. */
enum class AttackKernelKind
{
    Gaussian,   //!< per-bank Gaussian placement (paper Section VIII-D)
    MultiBank,  //!< identical targets synchronized across all banks
    ManySided,  //!< aggressor pairs straddling each victim (v+-1)
    HalfDouble, //!< far aggressor pairs at physical distance 2 (v+-2)
};

/** Kind name for labels/reports ("Gauss"/"MultiBank"/...). */
const char *attackKernelKindName(AttackKernelKind kind);

/** Parse "gaussian|multibank|manysided|halfdouble" (case-insensitive). */
AttackKernelKind parseAttackKernelKind(const std::string &name);

/** Strategy interface: place target rows for every flat bank. */
class AttackKernel
{
  public:
    virtual ~AttackKernel() = default;

    /**
     * Fill @p targets (one inner vector per flat bank, each pre-sized
     * to the wanted targets-per-bank) with distinct, sorted target
     * rows.  Deterministic in (@p geometry, @p kernel_seed).
     */
    virtual void pickTargets(std::vector<std::vector<RowAddr>> &targets,
                             const DramGeometry &geometry,
                             std::uint64_t kernel_seed) const = 0;

    virtual AttackKernelKind kind() const = 0;
};

/** Paper kernels: per-bank Gaussian placement around a random center. */
class GaussianKernel : public AttackKernel
{
  public:
    void pickTargets(std::vector<std::vector<RowAddr>> &targets,
                     const DramGeometry &geometry,
                     std::uint64_t kernel_seed) const override;

    AttackKernelKind
    kind() const override
    {
        return AttackKernelKind::Gaussian;
    }
};

/** One Gaussian target set replicated into every bank. */
class MultiBankCoordinatedKernel : public AttackKernel
{
  public:
    void pickTargets(std::vector<std::vector<RowAddr>> &targets,
                     const DramGeometry &geometry,
                     std::uint64_t kernel_seed) const override;

    AttackKernelKind
    kind() const override
    {
        return AttackKernelKind::MultiBank;
    }
};

/** Aggressor pairs (v-1, v+1) straddling Gaussian-placed victims. */
class ManySidedKernel : public AttackKernel
{
  public:
    void pickTargets(std::vector<std::vector<RowAddr>> &targets,
                     const DramGeometry &geometry,
                     std::uint64_t kernel_seed) const override;

    AttackKernelKind
    kind() const override
    {
        return AttackKernelKind::ManySided;
    }
};

/** Far aggressor pairs (v-2, v+2): Half-Double, blast radius 2. */
class HalfDoubleKernel : public AttackKernel
{
  public:
    void pickTargets(std::vector<std::vector<RowAddr>> &targets,
                     const DramGeometry &geometry,
                     std::uint64_t kernel_seed) const override;

    AttackKernelKind
    kind() const override
    {
        return AttackKernelKind::HalfDouble;
    }
};

/** Build a kernel strategy by kind. */
std::unique_ptr<AttackKernel> makeAttackKernel(AttackKernelKind kind);

/**
 * The one distinct-row placement step shared by every kernel: call
 * @p draw up to 64 times until @p ok accepts the candidate, then probe
 * linearly (wrapping) from the last candidate until it does.
 * Terminates as long as at least one row in [0, num_rows) is
 * acceptable; the caller guards feasibility.
 */
RowAddr pickDistinctRow(RowAddr num_rows,
                        const std::function<RowAddr()> &draw,
                        const std::function<bool(RowAddr)> &ok);

/**
 * Fill one bank's target set: distinct rows from a Gaussian with the
 * given center and sigma, re-drawing on collision (a duplicate would
 * silently shrink the effective targets-per-bank).  Exposed for the
 * activation sources, which place targets for a single bank.
 */
void drawGaussianTargets(std::vector<RowAddr> &rows,
                         Xoshiro256StarStar &rng, std::uint64_t center,
                         double sigma, RowAddr num_rows);

/**
 * Fill one bank's target set with straddling aggressor pairs: each
 * victim v drawn from the kernel Gaussian contributes the pair
 * {v - gap, v + gap} (gap 1 = many-sided double pairs, gap 2 =
 * half-double far pairs).  Rows touched by an earlier pair (aggressors
 * and victim) are rejected so pairs never overlap; an odd
 * targets-per-bank is topped up with one lone Gaussian aggressor.
 * Output sorted, all rows distinct.
 */
void drawStraddlePairs(std::vector<RowAddr> &rows,
                       Xoshiro256StarStar &rng, std::uint64_t center,
                       double sigma, RowAddr num_rows, RowAddr gap);

} // namespace catsim

#endif // CATSIM_TRACE_ATTACK_KERNEL_HPP
