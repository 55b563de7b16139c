#include "attack.hpp"

#include "common/logging.hpp"

namespace catsim
{

double
attackTargetFraction(AttackMode mode)
{
    switch (mode) {
      case AttackMode::Heavy:
        return 0.75;
      case AttackMode::Medium:
        return 0.50;
      case AttackMode::Light:
        return 0.25;
    }
    return 0.0;
}

const char *
attackModeName(AttackMode mode)
{
    switch (mode) {
      case AttackMode::Heavy:
        return "Heavy";
      case AttackMode::Medium:
        return "Medium";
      case AttackMode::Light:
        return "Light";
    }
    return "?";
}

AttackWorkload::AttackWorkload(const WorkloadProfile &benign,
                               const DramGeometry &geometry,
                               const AddressMapper &mapper,
                               AttackMode mode,
                               std::uint64_t kernel_seed,
                               std::uint64_t stream_seed,
                               std::uint64_t length,
                               std::uint32_t targets_per_bank,
                               AttackKernelKind kernel_kind)
    : geometry_(geometry),
      mapper_(mapper),
      mode_(mode),
      targetFraction_(attackTargetFraction(mode)),
      length_(length),
      rng_(stream_seed),
      benign_(benign, geometry, mapper, stream_seed ^ 0xBEEFULL, length)
{
    targets_.resize(geometry.totalBanks());
    for (auto &t : targets_)
        t.resize(targets_per_bank);
    makeAttackKernel(kernel_kind)
        ->pickTargets(targets_, geometry_, kernel_seed);
}

bool
AttackWorkload::next(TraceRecord &out)
{
    if (produced_ >= length_)
        return false;

    if (rng_.nextDouble() < targetFraction_) {
        // Hammer one target row; attacks read (CLFLUSH+load pattern).
        MappedAddr loc;
        loc.channel = static_cast<std::uint32_t>(
            rng_.nextBounded(geometry_.channels));
        loc.rank = static_cast<std::uint32_t>(
            rng_.nextBounded(geometry_.ranksPerChannel));
        loc.bank = static_cast<std::uint32_t>(
            rng_.nextBounded(geometry_.banksPerRank));
        loc.col = static_cast<std::uint32_t>(
            rng_.nextBounded(geometry_.colsPerRow));
        const auto &bankTargets =
            targets_[BankId{loc.channel, loc.rank, loc.bank}.flat(
                geometry_)];
        loc.row = bankTargets[rng_.nextBounded(bankTargets.size())];
        out.gap = 8; // tight hammer loop
        out.isWrite = false;
        out.addr = mapper_.compose(loc);
        ++produced_;
        return true;
    }

    // benign_ holds length_ records and yields at most one per record
    // of this stream, so it cannot run out first.
    benign_.next(out);
    ++produced_;
    return true;
}

const std::vector<RowAddr> &
AttackWorkload::targets(std::uint32_t bank_flat) const
{
    return targets_.at(bank_flat);
}

} // namespace catsim
