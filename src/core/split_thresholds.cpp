#include "split_thresholds.hpp"

#include <cmath>

#include "common/bit.hpp"
#include "common/logging.hpp"

namespace catsim
{

bool
splitThresholdsCalibrated(std::uint32_t num_counters,
                          std::uint32_t max_levels)
{
    return num_counters == 64 && max_levels == 10;
}

std::vector<std::uint32_t>
computeSplitThresholds(std::uint32_t num_counters,
                       std::uint32_t max_levels, std::uint32_t threshold)
{
    if (num_counters < 2)
        CATSIM_FATAL("CAT needs at least 2 counters, got ",
                     num_counters);
    // ceil(log2(M)); for a non-power-of-two M the schedule anchors on
    // the next power up, so the uneven deepest pre-split level (depth
    // m-1, see cat_tree.hpp) still gets a real split threshold and a
    // power-of-two M reproduces the historical schedule exactly.
    const std::uint32_t m = ceilLog2(num_counters);
    const std::uint32_t L = max_levels;
    if (L < m + 1)
        CATSIM_FATAL("CAT max levels (", L, ") must exceed ceil(log2(M))=",
                     m);
    if (threshold < 8)
        CATSIM_FATAL("refresh threshold too small: ", threshold);

    std::vector<std::uint32_t> thr(L, threshold);
    thr[L - 1] = threshold;

    if (splitThresholdsCalibrated(num_counters, max_levels)) {
        // Paper Section IV-D published schedule for M=64, L=10 at
        // T=32768, scaled linearly with T.
        const double scale = static_cast<double>(threshold) / 32768.0;
        const double anchors[4] = {5155.0, 10309.0, 12886.0, 16384.0};
        for (std::uint32_t i = 0; i < 4; ++i) {
            thr[5 + i] = static_cast<std::uint32_t>(
                std::llround(anchors[i] * scale));
        }
        return thr;
    }

    // Generic rule (docs/DESIGN.md Section 4).  Depths m-1 .. L-2 carry real
    // split thresholds; anything shallower reuses thr[m-1].
    const double ratio = std::pow(2.0, 1.0 / 3.0);
    double v = static_cast<double>(threshold) / 2.0;
    thr[L - 2] = static_cast<std::uint32_t>(std::llround(v));
    for (std::int64_t d = static_cast<std::int64_t>(L) - 3;
         d >= static_cast<std::int64_t>(m); --d) {
        v /= ratio;
        thr[static_cast<std::size_t>(d)] =
            static_cast<std::uint32_t>(std::llround(v));
    }
    // The first split threshold is half the next one - except when it
    // is also the last split threshold, where the T/2 rule wins.
    if (m >= 1 && m - 1 < L - 2)
        thr[m - 1] = thr[m] / 2;
    for (std::uint32_t d = 0; d + 1 < m; ++d)
        thr[d] = thr[m - 1];

    // The schedule must be non-decreasing with depth and end at T; a
    // violation would let a child start above its own split threshold
    // forever.
    for (std::uint32_t d = m - 1; d + 1 < L; ++d) {
        if (thr[d] > thr[d + 1])
            CATSIM_PANIC("split thresholds must be non-decreasing");
    }
    return thr;
}

} // namespace catsim
