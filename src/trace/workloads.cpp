#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace catsim
{

namespace
{

/**
 * Profile table.  Intensity (meanGap) and skew parameters are chosen so
 * the per-bank activation streams reproduce the paper's qualitative
 * behaviour: COMM workloads are the most memory-intensive, PARSEC's
 * blackscholes/facesim concentrate accesses on a small dominant hot set
 * (Fig 3), SPEC's libquantum/leslie3d stream with little reuse skew,
 * and BIO sits in between.  phaseEvery > 0 relocates the hot set to
 * model application phases (Section V's motivation for DRCAT).
 */
std::vector<WorkloadProfile>
buildSuite()
{
    std::vector<WorkloadProfile> w;
    auto add = [&w](std::string name, std::string suite, double read,
                    double theta, std::uint32_t hot_rows, double hot_frac,
                    double gap, double burst, double footprint,
                    std::uint64_t phase_every) {
        WorkloadProfile p;
        p.name = std::move(name);
        p.suite = std::move(suite);
        p.readRatio = read;
        p.zipfTheta = theta;
        p.hotRows = hot_rows;
        p.hotFraction = hot_frac;
        p.meanGap = gap;
        p.rowBurst = burst;
        p.footprintFraction = footprint;
        p.phaseEvery = phase_every;
        w.push_back(std::move(p));
    };

    // name      suite     read  theta hot  hfrac gap   burst foot  phase
    add("comm1", "COMM", 0.63, 1.15, 24, 0.74, 6.0, 1.4, 0.80, 900000);
    add("comm2", "COMM", 0.60, 1.05, 32, 0.70, 7.0, 1.3, 0.90, 0);
    add("comm3", "COMM", 0.65, 1.00, 40, 0.66, 9.0, 1.2, 1.00, 700000);
    add("comm4", "COMM", 0.58, 1.10, 24, 0.72, 9.0, 1.4, 0.75, 0);
    add("comm5", "COMM", 0.62, 0.95, 48, 0.62, 8.0, 1.3, 0.95, 500000);
    add("swapt", "PARSEC", 0.70, 0.90, 24, 0.60, 15.0, 1.3, 0.60, 0);
    add("fluid", "PARSEC", 0.72, 0.85, 32, 0.55, 18.0, 1.2, 0.70, 800000);
    add("str", "PARSEC", 0.75, 0.75, 20, 0.48, 14.0, 1.8, 0.85, 0);
    add("black", "PARSEC", 0.68, 1.35, 12, 0.78, 16.0, 1.4, 0.50, 0);
    add("ferret", "PARSEC", 0.66, 0.95, 28, 0.57, 19.0, 1.3, 0.65, 600000);
    add("face", "PARSEC", 0.71, 1.30, 14, 0.76, 16.0, 1.5, 0.55, 0);
    add("freq", "PARSEC", 0.69, 0.92, 24, 0.53, 21.0, 1.2, 0.60, 0);
    add("MTC", "SPEC", 0.64, 1.00, 32, 0.62, 12.0, 1.3, 0.85, 650000);
    add("MTF", "SPEC", 0.67, 0.96, 28, 0.58, 13.0, 1.4, 0.80, 0);
    add("libq", "SPEC", 0.95, 0.40, 16, 0.22, 10.0, 2.2, 1.00, 0);
    add("leslie", "SPEC", 0.80, 0.58, 20, 0.32, 14.0, 2.0, 1.00, 0);
    add("mum", "BIO", 0.74, 0.80, 20, 0.50, 23.0, 1.2, 0.70, 0);
    add("tigr", "BIO", 0.76, 0.82, 18, 0.48, 24.0, 1.2, 0.65, 750000);
    return w;
}

} // namespace

const std::vector<WorkloadProfile> &
workloadSuite()
{
    static const std::vector<WorkloadProfile> suite = buildSuite();
    return suite;
}

const WorkloadProfile &
findWorkload(const std::string &name)
{
    for (const auto &p : workloadSuite()) {
        if (p.name == name)
            return p;
    }
    CATSIM_FATAL("unknown workload '", name, "'");
}

RowAddr
SyntheticWorkload::scatterRow(std::uint64_t index, RowAddr num_rows)
{
    // Odd multiplier => bijection on Z/2^k; high-quality scatter.
    const std::uint64_t h = index * 0x9E3779B97F4A7C15ULL + 0x7F4A7C15ULL;
    return static_cast<RowAddr>(h & (num_rows - 1));
}

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     const DramGeometry &geometry,
                                     const AddressMapper &mapper,
                                     std::uint64_t seed,
                                     std::uint64_t length)
    : profile_(profile),
      geometry_(geometry),
      mapper_(mapper),
      seed_(seed),
      length_(length),
      gapCap_(20.0 * profile.meanGap),
      burstMean_(profile.rowBurst > 1.0 ? profile.rowBurst - 1.0 : 0.0),
      turnover_(std::max<std::uint64_t>(1, profile.hotRows / 4)),
      phaseLeft_(profile.phaseEvery),
      rng_(seed),
      hotSampler_(profile.hotRows, profile.zipfTheta)
{
    if ((geometry_.rowsPerBank & (geometry_.rowsPerBank - 1)) != 0)
        CATSIM_FATAL("workload generator needs power-of-two rows");
    const auto foot = static_cast<std::uint64_t>(
        profile_.footprintFraction * geometry_.rowsPerBank);
    coldRows_ = foot ? foot : 1;
}

void
SyntheticWorkload::rewind()
{
    produced_ = 0;
    phase_ = 0;
    phaseLeft_ = profile_.phaseEvery;
    burstLeft_ = 0;
    rng_ = Xoshiro256StarStar(seed_);
}

bool
SyntheticWorkload::next(TraceRecord &out)
{
    if (produced_ >= length_)
        return false;
    makeRecord(out);
    ++produced_;
    // phase_ is produced_ / phaseEvery, counted down instead of divided.
    if (profile_.phaseEvery > 0 && --phaseLeft_ == 0) {
        ++phase_;
        phaseLeft_ = profile_.phaseEvery;
    }
    return true;
}

void
SyntheticWorkload::makeRecord(TraceRecord &r)
{
    // Exponential gap with the profile's mean, truncated to [0, 20x].
    double u = rng_.nextDouble();
    if (u >= 1.0)
        u = 0.999999;
    double gap = -profile_.meanGap * std::log(1.0 - u);
    if (gap > gapCap_)
        gap = gapCap_;
    r.gap = static_cast<std::uint32_t>(gap);
    r.isWrite = rng_.nextDouble() >= profile_.readRatio;

    if (burstLeft_ > 0) {
        // Stay on the same row, new column (spatial locality).
        --burstLeft_;
        burstLoc_.col = static_cast<std::uint32_t>(
            rng_.nextBounded(geometry_.colsPerRow));
        r.addr = mapper_.compose(burstLoc_);
        return;
    }

    MappedAddr loc;
    loc.channel =
        static_cast<std::uint32_t>(rng_.nextBounded(geometry_.channels));
    loc.rank = static_cast<std::uint32_t>(
        rng_.nextBounded(geometry_.ranksPerChannel));
    loc.bank = static_cast<std::uint32_t>(
        rng_.nextBounded(geometry_.banksPerRank));
    loc.col = static_cast<std::uint32_t>(
        rng_.nextBounded(geometry_.colsPerRow));

    const bool hot = rng_.nextDouble() < profile_.hotFraction;
    if (hot) {
        // Hot rows: a dense Zipf index scattered over the bank.  Each
        // phase retires about a quarter of the hot set and brings in
        // fresh rows - application phases shift gradually, which is
        // the temporal change DRCAT tracks (paper Section V).
        const std::uint64_t idx = hotSampler_.sample(rng_)
                                  + phase_ * turnover_;
        loc.row = scatterRow(idx + 1000000ULL, geometry_.rowsPerBank);
    } else {
        const std::uint64_t idx = rng_.nextBounded(coldRows_);
        loc.row = scatterRow(idx + 5000000ULL, geometry_.rowsPerBank);
    }

    // Start a new burst on this row.
    if (burstMean_ > 0.0) {
        double v = rng_.nextDouble();
        if (v >= 1.0)
            v = 0.999999;
        burstLeft_ = static_cast<std::uint32_t>(
            -burstMean_ * std::log(1.0 - v));
        if (burstLeft_ > 64)
            burstLeft_ = 64;
    }
    burstLoc_ = loc;
    r.addr = mapper_.compose(loc);
}

} // namespace catsim
