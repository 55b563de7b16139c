/**
 * @file
 * Synthetic workload profiles standing in for the Memory Scheduling
 * Championship traces used by the paper (Section VI).
 *
 * The mitigation schemes only observe per-bank row-activation streams,
 * so each profile is defined by the properties that shape that stream:
 * memory intensity (mean compute gap between memory ops), row-
 * popularity skew (Zipf over a scattered hot set, paper Fig 3), hot-set
 * size, read ratio, row-burst locality, and phase behaviour (hot-set
 * relocation over time, which is what DRCAT exploits).  Eighteen
 * profiles mirror the paper's workload list across the COMM, PARSEC,
 * SPEC and BIO suites.
 */

#ifndef CATSIM_TRACE_WORKLOADS_HPP
#define CATSIM_TRACE_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "controller/address_mapping.hpp"
#include "dram/geometry.hpp"
#include "trace/trace.hpp"

namespace catsim
{

/** Parameters defining one synthetic workload. */
struct WorkloadProfile
{
    std::string name;
    std::string suite;          //!< COMM / PARSEC / SPEC / BIO
    double readRatio = 0.67;    //!< fraction of memory ops that read
    double zipfTheta = 0.9;     //!< popularity skew inside the hot set
    std::uint32_t hotRows = 64; //!< hot rows per bank
    double hotFraction = 0.5;   //!< accesses that hit the hot set
    double meanGap = 80.0;      //!< mean non-memory instrs per mem op
    double rowBurst = 3.0;      //!< mean consecutive ops on one row
    double footprintFraction = 1.0; //!< cold accesses span this share
    std::uint64_t phaseEvery = 0;   //!< relocate hot set every N ops
};

/** The 18 paper workloads. */
const std::vector<WorkloadProfile> &workloadSuite();

/** Look up a profile by name (fatal when unknown). */
const WorkloadProfile &findWorkload(const std::string &name);

/**
 * Deterministic pull-based generator of one core's trace for a
 * workload profile.
 */
class SyntheticWorkload : public TraceStream
{
  public:
    /**
     * @param profile  Workload parameters.
     * @param geometry DRAM organization (banks/rows to target).
     * @param mapper   Address mapper used to compose physical addrs.
     * @param seed     Stream seed; same seed => identical sequence.
     * @param length   Number of records before end-of-stream.
     */
    SyntheticWorkload(const WorkloadProfile &profile,
                      const DramGeometry &geometry,
                      const AddressMapper &mapper, std::uint64_t seed,
                      std::uint64_t length);

    bool next(TraceRecord &out) override;
    void rewind() override;

    const WorkloadProfile &profile() const { return profile_; }

    /**
     * Scatter a dense hot-set index into the bank's row space with a
     * bijective multiplicative hash (odd multiplier mod 2^k), so hot
     * rows are spread across the bank like the spikes in paper Fig 3.
     */
    static RowAddr scatterRow(std::uint64_t index, RowAddr num_rows);

  private:
    void makeRecord(TraceRecord &r);

    WorkloadProfile profile_;
    DramGeometry geometry_;
    const AddressMapper &mapper_;
    std::uint64_t seed_;
    std::uint64_t length_;
    // Per-profile constants of makeRecord, fixed at construction.
    double gapCap_;          //!< gaps truncate at 20x the mean
    double burstMean_;       //!< mean extra ops on a burst's row
    std::uint64_t coldRows_; //!< rows cold accesses spread over
    std::uint64_t turnover_; //!< hot rows retired per phase
    std::uint64_t produced_ = 0;
    std::uint64_t phase_ = 0;
    std::uint64_t phaseLeft_; //!< records before phase_ advances
    Xoshiro256StarStar rng_;
    ZipfSampler hotSampler_;
    // Current burst state: keep hammering one (bank, row).
    MappedAddr burstLoc_;
    std::uint32_t burstLeft_ = 0;
};

} // namespace catsim

#endif // CATSIM_TRACE_WORKLOADS_HPP
