/**
 * @file
 * The Counter-based Adaptive Tree (paper Section IV).
 *
 * The tree partitions a bank's N rows into variable-size groups, one
 * active counter per group.  Growth (Algorithm 1): when a leaf counter
 * at depth d reaches the split threshold T_d, a free counter is cloned
 * from it and the group halves; at depth L-1 (or when no counter is
 * free) the threshold is the refresh threshold T, and reaching it
 * refreshes every row in the group plus the two rows adjacent to the
 * group, then resets the counter.
 *
 * M need not be a power of two.  The initial balanced shape always has
 * P = floor(M/2) leaves; when P is not a power of two the deepest
 * pre-split level is uneven: with d = floor(log2 P), the (P - 2^d)
 * lowest-address prefixes carry leaves one level deeper (depth d+1)
 * than the rest (depth d), so the leaf row-groups differ by a factor
 * of two across the bank.  Every group is still an aligned
 * power-of-two span, so the walk arithmetic is unchanged; only the
 * immutable prefix (and with it the directly indexed depth and the
 * merge floor) shrinks to d levels.  For a power-of-two M this
 * degenerates to the paper's shape (M/2 leaves, all at depth
 * log2(M)-1) bit for bit.
 *
 * A tree can also draw its growth from a rank-shared counter budget
 * (`Params::sharedPool`, see shared_pool.hpp): splits then require a
 * free counter in the *pool*, not just in the local free list, and
 * merges/resets return counters to it.  Sharing costs one extra SRAM
 * access per activation plus one per split/merge (rank arbitration and
 * shared free-list upkeep), charged through `sramAccesses`.
 *
 * Storage is a flattened structure-of-arrays layout: each
 * intermediate node owns two packed child slots `(index << 1) |
 * is_leaf`, with side tables (parent link, depth, covered range) kept
 * in sync by split and merge.  The hardware finds a row's counter by
 * the walk of Section IV-C - the balanced pre-split prefix of lambda =
 * log2(M) levels is never merged away, so the node at depth lambda-1
 * is indexed directly by the top row-address bits, and one SRAM access
 * per level descends from there - and `sramAccesses` charges exactly
 * that walk.  The simulator does not repeat it: the leaf map `leaf_`
 * holds the covering counter for every aligned block of the smallest
 * leaf span (numRows >> (L-1) rows, 2^(L-1) entries), so a lookup is
 * one load.  The map changes only where the row partition does - reset
 * (one leaf, then the pre-split), the new right half of a split, and
 * the merged span of a merge - so no write touches more entries than
 * the span of the node being split or merged covers.
 *
 * Fast-path threshold.  The tree also maintains `thr_[c]`, the
 * threshold `access` applies to leaf c when the shared pool (if any)
 * has a free counter: the depth's split threshold while the leaf can
 * still split (d + 1 < L, more than one row, and a free counter and
 * inode locally), T otherwise.  It changes only where its inputs do -
 * both counters of a split, the kept counter of a merge, and every
 * counter on reset or when the local free lists run dry or refill - so
 * `counts_[c] < thr_[c]` decides a pure increment with two loads and
 * no branch on tree or pool state.  Pool availability is left out on
 * purpose: an exhausted pool only raises the real threshold to T, so
 * `thr_` is then too low, never too high, and a too-low threshold
 * merely sends the access down the slow path, which consults the pool
 * live.  That is why no tree ever needs to hear about a sibling's
 * growth, and why the PRCAT/DRCAT scheme (tree_bundle.hpp) can run its
 * batch loop straight on these tables.
 *
 * DRCAT support (Section V-B): a 2-bit weight per counter tracks how
 * often its group triggers refreshes.  The architectural rule is "every
 * refresh increments the hot counter's weight (saturating at 3) and
 * decrements everyone else's (floored at 0)"; instead of an O(M) sweep
 * per refresh the tree keeps one global refresh ordinal and a
 * last-touch stamp per counter, and materializes
 * `max(0, stored - (ordinal - touch))` on read - exact and O(1),
 * because a counter is only *not* decremented by the refreshes it
 * triggered itself, which are exactly the ones that restamp it.  When
 * a weight saturates, a cold pair of sibling leaves (both weights
 * zero) is merged and the freed counter splits the hot leaf (Fig 7);
 * merge candidates come from a maintained bitset of "both children
 * are leaves, at or below the pre-split level" nodes plus a stored
 * per-node depth, not a full-tree scan.
 */

#ifndef CATSIM_CORE_CAT_TREE_HPP
#define CATSIM_CORE_CAT_TREE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace catsim
{

class SharedCounterPool;

/** Adaptive tree of activation counters for one DRAM bank. */
class CatTree
{
  public:
    /** Construction parameters. */
    struct Params
    {
        RowAddr numRows = 65536;           //!< N (power of two)
        std::uint32_t numCounters = 64;    //!< M (any value >= 2)
        std::uint32_t maxLevels = 11;      //!< L
        std::uint32_t refreshThreshold = 32768; //!< T
        /** Split threshold per depth, size L, last element == T. */
        std::vector<std::uint32_t> splitThresholds;
        bool enableWeights = false;        //!< DRCAT reconfiguration
        /**
         * Counters defining the initial balanced shape (pre-split
         * leaves = presplitCounters/2); 0 means numCounters.  A
         * rank-pooled tree keeps its per-bank shape here while
         * numCounters holds the whole pool's capacity.
         */
        std::uint32_t presplitCounters = 0;
        /**
         * Optional rank-shared counter budget (not owned; must outlive
         * the tree).  Splits require a free pool counter; merges,
         * resets and destruction release back.
         */
        SharedCounterPool *sharedPool = nullptr;
    };

    /** Outcome of one activation. */
    struct AccessResult
    {
        bool refreshed = false;
        RowAddr lo = 0;                //!< victim range incl. neighbors
        RowAddr hi = 0;
        Count rowsRefreshed = 0;
        std::uint32_t sramAccesses = 0;
        bool didSplit = false;
        bool didReconfigure = false;   //!< DRCAT merge+split happened
        std::uint32_t leafDepth = 0;
    };

    explicit CatTree(Params params);
    ~CatTree();

    CatTree(const CatTree &) = delete;
    CatTree &operator=(const CatTree &) = delete;

    /** Record one activation of @p row and apply Algorithm 1. */
    AccessResult access(RowAddr row);

    /** Rebuild the pre-split balanced tree and zero all state. */
    void reset();

    /**
     * Zero every counter but keep the learned tree shape and weights
     * (DRCAT epoch behaviour: retention refresh clears disturbance, so
     * counts restart, while the adaptation survives).
     */
    void resetCountsOnly();

    /** Number of active (leaf) counters. */
    std::uint32_t activeCounters() const { return activeCounters_; }

    /** Depth of the leaf currently covering @p row (non-mutating). */
    std::uint32_t leafDepth(RowAddr row) const;

    /** Count held by the leaf covering @p row (non-mutating). */
    std::uint32_t counterValue(RowAddr row) const;

    /** Row range [lo, hi] covered by the leaf for @p row. */
    std::pair<RowAddr, RowAddr> leafRange(RowAddr row) const;

    /** Weight register of the leaf covering @p row (DRCAT). */
    std::uint32_t leafWeight(RowAddr row) const;

    /** Deepest leaf in the whole tree (for tests). */
    std::uint32_t maxLeafDepth() const;

    /**
     * Validate structural invariants: leaves partition [0, N-1], active
     * counter count matches the tree, no depth exceeds L-1, no leaf
     * sits above the pre-split level, counts stay below/at their
     * thresholds, free lists are consistent, and the derived hot-path
     * indexes (per-node depths/ranges, merge-candidate bitset, every
     * in-use counter's fast-path threshold) agree with the tree.  Every
     * leaf-map entry must name the leaf the plain recursive descent
     * reaches for its rows - this is what pins the map through splits,
     * merges and the uneven non-power-of-two pre-split shapes.
     *
     * @param why Optional out-parameter describing the first violation.
     * @retval true when all invariants hold.
     */
    bool checkInvariants(std::string *why = nullptr) const;

    const Params &params() const { return params_; }
    Count totalSplits() const { return splits_; }
    Count totalMerges() const { return merges_; }

  private:
    /**
     * The PRCAT/DRCAT scheme runs its inline fast path and its batch
     * loop on this tree's own tables: it reads leaf_, counts_, thr_
     * and counterDepth_ and bumps counts_ where `counts_[c] < thr_[c]`;
     * everything else goes through access().  No other class gets this
     * access.
     */
    friend class TreeBundle;

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /** Traversal bookkeeping for the leaf covering a row. */
    struct Walk
    {
        std::uint32_t counter = 0;   //!< leaf counter index
        std::uint32_t depth = 0;
        RowAddr lo = 0;
        RowAddr hi = 0;
        std::uint32_t parent = kNone; //!< inode above the leaf
        bool parentRight = false;     //!< which child slot we came from
    };

    /** Child slot encoding: node index in the high bits, leaf flag in
     *  bit 0. */
    static std::uint32_t pack(std::uint32_t node, bool leaf)
    {
        return (node << 1) | static_cast<std::uint32_t>(leaf);
    }
    static bool isLeafSlot(std::uint32_t slot) { return slot & 1u; }
    static std::uint32_t slotNode(std::uint32_t slot)
    {
        return slot >> 1;
    }

    /** Counter of the leaf covering @p row: one leaf-map load. */
    std::uint32_t leafOf(RowAddr row) const
    {
        return leaf_[row >> leafShift_];
    }

    /** Point every leaf-map entry of the span at depth @p depth that
     *  starts at @p lo to @p counter. */
    void fillLeaves(RowAddr lo, std::uint32_t depth,
                    std::uint32_t counter);

    Walk walkTo(RowAddr row) const;
    Walk walkFromCounter(std::uint32_t counter, RowAddr row) const;
    /** Re-derive canGrow_; every thr_ entry follows when it flips. */
    void updateCanGrow()
    {
        const bool grow = !freeCounters_.empty() && !freeInodes_.empty();
        if (grow == canGrow_)
            return;
        canGrow_ = grow;
        updateAllThresholds();
    }
    /** thr_[c] from c's depth and canGrow_ (see file comment). */
    void updateThreshold(std::uint32_t c)
    {
        const std::uint32_t d = counterDepth_[c];
        thr_[c] = d + 1 < params_.maxLevels && d < rowBits_ && canGrow_
            ? params_.splitThresholds[d]
            : params_.refreshThreshold;
    }
    void updateAllThresholds();
    /** SRAM accesses one activation of leaf @p c costs in the modelled
     *  hardware walk: the levels below the directly indexed pre-split
     *  depth, a counter read and write, and the bank-select into a
     *  rank-shared array (DESIGN.md Section 9). */
    std::uint32_t sramCharge(std::uint32_t c) const
    {
        return counterDepth_[c] + sramChargeBias();
    }
    /** sramCharge(c) - counterDepth_[c], mod 2^32. */
    std::uint32_t sramChargeBias() const
    {
        return 2u - presplitDepth_ + (pool_ != nullptr ? 1u : 0u);
    }
    void splitLeaf(const Walk &w, std::uint32_t new_counter,
                   std::uint32_t new_inode);
    std::uint32_t allocCounter();
    std::uint32_t allocInode();
    bool tryReconfigure(const Walk &hot);
    /** Initial-leaf depth for the prefix covering @p lo (uneven when
     *  floor(M/2) is not a power of two). */
    std::uint32_t presplitTargetDepth(RowAddr lo) const
    {
        if (presplitExtra_ == 0)
            return presplitDepth_;
        return (lo >> prefixShift_) < presplitExtra_ ? presplitDepth_ + 1
                                                     : presplitDepth_;
    }
    void presplit(std::uint32_t parent, bool right, std::uint32_t counter,
                  std::uint32_t depth, RowAddr lo);
    bool walkInvariants(std::uint32_t slot, RowAddr lo, RowAddr hi,
                        std::uint32_t depth, std::uint32_t parent,
                        bool right, std::vector<bool> &seen_counters,
                        std::vector<bool> &seen_inodes,
                        std::string *why) const;

    /** Weight of @p c under the lazy decay (see file comment). */
    std::uint32_t materializedWeight(std::uint32_t c) const
    {
        const std::uint64_t elapsed =
            refreshOrdinal_ - weightTouch_[c];
        const std::uint32_t stored = weightStored_[c];
        return elapsed >= stored
            ? 0u
            : stored - static_cast<std::uint32_t>(elapsed);
    }

    /** Store an absolute weight for @p c as of the current ordinal. */
    void setWeight(std::uint32_t c, std::uint8_t w)
    {
        weightStored_[c] = w;
        weightTouch_[c] = refreshOrdinal_;
    }

    bool candGet(std::uint32_t inode) const
    {
        return (candWords_[inode >> 6] >> (inode & 63)) & 1u;
    }
    void candSet(std::uint32_t inode)
    {
        candWords_[inode >> 6] |= std::uint64_t{1} << (inode & 63);
    }
    void candClear(std::uint32_t inode)
    {
        candWords_[inode >> 6] &= ~(std::uint64_t{1} << (inode & 63));
    }

    Params params_;
    std::uint32_t presplitDepth_;   //!< shallowest initial-leaf depth
    /** Prefixes (of presplitDepth_ bits) whose initial leaves sit one
     *  level deeper; 0 when floor(M/2) is a power of two. */
    std::uint32_t presplitExtra_ = 0;
    std::uint32_t presplitLeaves_;  //!< P = initial leaf count
    std::uint32_t rowBits_;         //!< log2(numRows)
    SharedCounterPool *pool_ = nullptr;
    std::uint32_t poolHeld_ = 0;    //!< counters charged to the pool

    // Flattened tree: two packed child slots per intermediate node,
    // plus SoA side tables (parent link, depth, covered range start)
    // kept in sync by split/merge so nothing is ever recomputed by
    // chasing pointers.
    std::vector<std::uint32_t> slots_;           //!< 2 per inode
    std::vector<std::uint32_t> inodeParent_;     //!< kNone for root
    std::vector<bool> inodeParentRight_;
    std::vector<bool> inodeInUse_;
    std::vector<std::uint32_t> inodeDepth_;
    std::vector<RowAddr> inodeLo_;
    /** Merge-candidate bitset: in-use nodes at depth >= pre-split with
     *  two leaf children (weights are checked at merge time). */
    std::vector<std::uint64_t> candWords_;

    /** Row bits above the pre-split depth: row >> prefixShift_ is the
     *  row's pre-split prefix. */
    std::uint32_t prefixShift_ = 0;
    /** Leaf map: the counter covering each aligned block of
     *  numRows >> (L-1) rows (see file comment). */
    std::vector<std::uint32_t> leaf_;
    std::uint32_t leafShift_ = 0; //!< log2 of the block size

    std::vector<std::uint32_t> counts_;
    std::vector<std::uint32_t> thr_;  //!< fast-path threshold per counter
    // Per-leaf position tables: a leaf-map lookup skips the walk, so
    // depth/parent/side are read here.
    std::vector<std::uint32_t> counterDepth_;
    std::vector<std::uint32_t> counterParent_;   //!< kNone for root
    std::vector<std::uint8_t> counterSide_;
    std::vector<std::uint8_t> weightStored_;
    std::vector<std::uint64_t> weightTouch_;
    std::uint64_t refreshOrdinal_ = 0;  //!< weighted refreshes so far
    std::vector<bool> counterInUse_;
    std::vector<std::uint32_t> freeCounters_;    //!< stack
    std::vector<std::uint32_t> freeInodes_;      //!< stack
    std::uint32_t rootPtr_ = 0;
    bool rootIsLeaf_ = true;
    bool canGrow_ = false;  //!< both free lists non-empty
    std::uint32_t activeCounters_ = 1;
    Count splits_ = 0;
    Count merges_ = 0;
};

} // namespace catsim

#endif // CATSIM_CORE_CAT_TREE_HPP
