/**
 * @file
 * Frozen pre-flattening CAT implementation (differential oracle).
 *
 * This is the pointer-chasing `CatTree` exactly as it stood before the
 * flattened structure-of-arrays rewrite: an array of INode structs with
 * left/right child pointers chased from the root, an eager O(M) weight
 * decrement on every weighted refresh, and a linear merge-candidate
 * scan with O(depth) parent chasing per intermediate node.
 *
 * It is kept for two purposes only:
 *  - the differential tests (`tests/test_cat_tree_diff.cpp`) drive it
 *    and the production `CatTree` with identical streams and require
 *    bit-identical observable behaviour, and
 *  - `bench_micro_schemes` benchmarks it against the flattened walk so
 *    the speedup is measured, not asserted.
 *
 * Do not use it in simulators and do not "fix" it: its behaviour is
 * the specification the fast tree is checked against.  It reuses the
 * production `CatTree::Params` / `CatTree::AccessResult` types so
 * results compare field-for-field.  It lives in the `catsim_oracles`
 * target, outside `libcatsim`, which only those two users link.
 */

#ifndef CATSIM_CORE_REFERENCE_CAT_TREE_HPP
#define CATSIM_CORE_REFERENCE_CAT_TREE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/cat_tree.hpp"

namespace catsim
{

/** Pointer-chasing reference implementation of the adaptive tree. */
class ReferenceCatTree
{
  public:
    using Params = CatTree::Params;
    using AccessResult = CatTree::AccessResult;

    explicit ReferenceCatTree(Params params);

    AccessResult access(RowAddr row);
    void reset();
    void resetCountsOnly();

    std::uint32_t activeCounters() const { return activeCounters_; }
    std::uint32_t leafDepth(RowAddr row) const;
    std::uint32_t counterValue(RowAddr row) const;
    std::pair<RowAddr, RowAddr> leafRange(RowAddr row) const;
    std::uint32_t leafWeight(RowAddr row) const;
    std::uint32_t maxLeafDepth() const;
    bool checkInvariants(std::string *why = nullptr) const;

    const Params &params() const { return params_; }
    Count totalSplits() const { return splits_; }
    Count totalMerges() const { return merges_; }

  private:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    struct INode
    {
        std::uint32_t l = kNone;
        std::uint32_t r = kNone;
        bool lleaf = true;
        bool rleaf = true;
    };

    struct Walk
    {
        std::uint32_t counter = 0;
        std::uint32_t depth = 0;
        RowAddr lo = 0;
        RowAddr hi = 0;
        std::uint32_t parent = kNone;
        bool parentRight = false;
    };

    Walk walkTo(RowAddr row) const;
    std::uint32_t thresholdAt(std::uint32_t depth, RowAddr lo,
                              RowAddr hi) const;
    bool canSplit(const Walk &w) const;
    void splitLeaf(const Walk &w, std::uint32_t new_counter,
                   std::uint32_t new_inode);
    std::uint32_t allocCounter();
    std::uint32_t allocInode();
    bool tryReconfigure(const Walk &hot);
    std::uint32_t inodeDepth(std::uint32_t inode) const;
    void presplit(std::uint32_t parent, bool right, std::uint32_t counter,
                  std::uint32_t depth, std::uint32_t target_depth);
    bool walkInvariants(std::uint32_t ptr, bool is_leaf, RowAddr lo,
                        RowAddr hi, std::uint32_t depth,
                        std::vector<bool> &seen_counters,
                        std::vector<bool> &seen_inodes,
                        std::string *why) const;

    Params params_;
    std::uint32_t presplitDepth_;
    std::vector<INode> inodes_;
    std::vector<std::uint32_t> inodeParent_;
    std::vector<bool> inodeParentRight_;
    std::vector<bool> inodeInUse_;
    std::vector<std::uint32_t> counts_;
    std::vector<std::uint8_t> weights_;
    std::vector<bool> counterInUse_;
    std::vector<std::uint32_t> freeCounters_;
    std::vector<std::uint32_t> freeInodes_;
    std::uint32_t rootPtr_ = 0;
    bool rootIsLeaf_ = true;
    std::uint32_t activeCounters_ = 1;
    Count splits_ = 0;
    Count merges_ = 0;
};

} // namespace catsim

#endif // CATSIM_CORE_REFERENCE_CAT_TREE_HPP
