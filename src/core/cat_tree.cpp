#include "cat_tree.hpp"

#include <algorithm>

#include "common/bit.hpp"
#include "common/logging.hpp"
#include "core/shared_pool.hpp"

namespace catsim
{

CatTree::CatTree(Params params) : params_(std::move(params))
{
    const auto M = params_.numCounters;
    const auto L = params_.maxLevels;
    if (M < 2)
        CATSIM_FATAL("CAT needs at least 2 counters, got ", M);
    if (!isPow2(params_.numRows))
        CATSIM_FATAL("CAT rows must be a power of two, got ",
                     params_.numRows);
    // The initial balanced shape is defined by presplitCounters (the
    // per-bank nominal M when a rank-shared pool raises the capacity),
    // which defaults to the capacity itself.
    const std::uint32_t shapeM =
        params_.presplitCounters ? params_.presplitCounters : M;
    if (shapeM < 2 || shapeM > M)
        CATSIM_FATAL("CAT pre-split counters (", shapeM,
                     ") must be in [2, M=", M, "]");
    // ceil(log2(shapeM)): the depth budget the initial shape needs one
    // level of growth beyond (identical to log2(M) for a power of two).
    const std::uint32_t cl2 = ceilLog2(shapeM);
    if (L < cl2 + 1)
        CATSIM_FATAL("CAT levels L=", L, " must exceed ceil(log2(M))=",
                     cl2);
    if (params_.numRows < (1u << (L - 1)))
        CATSIM_FATAL("CAT needs at least 2^(L-1) rows; got ",
                     params_.numRows, " for L=", L);
    if (params_.splitThresholds.size() != L)
        CATSIM_FATAL("CAT needs one split threshold per level (", L,
                     "), got ", params_.splitThresholds.size());
    if (params_.splitThresholds.back() != params_.refreshThreshold)
        CATSIM_FATAL("last split threshold must equal the refresh "
                     "threshold");
    // A split threshold above T would let a group count past the
    // refresh threshold without refreshing (the split branch only
    // takes thr < T), silently weakening the protection; reject it
    // here rather than letting custom schedules through.
    for (const std::uint32_t t : params_.splitThresholds)
        if (t > params_.refreshThreshold)
            CATSIM_FATAL("split threshold ", t, " exceeds the refresh "
                         "threshold ", params_.refreshThreshold);

    // P = floor(shapeM/2) initial leaves; a non-power-of-two P puts
    // the (P - 2^d) lowest-address prefixes one level deeper than
    // d = floor(log2 P) (uneven deepest pre-split level).
    presplitLeaves_ = shapeM / 2;
    presplitDepth_ = floorLog2(presplitLeaves_);
    presplitExtra_ = presplitLeaves_ - (1u << presplitDepth_);
    rowBits_ = floorLog2(params_.numRows);
    prefixShift_ = rowBits_ - presplitDepth_;
    // No leaf sits deeper than L-1, and numRows >= 2^(L-1) was checked
    // above, so the smallest leaf span is a whole number of rows.
    leafShift_ = rowBits_ - (L - 1);
    pool_ = params_.sharedPool;
    reset();
}

CatTree::~CatTree()
{
    if (pool_ != nullptr)
        pool_->release(poolHeld_);
}

void
CatTree::reset()
{
    const auto M = params_.numCounters;
    slots_.assign(2 * (M - 1), 0);
    inodeParent_.assign(M - 1, kNone);
    inodeParentRight_.assign(M - 1, false);
    inodeInUse_.assign(M - 1, false);
    inodeDepth_.assign(M - 1, 0);
    inodeLo_.assign(M - 1, 0);
    candWords_.assign((M - 1 + 63) / 64, 0);
    counts_.assign(M, 0);
    thr_.assign(M, 0);
    counterDepth_.assign(M, 0);
    counterParent_.assign(M, kNone);
    counterSide_.assign(M, 0);
    weightStored_.assign(M, 0);
    weightTouch_.assign(M, 0);
    refreshOrdinal_ = 0;
    counterInUse_.assign(M, false);
    freeCounters_.clear();
    freeInodes_.clear();
    for (std::uint32_t i = M; i-- > 1;)
        freeCounters_.push_back(i);
    for (std::uint32_t i = M - 1; i-- > 0;)
        freeInodes_.push_back(i);

    rootPtr_ = 0;
    rootIsLeaf_ = true;
    activeCounters_ = 1;
    counterInUse_[0] = true;
    // The root counter covers every row; presplit's splits then
    // re-point each new right half.
    leaf_.assign(std::size_t{1} << (params_.maxLevels - 1), 0);

    if (pool_ != nullptr) {
        // Re-baseline the pool charge: everything this tree held goes
        // back, then the root counter is taken again (presplit charges
        // the other initial leaves through allocCounter).
        pool_->release(poolHeld_);
        poolHeld_ = 0;
        if (!pool_->tryAcquire())
            CATSIM_FATAL("shared counter pool (capacity ",
                         pool_->capacity(),
                         ") cannot cover the initial trees");
        poolHeld_ = 1;
    }

    presplit(kNone, false, 0, 0, 0);
    updateCanGrow();
    updateAllThresholds(); // the depths are new even if canGrow_ is not
}

void
CatTree::updateAllThresholds()
{
    // Free counters get a value too; no walk ever reaches them.
    for (std::uint32_t c = 0; c < params_.numCounters; ++c)
        updateThreshold(c);
}

void
CatTree::resetCountsOnly()
{
    std::fill(counts_.begin(), counts_.end(), 0);
}

void
CatTree::presplit(std::uint32_t parent, bool right, std::uint32_t counter,
                  std::uint32_t depth, RowAddr lo)
{
    // The subtree's target depth is read off its lowest prefix: the
    // deeper prefixes are the lowest-address ones, so the first prefix
    // under a subtree carries its maximum (and the split below is
    // needed exactly when the subtree contains any deeper target).
    if (depth >= presplitTargetDepth(lo))
        return;
    Walk w;
    w.counter = counter;
    w.parent = parent;
    w.parentRight = right;
    w.depth = depth;
    w.lo = lo;
    const std::uint32_t nc = allocCounter();
    const std::uint32_t ni = allocInode();
    splitLeaf(w, nc, ni);
    const RowAddr half = (params_.numRows >> depth) / 2;
    presplit(ni, false, counter, depth + 1, lo);
    presplit(ni, true, nc, depth + 1, lo + half);
}

std::uint32_t
CatTree::allocCounter()
{
    if (freeCounters_.empty())
        CATSIM_PANIC("CAT counter free list exhausted");
    if (pool_ != nullptr) {
        // Growth paths check pool availability up front, so a failed
        // acquire can only mean the pool cannot cover the pre-split
        // trees of its banks - a configuration error.
        if (!pool_->tryAcquire())
            CATSIM_FATAL("shared counter pool (capacity ",
                         pool_->capacity(),
                         ") cannot cover the banks' initial trees");
        ++poolHeld_;
    }
    const std::uint32_t c = freeCounters_.back();
    freeCounters_.pop_back();
    updateCanGrow();
    counterInUse_[c] = true;
    return c;
}

std::uint32_t
CatTree::allocInode()
{
    if (freeInodes_.empty())
        CATSIM_PANIC("CAT intermediate-node free list exhausted");
    const std::uint32_t i = freeInodes_.back();
    freeInodes_.pop_back();
    updateCanGrow();
    inodeInUse_[i] = true;
    return i;
}

CatTree::Walk
CatTree::walkTo(RowAddr row) const
{
    return walkFromCounter(leafOf(row), row);
}

CatTree::Walk
CatTree::walkFromCounter(std::uint32_t counter, RowAddr row) const
{
    Walk w;
    w.counter = counter;
    w.depth = counterDepth_[counter];
    w.parent = counterParent_[counter];
    w.parentRight = counterSide_[counter] != 0;
    const RowAddr span = params_.numRows >> w.depth;
    w.lo = row & ~(span - 1);
    w.hi = w.lo + span - 1;
    return w;
}

void
CatTree::fillLeaves(RowAddr lo, std::uint32_t depth, std::uint32_t counter)
{
    const std::size_t first = lo >> leafShift_;
    const std::size_t n = std::size_t{1} << (params_.maxLevels - 1 - depth);
    std::fill_n(leaf_.begin() + static_cast<std::ptrdiff_t>(first), n,
                counter);
}

void
CatTree::splitLeaf(const Walk &w, std::uint32_t new_counter,
                   std::uint32_t new_inode)
{
    inodeParent_[new_inode] = w.parent;
    inodeParentRight_[new_inode] = w.parentRight;
    inodeDepth_[new_inode] = w.depth;
    inodeLo_[new_inode] = w.lo;
    slots_[2 * new_inode] = pack(w.counter, true);
    slots_[2 * new_inode + 1] = pack(new_counter, true);
    counterDepth_[w.counter] = w.depth + 1;
    counterParent_[w.counter] = new_inode;
    counterSide_[w.counter] = 0;
    counterDepth_[new_counter] = w.depth + 1;
    counterParent_[new_counter] = new_inode;
    counterSide_[new_counter] = 1;
    updateThreshold(w.counter);
    updateThreshold(new_counter);

    // Clone the count: both halves inherit the parent's history, which
    // keeps the scheme conservative (no victim can be undercounted).
    counts_[new_counter] = counts_[w.counter];
    weightStored_[new_counter] = weightStored_[w.counter];
    weightTouch_[new_counter] = weightTouch_[w.counter];
    // The left half keeps w.counter; only the right half moves.
    fillLeaves(w.lo + ((params_.numRows >> w.depth) >> 1), w.depth + 1,
               new_counter);

    if (w.parent == kNone) {
        rootPtr_ = new_inode;
        rootIsLeaf_ = false;
    } else {
        slots_[2 * w.parent + w.parentRight] = pack(new_inode, false);
        candClear(w.parent);
    }
    if (w.depth >= presplitDepth_)
        candSet(new_inode);
    ++activeCounters_;
}

CatTree::AccessResult
CatTree::access(RowAddr row)
{
    if (row >= params_.numRows)
        CATSIM_PANIC("row ", row, " out of range");

    // Fast path: resolve the counter only and test it against thr_;
    // the full Walk (parent link, covered range) is materialized from
    // the per-leaf tables below, and only when a split or refresh
    // actually needs it.  The leaf map stands in for the hardware
    // walk, whose SRAM accesses sramCharge still counts.
    const std::uint32_t counter = leafOf(row);
    const std::uint32_t depth = counterDepth_[counter];
    AccessResult res;
    res.leafDepth = depth;
    res.sramAccesses = sramCharge(counter);
    if (counts_[counter] < thr_[counter]) {
        ++counts_[counter];
        return res;
    }

    // The live rule: a split threshold below T (thr_ holds it) also
    // needs a free counter in the rank pool when one is attached.  The
    // pool can change between this bank's activations (other banks
    // allocate from it), so it is consulted here, not folded into thr_;
    // without one the leaf counts on to T.
    const bool splittable = thr_[counter] < params_.refreshThreshold
                            && (pool_ == nullptr || pool_->available() != 0);
    if (!splittable && counts_[counter] < params_.refreshThreshold) {
        ++counts_[counter];
        return res;
    }

    const Walk w = walkFromCounter(counter, row);

    if (splittable) {
        const std::uint32_t nc = allocCounter();
        const std::uint32_t ni = allocInode();
        splitLeaf(w, nc, ni);
        ++splits_;
        res.didSplit = true;
        if (pool_ != nullptr)
            ++res.sramAccesses; // shared free-list update
        return res;
    }

    // Refresh the whole group plus the two rows adjacent to it.
    counts_[w.counter] = 0;
    std::int64_t lo = static_cast<std::int64_t>(w.lo) - 1;
    std::int64_t hi = static_cast<std::int64_t>(w.hi) + 1;
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::min<std::int64_t>(hi,
                                static_cast<std::int64_t>(params_.numRows)
                                    - 1);
    res.refreshed = true;
    res.lo = static_cast<RowAddr>(lo);
    res.hi = static_cast<RowAddr>(hi);
    res.rowsRefreshed = static_cast<Count>(hi - lo + 1);

    if (params_.enableWeights) {
        // Architecturally every other in-use counter's weight drops by
        // one here; the lazy scheme does it by advancing the global
        // ordinal instead (the hot counter escapes the decrement by
        // being restamped above the bump).
        std::uint32_t hotW = materializedWeight(w.counter);
        if (hotW < 3)
            ++hotW;
        ++refreshOrdinal_;
        setWeight(w.counter, static_cast<std::uint8_t>(hotW));
        if (hotW == 3) {
            res.didReconfigure = tryReconfigure(w);
            if (res.didReconfigure && pool_ != nullptr)
                ++res.sramAccesses; // shared free-list update
        }
    }
    return res;
}

bool
CatTree::tryReconfigure(const Walk &hot)
{
    // Can the hot leaf be subdivided at all?
    if (hot.depth + 1 >= params_.maxLevels || hot.lo >= hot.hi)
        return false;

    // Step 1 (Fig 7): find an intermediate node whose children are
    // both cold leaf counters (weight zero).  The candidate bitset
    // already encodes "both children are leaves, at or below the
    // pre-split level" - nodes above it are never merged, since the
    // lambda-level balanced prefix is what allows direct SRAM indexing
    // (Section IV-C) - so only the weight check runs here, lowest
    // index first to match the historical scan order.
    std::uint32_t cand = kNone;
    for (std::size_t wi = 0; wi < candWords_.size() && cand == kNone;
         ++wi) {
        std::uint64_t word = candWords_[wi];
        while (word) {
            const std::uint32_t i =
                static_cast<std::uint32_t>(wi * 64) + ctz64(word);
            if (materializedWeight(slotNode(slots_[2 * i])) == 0
                && materializedWeight(slotNode(slots_[2 * i + 1]))
                       == 0) {
                cand = i;
                break;
            }
            word &= word - 1;
        }
    }
    if (cand == kNone)
        return false;

    // Merge: keep the child with the larger count so the merged group
    // can never undercount, free the other counter and the node.
    const std::uint32_t l = slotNode(slots_[2 * cand]);
    const std::uint32_t r = slotNode(slots_[2 * cand + 1]);
    const std::uint32_t keep = counts_[l] >= counts_[r] ? l : r;
    const std::uint32_t drop = keep == l ? r : l;
    counts_[keep] = std::max(counts_[l], counts_[r]);

    const std::uint32_t parent = inodeParent_[cand];
    const bool side = inodeParentRight_[cand];
    if (parent == kNone) {
        rootPtr_ = keep;
        rootIsLeaf_ = true;
    } else {
        slots_[2 * parent + side] = pack(keep, true);
        if (isLeafSlot(slots_[2 * parent])
            && isLeafSlot(slots_[2 * parent + 1])
            && inodeDepth_[parent] >= presplitDepth_)
            candSet(parent);
    }
    counterDepth_[keep] = inodeDepth_[cand];
    counterParent_[keep] = parent;
    counterSide_[keep] = side;
    updateThreshold(keep);
    fillLeaves(inodeLo_[cand], inodeDepth_[cand], keep);
    candClear(cand);
    inodeInUse_[cand] = false;
    freeInodes_.push_back(cand);
    counterInUse_[drop] = false;
    setWeight(drop, 0);
    counts_[drop] = 0;
    freeCounters_.push_back(drop);
    if (pool_ != nullptr) {
        // The freed counter goes back to the rank before the split
        // below re-acquires it, so a full pool still reconfigures.
        pool_->release(1);
        --poolHeld_;
    }
    updateCanGrow();
    --activeCounters_;
    ++merges_;

    // Step 2: split the hot leaf with the freed counter.  The hot
    // leaf's parent slot is untouched by the merge (the hot counter has
    // weight 3, so it cannot have been a child of `cand`).
    const std::uint32_t nc = allocCounter();
    const std::uint32_t ni = allocInode();
    splitLeaf(hot, nc, ni);
    ++splits_;

    // Step 3: newly split counters keep weight 1 so they are neither
    // immediately re-split nor immediately merged back.
    setWeight(hot.counter, 1);
    setWeight(nc, 1);
    return true;
}

std::uint32_t
CatTree::leafDepth(RowAddr row) const
{
    return walkTo(row).depth;
}

std::uint32_t
CatTree::counterValue(RowAddr row) const
{
    return counts_[walkTo(row).counter];
}

std::pair<RowAddr, RowAddr>
CatTree::leafRange(RowAddr row) const
{
    const Walk w = walkTo(row);
    return {w.lo, w.hi};
}

std::uint32_t
CatTree::leafWeight(RowAddr row) const
{
    return materializedWeight(walkTo(row).counter);
}

std::uint32_t
CatTree::maxLeafDepth() const
{
    std::uint32_t best = 0;
    // Iterative DFS over packed (slot, depth).
    struct Item
    {
        std::uint32_t slot;
        std::uint32_t depth;
    };
    std::vector<Item> stack{{pack(rootPtr_, rootIsLeaf_), 0}};
    while (!stack.empty()) {
        const Item it = stack.back();
        stack.pop_back();
        if (isLeafSlot(it.slot)) {
            best = std::max(best, it.depth);
            continue;
        }
        const std::uint32_t nd = slotNode(it.slot);
        stack.push_back({slots_[2 * nd], it.depth + 1});
        stack.push_back({slots_[2 * nd + 1], it.depth + 1});
    }
    return best;
}

bool
CatTree::walkInvariants(std::uint32_t slot, RowAddr lo, RowAddr hi,
                        std::uint32_t depth, std::uint32_t parent,
                        bool right, std::vector<bool> &seen_counters,
                        std::vector<bool> &seen_inodes,
                        std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (depth >= params_.maxLevels)
        return fail("node deeper than L-1");
    if (lo > hi)
        return fail("empty row range");

    if (isLeafSlot(slot)) {
        const std::uint32_t ptr = slotNode(slot);
        if (ptr >= params_.numCounters)
            return fail("leaf pointer out of range");
        if (depth < presplitDepth_)
            return fail("leaf above the pre-split level");
        if (seen_counters[ptr])
            return fail("counter reached twice");
        if (!counterInUse_[ptr])
            return fail("leaf references a free counter");
        seen_counters[ptr] = true;
        if (counterDepth_[ptr] != depth)
            return fail("stored leaf depth disagrees with the tree");
        if (counterParent_[ptr] != parent
            || (counterSide_[ptr] != 0) != right)
            return fail("stored leaf parent disagrees with the tree");
        if (counts_[ptr] > params_.refreshThreshold)
            return fail("count exceeds refresh threshold");
        const bool growable = depth + 1 < params_.maxLevels
                              && depth < rowBits_
                              && !freeCounters_.empty()
                              && !freeInodes_.empty();
        if (thr_[ptr] != (growable ? params_.splitThresholds[depth]
                                   : params_.refreshThreshold))
            return fail("fast-path threshold disagrees with the tree");
        if (weightStored_[ptr] > 3)
            return fail("stored weight exceeds 2-bit range");
        if (weightTouch_[ptr] > refreshOrdinal_)
            return fail("weight stamped after the current ordinal");
        if (!params_.enableWeights && materializedWeight(ptr) != 0)
            return fail("weights used without DRCAT mode");
        // The leaf map must name this leaf for every block it covers
        // (the recursive descent above is the ground truth).
        for (std::size_t e = lo >> leafShift_; e <= (hi >> leafShift_);
             ++e)
            if (leaf_[e] != ptr)
                return fail("leaf map disagrees with the tree walk");
        return true;
    }

    const std::uint32_t ptr = slotNode(slot);
    if (ptr + 1 >= params_.numCounters)
        return fail("inode pointer out of range");
    if (seen_inodes[ptr])
        return fail("inode reached twice");
    if (!inodeInUse_[ptr])
        return fail("tree references a free inode");
    seen_inodes[ptr] = true;

    if (inodeDepth_[ptr] != depth)
        return fail("stored inode depth disagrees with the tree");
    if (inodeLo_[ptr] != lo)
        return fail("stored inode range disagrees with the tree");
    if (inodeParent_[ptr] != parent
        || (parent != kNone
            && static_cast<bool>(inodeParentRight_[ptr]) != right))
        return fail("inode parent link disagrees with the tree");

    const std::uint32_t ls = slots_[2 * ptr];
    const std::uint32_t rs = slots_[2 * ptr + 1];
    const bool structuralCand = isLeafSlot(ls) && isLeafSlot(rs)
                                && depth >= presplitDepth_;
    if (candGet(ptr) != structuralCand)
        return fail("merge-candidate bit disagrees with the tree");

    const RowAddr mid = lo + (hi - lo) / 2;
    return walkInvariants(ls, lo, mid, depth + 1, ptr, false,
                          seen_counters, seen_inodes, why)
           && walkInvariants(rs, mid + 1, hi, depth + 1, ptr, true,
                             seen_counters, seen_inodes, why);
}

bool
CatTree::checkInvariants(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    const std::uint32_t numInodes = params_.numCounters - 1;
    std::vector<bool> seenCounters(params_.numCounters, false);
    std::vector<bool> seenInodes(numInodes, false);
    if (leaf_.size() != std::size_t{1} << (params_.maxLevels - 1))
        return fail("leaf map has the wrong size");
    if (!rootIsLeaf_ && inodeParent_[rootPtr_] != kNone)
        return fail("root has a parent link");
    if (!walkInvariants(pack(rootPtr_, rootIsLeaf_), 0,
                        params_.numRows - 1, 0, kNone, false,
                        seenCounters, seenInodes, why))
        return false;

    std::uint32_t leaves = 0;
    for (std::uint32_t c = 0; c < params_.numCounters; ++c) {
        if (seenCounters[c] != counterInUse_[c])
            return fail("counterInUse inconsistent with tree");
        if (seenCounters[c])
            ++leaves;
    }
    if (leaves != activeCounters_)
        return fail("activeCounters does not match leaf count");
    if (leaves + freeCounters_.size() != params_.numCounters)
        return fail("counter free list inconsistent");

    std::uint32_t used = 0;
    for (std::uint32_t i = 0; i < numInodes; ++i) {
        if (seenInodes[i] != inodeInUse_[i])
            return fail("inodeInUse inconsistent with tree");
        if (!seenInodes[i] && candGet(i))
            return fail("free inode still flagged as merge candidate");
        if (seenInodes[i])
            ++used;
    }
    if (used + freeInodes_.size() != numInodes)
        return fail("inode free list inconsistent");
    if (used != leaves - 1 && !(rootIsLeaf_ && used == 0))
        return fail("binary tree shape violated (inodes != leaves-1)");
    if (pool_ != nullptr && poolHeld_ != activeCounters_)
        return fail("pool charge disagrees with active counters");

    return true;
}

} // namespace catsim
