/**
 * @file
 * The pure datapath rules of the RMB switch, tabulated from the
 * paper's Figures 6 and 7.
 *
 * Figure 6: input port l of an INC can drive output ports
 * {l-1, l, l+1} only (three cross points per output).  Figure 7: a
 * virtual bus hop may move one level down when the target segment is
 * free, both neighbouring hops sit within the reachable window of
 * the new level, and no adjacent hop is itself mid-move.
 *
 * Everything here is side-effect free and independent of the event
 * queue: RmbNetwork drives these predicates inside the simulation,
 * and the model checker (src/check/) drives the very same functions
 * while enumerating all reachable protocol states - keeping the two
 * from drifting apart is the point of this header.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "rmb/status_register.hh"
#include "rmb/types.hh"
#include "rmb/virtual_bus.hh"

namespace rmb {
namespace core {

/** Figure 6: may input level @p lin drive output level @p lout? */
inline bool
levelsReachable(Level lin, Level lout)
{
    return lin - lout <= 1 && lout - lin <= 1;
}

/**
 * Direction of input level @p lin as seen from output level @p lout;
 * panics unless the two are adjacent per Figure 6.
 */
inline SourceDir
sourceDirOf(Level lin, Level lout)
{
    if (lin == lout - 1)
        return SourceDir::Below;
    if (lin == lout)
        return SourceDir::Straight;
    if (lin == lout + 1)
        return SourceDir::Above;
    panic("input level ", lin, " not adjacent to output level ",
          lout);
}

/**
 * Output levels an advancing header can take from head hop @p head,
 * in the preference order of @p policy (section 2.2 + Figure 6).
 * Mid-move the hop settles at dualLevel = level-1, so only outputs
 * legal from *both* the old and the new input level may be taken,
 * which is exactly {level-1, level}.
 */
inline int
reachableOutputLevelsInto(const Hop &head, Level num_buses,
                          HeaderPolicy policy, Level (&out)[3])
{
    const bool lowest_first = policy == HeaderPolicy::PreferLowest;
    Level cand[3];
    int m = 0;
    if (head.inMove()) {
        if (lowest_first) {
            cand[m++] = head.level - 1;
            cand[m++] = head.level;
        } else {
            cand[m++] = head.level;
            cand[m++] = head.level - 1;
        }
    } else if (lowest_first) {
        cand[m++] = head.level - 1;
        cand[m++] = head.level;
        cand[m++] = head.level + 1;
    } else {
        cand[m++] = head.level;
        cand[m++] = head.level - 1;
        cand[m++] = head.level + 1;
    }
    int count = 0;
    for (int i = 0; i < m; ++i)
        if (cand[i] >= 0 && cand[i] < num_buses)
            out[count++] = cand[i];
    return count;
}

inline std::vector<Level>
reachableOutputLevels(const Hop &head, Level num_buses,
                      HeaderPolicy policy)
{
    Level out[3];
    const int count =
        reachableOutputLevelsInto(head, num_buses, policy, out);
    return std::vector<Level>(out, out + count);
}

/**
 * Which reading of the Figure-7 move rule to apply.  The simulator
 * always runs Figure7; IgnoreNeighbors exists so the model checker
 * (tools/rmbcheck --mutate move-ignore-neighbors) can demonstrate
 * that dropping the neighbour conditions lets a move sever a virtual
 * bus / produce codes Table 1 forbids.
 */
enum class MoveRuleVariant : std::uint8_t
{
    Figure7,         //!< full rule, as tabulated below
    IgnoreNeighbors, //!< skip the neighbour-hop window and
                     //!< mid-move checks (deliberately broken)
};

/**
 * Figure 7's eligibility of hop @p hop_index of @p bus for a
 * downward move, given segment availability through @p is_free
 * (callable as is_free(GapId, Level)).
 *
 * The four tabulated conditions: the hop is above level 0 and not
 * already mid-move; the segment one level down is free; both
 * neighbouring hops (when they exist) sit at level or level-1 and
 * are not themselves mid-move (the odd/even pairwise agreement
 * serializes adjacent moves).  Additionally no hop of a
 * tearing-down bus moves, and the head hop of an *advancing* bus
 * stays put: the header flit is mid-flight beyond it, and moving
 * the segment under the header would shrink its reachable output
 * set at the next INC ({l-1, l} instead of three levels) and
 * provoke needless aborts.  The paper compacts "the virtual bus
 * drawn behind" the header (section 2.2) - a *blocked* head hop
 * still moves so a waiting header can sink toward the lowest free
 * levels (Theorem 1).
 *
 * Templated on the bus type so every backend shares the one rule:
 * @p BusT needs `.state`, and `.hops` indexable to Hop-shaped
 * elements (RmbNetwork's VirtualBus, the cycle kernel's pool slot
 * and the model checker's bus all qualify).
 */
template <typename BusT, typename IsFree>
bool
hopMovableRule(const BusT &bus, std::size_t hop_index,
               IsFree &&is_free,
               MoveRuleVariant variant = MoveRuleVariant::Figure7)
{
    if (isTeardown(bus.state))
        return false;
    const Hop &hop = bus.hops[hop_index];
    if (hop.inMove() || hop.level <= 0)
        return false;
    if (!is_free(hop.gap, hop.level - 1))
        return false;
    const bool check_neighbours =
        variant != MoveRuleVariant::IgnoreNeighbors;
    if (check_neighbours && hop_index > 0) {
        const Hop &prev = bus.hops[hop_index - 1];
        if (prev.inMove())
            return false;
        if (prev.level != hop.level && prev.level != hop.level - 1)
            return false;
    }
    if (hop_index + 1 < bus.hops.size()) {
        if (check_neighbours) {
            const Hop &next = bus.hops[hop_index + 1];
            if (next.inMove())
                return false;
            if (next.level != hop.level &&
                next.level != hop.level - 1)
                return false;
        }
    } else if (bus.state == BusState::Advancing) {
        return false;
    }
    return true;
}

} // namespace core
} // namespace rmb
