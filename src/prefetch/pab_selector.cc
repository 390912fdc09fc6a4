#include "prefetch/pab_selector.hh"

#include <cassert>

namespace ecdp
{

PabSelector::PabSelector(unsigned window, unsigned lanes)
    : window_(window), outcomes_(lanes)
{
    assert(window > 0);
    assert(lanes >= 1);
}

void
PabSelector::recordOutcome(unsigned which, bool used)
{
    assert(which < outcomes_.size());
    auto &ring = outcomes_[which];
    ring.push_back(used);
    if (ring.size() > window_)
        ring.pop_front();
}

double
PabSelector::accuracy(unsigned which) const
{
    assert(which < outcomes_.size());
    const auto &ring = outcomes_[which];
    if (ring.empty())
        return 1.0; // no evidence yet: assume accurate
    unsigned used = 0;
    for (bool u : ring)
        used += u;
    return static_cast<double>(used) /
           static_cast<double>(ring.size());
}

unsigned
PabSelector::select() const
{
    // Strict greater-than keeps ties at the lowest index, which for
    // the paper's two-lane configuration means ties go to the primary.
    unsigned best = 0;
    double bestAcc = accuracy(0);
    for (unsigned i = 1; i < outcomes_.size(); ++i) {
        const double acc = accuracy(i);
        if (acc > bestAcc) {
            best = i;
            bestAcc = acc;
        }
    }
    return best;
}

} // namespace ecdp
