// simlint: hot-path
#include "core/core.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

namespace ecdp
{

Core::Core(const Workload *workload, CoreMemoryInterface *memory,
           const CoreParams &params)
    : trace_(workload->trace.data()), traceLen_(workload->trace.size()),
      memory_(memory), params_(params),
      slotMask_(std::bit_ceil(std::size_t{params.lsqEntries}) - 1)
{
    assert(memory_);
    completion_.assign(traceLen_, kPending);
    fillersAhead_.assign(slotMask_ + 1, 0);
    waitHead_.assign(slotMask_ + 1, kNoLoad);
    waitNext_.assign(slotMask_ + 1, kNoLoad);
    wakeHeap_.reserve(params_.lsqEntries);
    ready_.reserve(params_.lsqEntries);
}

void
Core::wakeAt(Cycle ready, std::size_t idx)
{
    wakeHeap_.push_back({ready, idx});
    std::push_heap(wakeHeap_.begin(), wakeHeap_.end(), std::greater<>{});
}

inline bool
Core::step(Cycle now)
{
    ++ticks_;
    bool called = false;

    // Retire: in order, up to width a cycle. Fillers ahead of the
    // head op always retire; the op itself once its data is due.
    // The ROB counts live in locals: the ring's uint32_t stores
    // would otherwise force them to be reloaded.
    {
        unsigned budget = params_.width;
        unsigned rob = robCount_;
        unsigned lsq = lsqCount_;
        const unsigned rob0 = rob;
        while (budget > 0 && rob > 0) {
            const std::size_t head = cursor_ - lsq;
            std::uint32_t &fillers =
                lsq > 0 ? fillersAhead_[slot(head)] : tailFillers_;
            const std::uint32_t ahead = fillers;
            if (ahead > 0) {
                const std::uint32_t take = std::min(budget, ahead);
                fillers = ahead - take;
                rob -= take;
                budget -= take;
                continue;
            }
            const Cycle done = completion_[head];
            if (done == kPending || done > now)
                break;
            --rob;
            --lsq;
            --budget;
        }
        retired_ += rob0 - rob;
        robCount_ = rob;
        lsqCount_ = lsq;
    }

    // Issue, unless nothing is ready and nothing wakes this cycle.
    if (!ready_.empty() ||
        (!wakeHeap_.empty() && wakeHeap_.front().at <= now)) {
        // Loads whose producer has completed by now join the ready
        // list at their trace position.
        while (!wakeHeap_.empty() && wakeHeap_.front().at <= now) {
            std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(),
                          std::greater<>{});
            const std::size_t idx = wakeHeap_.back().idx;
            wakeHeap_.pop_back();
            ready_.insert(
                std::upper_bound(ready_.begin(), ready_.end(), idx), idx);
        }
        unsigned issued = 0;
        while (issued < params_.issuePerCycle && issued < ready_.size()) {
            const std::size_t idx = ready_[issued];
            called = true;
            std::optional<Cycle> done = memory_->load(trace_[idx], now);
            // The memory system is out of buffers; no point trying
            // the remaining loads this cycle.
            if (!done)
                break;
            const Cycle ready = std::max(*done, now + 1);
            completion_[idx] = ready;
            // Hand the waiters to the heap; this leaves the list
            // empty.
            std::size_t &waiter = waitHead_[slot(idx)];
            for (; waiter != kNoLoad; waiter = waitNext_[slot(waiter)])
                wakeAt(ready, waiter);
            ++issued;
        }
        ready_.erase(ready_.begin(), ready_.begin() + issued);
    }

    // Dispatch: up to width a cycle, fillers first, then the memory
    // op they precede, while the ROB and the LSQ have room.
    {
        unsigned budget = params_.width;
        unsigned rob = robCount_;
        unsigned lsq = lsqCount_;
        std::size_t cursor = cursor_;
        std::uint32_t tail = tailFillers_;
        std::uint32_t left = fillersLeft_;
        bool primed = fillersPrimed_;
        while (budget > 0 && cursor < traceLen_ && rob < params_.robEntries) {
            const TraceEntry &entry = trace_[cursor];
            if (!primed) {
                left = entry.nonMemBefore;
                primed = true;
            }
            if (left > 0) {
                const std::uint32_t take =
                    std::min({budget, left, params_.robEntries - rob});
                tail += take;
                rob += take;
                budget -= take;
                left -= take;
                continue;
            }
            if (lsq >= params_.lsqEntries)
                break;
            fillersAhead_[slot(cursor)] = tail;
            tail = 0;
            ++rob;
            ++lsq;
            if (entry.kind == AccessKind::Store) {
                called = true;
                memory_->store(entry, now);
                completion_[cursor] = now + 1;
            } else if (entry.dep == kNoDep) {
                ready_.push_back(cursor);
            } else {
                const auto producer = static_cast<std::size_t>(entry.dep);
                assert(producer < cursor);
                const Cycle ready = completion_[producer];
                if (ready == kPending) {
                    // An unissued load, so still in the LSQ: its slot
                    // is live until it issues and hands over its
                    // waiters.
                    waitNext_[slot(cursor)] = waitHead_[slot(producer)];
                    waitHead_[slot(producer)] = cursor;
                } else if (ready <= now) {
                    ready_.push_back(cursor);
                } else {
                    wakeAt(ready, cursor);
                }
            }
            --budget;
            ++cursor;
            primed = false;
        }
        robCount_ = rob;
        lsqCount_ = lsq;
        cursor_ = cursor;
        tailFillers_ = tail;
        fillersLeft_ = left;
        fillersPrimed_ = primed;
    }

    if (cursor_ == traceLen_ && robCount_ == 0) {
        if (!finishedOnce_) {
            finishedOnce_ = true;
            finishCycle_ = now;
            retiredFirstPass_ = retired_;
        }
        if (wrapAround_)
            resetPass();
        return true;
    }
    return called;
}

void
Core::resetPass()
{
    // Everything retired, hence issued: the issue queue is empty.
    assert(ready_.empty() && wakeHeap_.empty());
    cursor_ = 0;
    fillersPrimed_ = false;
    fillersLeft_ = 0;
    std::fill(completion_.begin(), completion_.end(), kPending);
}

inline Cycle
Core::wake(Cycle now) const
{
    Cycle bound = kNoEventCycle;

    // Retire: non-memory fillers at the head always retire next
    // cycle; a memory head with a known completion blocks everything
    // behind it until that cycle (if the completion is already due,
    // retirement merely ran out of width this cycle — resume next).
    // A head whose completion is still kPending is an unissued load;
    // the issue queue below bounds it.
    if (robCount_ > 0) {
        const std::size_t head = cursor_ - lsqCount_;
        if (lsqCount_ == 0 || fillersAhead_[slot(head)] > 0)
            return now + 1;
        Cycle done = completion_[head];
        if (done != kPending)
            bound = std::max(done, now + 1);
    }

    // Issue: a ready load was held back only by the per-cycle issue
    // budget or a memory-system refusal — both retried (with
    // observable side effects such as the MSHR stall-cycle counters)
    // every cycle, so no skipping. Otherwise the earliest state change
    // is the earliest known producer completion, the heap top (always
    // after now: dispatch readies the loads whose producer is already
    // done). Loads behind an unissued producer wait for at least that.
    if (!ready_.empty())
        return now + 1;
    if (!wakeHeap_.empty()) {
        assert(wakeHeap_.front().at > now);
        bound = std::min(bound, wakeHeap_.front().at);
    }

    // Dispatch: possible next cycle whenever there is ROB space and
    // the next entry is a filler batch or a memory op with LSQ space.
    // A full ROB or LSQ only drains through retirement, which the
    // retire bound above already covers.
    if (cursor_ < traceLen_ && robCount_ < params_.robEntries) {
        const TraceEntry &entry = trace_[cursor_];
        std::uint32_t fillers =
            fillersPrimed_ ? fillersLeft_ : entry.nonMemBefore;
        if (fillers > 0 || lsqCount_ < params_.lsqEntries)
            return now + 1;
    }

    return bound;
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    return wake(now);
}

bool
Core::runUntil(Cycle &now, Cycle horizon)
{
    for (;;) {
        if (step(now))
            return true;
        // Every wake is after now, so none can fall before now + 1.
        if (now + 1 >= horizon)
            return false;
        const Cycle next = wake(now);
        if (next >= horizon)
            return false;
        now = next;
    }
}

void
Core::tick(Cycle now)
{
    runUntil(now, now + 1);
}

} // namespace ecdp
