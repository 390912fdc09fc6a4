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
    : workload_(workload), memory_(memory), params_(params),
      slotMask_(std::bit_ceil(std::size_t{params.lsqEntries}) - 1)
{
    assert(workload_ && memory_);
    completion_.assign(workload_->trace.size(), kPending);
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

void
Core::retire(Cycle now)
{
    unsigned budget = params_.width;
    while (budget > 0 && robCount_ > 0) {
        const std::size_t head = cursor_ - lsqCount_;
        std::uint32_t &fillers =
            lsqCount_ > 0 ? fillersAhead_[slot(head)] : tailFillers_;
        if (fillers > 0) {
            std::uint32_t take = std::min<std::uint32_t>(budget, fillers);
            fillers -= take;
            robCount_ -= take;
            retired_ += take;
            budget -= take;
            continue;
        }
        Cycle done = completion_[head];
        if (done == kPending || done > now)
            break;
        --robCount_;
        --lsqCount_;
        ++retired_;
        --budget;
    }
}

void
Core::issueLoads(Cycle now)
{
    // Loads whose producer has completed by now join the ready list
    // at their trace position.
    while (!wakeHeap_.empty() && wakeHeap_.front().at <= now) {
        std::pop_heap(wakeHeap_.begin(), wakeHeap_.end(), std::greater<>{});
        const std::size_t idx = wakeHeap_.back().idx;
        wakeHeap_.pop_back();
        ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), idx),
                      idx);
    }
    unsigned issued = 0;
    while (issued < params_.issuePerCycle && issued < ready_.size()) {
        const std::size_t idx = ready_[issued];
        std::optional<Cycle> done = memory_->load(workload_->trace[idx], now);
        // The memory system is out of buffers; no point trying the
        // remaining loads this cycle.
        if (!done)
            break;
        const Cycle ready = std::max(*done, now + 1);
        completion_[idx] = ready;
        // Hand the waiters to the heap; this leaves the list empty.
        std::size_t &waiter = waitHead_[slot(idx)];
        for (; waiter != kNoLoad; waiter = waitNext_[slot(waiter)])
            wakeAt(ready, waiter);
        ++issued;
    }
    ready_.erase(ready_.begin(), ready_.begin() + issued);
}

void
Core::dispatch(Cycle now)
{
    unsigned budget = params_.width;
    const auto &trace = workload_->trace;
    while (budget > 0 && cursor_ < trace.size()) {
        const TraceEntry &entry = trace[cursor_];
        if (!fillersPrimed_) {
            fillersLeft_ = entry.nonMemBefore;
            fillersPrimed_ = true;
        }
        unsigned rob_space = params_.robEntries - robCount_;
        if (rob_space == 0)
            break;
        if (fillersLeft_ > 0) {
            std::uint32_t take = std::min<std::uint32_t>(
                {budget, fillersLeft_, rob_space});
            tailFillers_ += take;
            robCount_ += take;
            budget -= take;
            fillersLeft_ -= take;
            continue;
        }
        if (lsqCount_ >= params_.lsqEntries)
            break;
        fillersAhead_[slot(cursor_)] = tailFillers_;
        tailFillers_ = 0;
        ++robCount_;
        ++lsqCount_;
        if (entry.kind == AccessKind::Store) {
            memory_->store(entry, now);
            completion_[cursor_] = now + 1;
        } else if (entry.dep == kNoDep) {
            ready_.push_back(cursor_);
        } else {
            const auto producer = static_cast<std::size_t>(entry.dep);
            assert(producer < cursor_);
            const Cycle ready = completion_[producer];
            if (ready == kPending) {
                // An unissued load, so still in the LSQ: its slot is
                // live until it issues and hands over its waiters.
                waitNext_[slot(cursor_)] = waitHead_[slot(producer)];
                waitHead_[slot(producer)] = cursor_;
            } else if (ready <= now) {
                ready_.push_back(cursor_);
            } else {
                wakeAt(ready, cursor_);
            }
        }
        --budget;
        ++cursor_;
        fillersPrimed_ = false;
    }
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

Cycle
Core::nextEventCycle(Cycle now) const
{
    Cycle wake = kNoEventCycle;

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
            wake = std::max(done, now + 1);
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
        wake = std::min(wake, wakeHeap_.front().at);
    }

    // Dispatch: possible next cycle whenever there is ROB space and
    // the next entry is a filler batch or a memory op with LSQ space.
    // A full ROB or LSQ only drains through retirement, which the
    // retire bound above already covers.
    if (cursor_ < workload_->trace.size() &&
        robCount_ < params_.robEntries) {
        const TraceEntry &entry = workload_->trace[cursor_];
        std::uint32_t fillers =
            fillersPrimed_ ? fillersLeft_ : entry.nonMemBefore;
        if (fillers > 0 || lsqCount_ < params_.lsqEntries)
            return now + 1;
    }

    return wake;
}

void
Core::tick(Cycle now)
{
    retire(now);
    issueLoads(now);
    dispatch(now);

    if (cursor_ == workload_->trace.size() && robCount_ == 0) {
        if (!finishedOnce_) {
            finishedOnce_ = true;
            finishCycle_ = now;
            retiredFirstPass_ = retired_;
        }
        if (wrapAround_)
            resetPass();
    }
}

} // namespace ecdp
