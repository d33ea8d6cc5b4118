/**
 * @file
 * Bounded exponential backoff for polling loops.
 *
 * Coordinators that tail files published by other processes
 * (harness/dispatch) have no event to wait on — they poll. A fixed
 * short interval burns a CPU core while a fleet of runners grinds
 * through a long task; a fixed long interval adds
 * latency to every result. PollBackoff gives the standard compromise:
 * each fruitless poll doubles the sleep up to a cap, and any progress
 * resets it to the minimum, so a busy stream is tailed near-instantly
 * while an idle coordinator converges to the cap.
 *
 * A hold keeps the first few fruitless polls after a reset at the
 * minimum before the doubling starts. Without it, work that arrives
 * a few milliseconds after the poller went idle waits for whichever
 * doubling step it falls into (2, 6, 14, 30 ms ...), so a small delay
 * upstream can turn into a delay of twice its size here.
 */

#ifndef TP_COMMON_BACKOFF_HH
#define TP_COMMON_BACKOFF_HH

#include <chrono>
#include <thread>

#include "common/logging.hh"

namespace tp {

/** See file comment. */
class PollBackoff
{
  public:
    /**
     * @param min sleep after a poll that made progress (and the
     *            first fruitless one)
     * @param max cap the doubling converges to
     * @param hold fruitless polls after a reset that sleep `min`
     *             before the doubling starts
     */
    PollBackoff(std::chrono::milliseconds min,
                std::chrono::milliseconds max, unsigned hold = 0)
        : min_(min), max_(max), current_(min), hold_(hold), held_(0)
    {
        tp_assert(min.count() > 0 && max >= min);
    }

    /** The poll made progress: drop back to the minimum interval. */
    void
    reset()
    {
        current_ = min_;
        held_ = 0;
    }

    /** @return the interval the next fruitless poll should sleep. */
    std::chrono::milliseconds current() const { return current_; }

    /**
     * Advance the schedule one fruitless poll: @return the interval
     * to sleep now, doubling the next one up to the cap.
     */
    std::chrono::milliseconds
    next()
    {
        const std::chrono::milliseconds sleep = current_;
        if (held_ < hold_)
            ++held_;
        else
            current_ = std::min(max_, current_ * 2);
        return sleep;
    }

    /** Sleep for next() (the convenience most call sites want). */
    void sleep() { std::this_thread::sleep_for(next()); }

  private:
    std::chrono::milliseconds min_;
    std::chrono::milliseconds max_;
    std::chrono::milliseconds current_;
    unsigned hold_;
    unsigned held_;
};

} // namespace tp

#endif // TP_COMMON_BACKOFF_HH
