// Seeded fixture: unbounded-container must flag exactly sessions_
// (a growable container in a long-lived class with no erase path,
// no cap note and no allow) and leave the controls alone.

#ifndef SIMLINT_FIXTURE_BAD_UNBOUNDED_HH
#define SIMLINT_FIXTURE_BAD_UNBOUNDED_HH

#include <deque>
#include <map>
#include <string>
#include <vector>

// simlint: long-lived
class SessionRegistry
{
  public:
    void
    drainFinished()
    {
        finished_.clear(); // the erase path for finished_
    }

    void
    retire(const std::string &id)
    {
        archive_.swap(staging_); // swap path for staging_
        (void)id;
    }

  private:
    std::map<std::string, int> sessions_; // BAD: grows forever

    // simlint-cap(kMaxPending): admission rejects beyond the cap
    std::deque<int> pending_; // ok: documented cap

    std::vector<int> finished_; // ok: drainFinished() clears it

    std::vector<int> staging_; // ok: swapped away in retire()

    // simlint-allow(unbounded-container): test-only registry
    std::vector<int> debugLog_; // ok: explicit allow

    std::string name_; // ok: std::string is not a container here

    std::vector<int> archive_; // ok: swap() is called on it
};

// Positive control: an untagged class is exempt even with a
// growable member.
class ShortLived
{
  private:
    std::vector<int> scratch_;
};

#endif
