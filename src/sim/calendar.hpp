// EventCalendar: the simulation's pending-event set.
//
// A calendar owns a (time, seq) min-heap and a slot vector that holds the
// pending callbacks. A heap entry names its event's slot; each slot records
// the seq of the event it currently holds (0 when free), and popped or
// cancelled slots go back on a free list for the next push. Stale-slot
// rule: a heap entry whose slot holds a different seq is a tombstone and is
// skipped. Because seqs are never reused, a cancelled event's id cannot
// match the event that later reuses its slot, so a stale cancel is a no-op.
//
// The sequence numbers that break ties at equal times are assigned by the
// owner (sim::Engine) in insertion order, so the pop order is
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace flotilla::sim {

using Time = double;  // virtual seconds

inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();

using Callback = std::function<void()>;

class EventCalendar {
 public:
  using Slot = std::uint32_t;

  struct Popped {
    Time time = 0.0;
    std::uint64_t seq = 0;
    Callback callback;
  };

  // Inserts an event and returns the slot holding it; `seq` must be
  // nonzero, unique within this calendar and strictly increasing between
  // pushes at equal times (the owner's counter guarantees all three).
  Slot push(Time time, std::uint64_t seq, Callback callback) {
    Slot slot = static_cast<Slot>(slots_.size());
    if (free_.empty()) {
      slots_.push_back(Pending{seq, std::move(callback)});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = Pending{seq, std::move(callback)};
    }
    heap_.push(Entry{time, seq, slot});
    ++live_;
    return slot;
  }

  // Tombstones a pending event; returns false if (`seq`, `slot`) is
  // unknown, already fired or already cancelled.
  bool cancel(std::uint64_t seq, Slot slot) {
    if (seq == 0 || slot >= slots_.size() || slots_[slot].seq != seq) {
      return false;  // seq 0 marks a free slot, never a pending event
    }
    release(slot);
    return true;
  }

  // Virtual time of the earliest live event, or kInfiniteTime. Prunes
  // tombstones off the heap top, which is why this is genuinely
  // non-const: peeking compacts, it never changes observable state.
  Time next_time() {
    pop_cancelled();
    return heap_.empty() ? kInfiniteTime : heap_.top().time;
  }

  // Removes and returns the earliest live event; false when empty.
  bool pop(Popped* out) {
    pop_cancelled();
    if (heap_.empty()) return false;
    const Entry entry = heap_.top();
    heap_.pop();
    out->time = entry.time;
    out->seq = entry.seq;
    out->callback = std::move(slots_[entry.slot].callback);
    release(entry.slot);
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t live() const { return live_; }

 private:
  struct Pending {
    std::uint64_t seq;  // 0 while the slot is free
    Callback callback;
  };

  struct Entry {
    Time time;
    std::uint64_t seq;
    Slot slot;
    // Min-heap by (time, seq).
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // The callback dies last, once the calendar is consistent again, so a
  // capture whose destructor schedules or cancels events is safe.
  void release(Slot slot) {
    const Callback dead = std::move(slots_[slot].callback);
    slots_[slot].seq = 0;
    free_.push_back(slot);
    --live_;
  }

  void pop_cancelled() {
    while (!heap_.empty() &&
           slots_[heap_.top().slot].seq != heap_.top().seq) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Pending> slots_;
  std::vector<Slot> free_;
  std::size_t live_ = 0;
};

}  // namespace flotilla::sim
