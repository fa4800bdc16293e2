// Pins the calling thread to one CPU for a scope, so whatever sizes its
// threads by the affinity mask (Fibers::carrier_count) runs on the
// calling thread alone.
#pragma once

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

namespace capsp {

/// Pins the calling thread to the first CPU of its affinity mask for the
/// object's lifetime, so a Machine::run from it has one carrier: the
/// calling thread itself.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    EXPECT_EQ(::pthread_getaffinity_np(::pthread_self(), sizeof(saved_),
                                       &saved_),
              0);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    EXPECT_EQ(::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one),
              0);
  }
  ~OneCpu() {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

}  // namespace capsp
