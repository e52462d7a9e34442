// CancelToken contract: a monotonic, thread-safe "stop now" flag whose
// first reason wins; cancelled() never reads the clock, poll() evaluates
// the deadline itself (no watchdog thread), and a cancel fired on another
// thread is seen by the run's thread.
#include "support/cancel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace pp::support {
namespace {

TEST(CancelToken, FreshTokenIsNotCancelled) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.poll());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken t;
  t.cancel();
  t.expire();  // ignored: the token already fired as kCancel
  t.cancel(CancelReason::kDeadline);
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.poll());
  EXPECT_EQ(t.reason(), CancelReason::kCancel);

  CancelToken d;
  d.expire();
  d.cancel();
  EXPECT_EQ(d.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, ExpiredDeadlineFiresAtPollNotAtProbe) {
  CancelToken t;
  t.set_deadline_in_ms(0);  // already due
  // The cheap probe does not read the clock, so it cannot see the
  // deadline until a checkpoint polls.
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(t.poll());
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kDeadline);
}

TEST(CancelToken, DistantDeadlineDoesNotFire) {
  CancelToken t;
  t.set_deadline_in_ms(3'600'000);  // one hour
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(t.poll());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
  // An explicit cancel still fires before the deadline does.
  t.cancel();
  EXPECT_TRUE(t.poll());
  EXPECT_EQ(t.reason(), CancelReason::kCancel);
}

TEST(CancelToken, CancelFromAnotherThreadIsSeenByPoll) {
  CancelToken t;
  std::thread other([&t] { t.cancel(); });
  // The polling side spins until the other thread's cancel lands; the
  // token never un-fires, so one observation suffices.
  while (!t.poll()) std::this_thread::yield();
  other.join();
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kCancel);
}

TEST(CancelToken, ReasonNamesArePrinted) {
  // Reports print these names ("job cancelled (deadline)").
  EXPECT_STREQ(cancel_reason_name(CancelReason::kNone), "none");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kCancel), "cancel");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kDeadline), "deadline");
  CancelToken t;
  t.expire();
  EXPECT_EQ(std::string(t.reason_name()), "deadline");
}

}  // namespace
}  // namespace pp::support
