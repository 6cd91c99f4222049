#include <gtest/gtest.h>

#include <limits>

#include "mmx/mac/arq.hpp"
#include "mmx/mac/rate_control.hpp"

namespace mmx::mac {
namespace {

TEST(ArqSender, HappyPath) {
  ArqSender arq;
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kIdle);
  EXPECT_TRUE(arq.offer(1));
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kTransmit);
  arq.on_transmitted();
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kWaitAck);
  arq.on_ack(1);
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kIdle);
  EXPECT_EQ(arq.stats().delivered, 1u);
  EXPECT_EQ(arq.stats().transmissions, 1u);
}

TEST(ArqSender, RetriesOnTimeoutThenDelivers) {
  ArqSender arq(ArqConfig{.max_retries = 3, .timeout_s = 1e-3});
  arq.offer(7);
  arq.on_transmitted();
  arq.on_timeout();
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kTransmit);  // retry
  arq.on_transmitted();
  arq.on_ack(7);
  EXPECT_EQ(arq.stats().transmissions, 2u);
  EXPECT_EQ(arq.stats().delivered, 1u);
  EXPECT_EQ(arq.stats().gave_up, 0u);
}

TEST(ArqSender, GivesUpAfterMaxRetries) {
  ArqSender arq(ArqConfig{.max_retries = 2, .timeout_s = 1e-3});
  arq.offer(3);
  for (int attempt = 0; attempt < 3; ++attempt) {  // 1 initial + 2 retries
    EXPECT_EQ(arq.next_action(), ArqSender::Action::kTransmit);
    arq.on_transmitted();
    arq.on_timeout();
  }
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kIdle);
  EXPECT_EQ(arq.stats().gave_up, 1u);
  EXPECT_EQ(arq.stats().transmissions, 3u);
}

TEST(ArqSender, RejectsSecondOfferWhileInFlight) {
  ArqSender arq;
  EXPECT_TRUE(arq.offer(1));
  EXPECT_FALSE(arq.offer(2));
  arq.on_transmitted();
  arq.on_ack(1);
  EXPECT_TRUE(arq.offer(2));
}

TEST(ArqSender, WrongSeqAckIgnored) {
  ArqSender arq;
  arq.offer(5);
  arq.on_transmitted();
  arq.on_ack(6);  // stale ack
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kWaitAck);
  EXPECT_EQ(arq.stats().duplicate_acks, 1u);
  arq.on_ack(5);
  EXPECT_EQ(arq.stats().delivered, 1u);
}

TEST(ArqSender, SpuriousTimeoutHarmless) {
  ArqSender arq;
  arq.on_timeout();  // nothing in flight
  EXPECT_EQ(arq.next_action(), ArqSender::Action::kIdle);
  EXPECT_EQ(arq.stats().gave_up, 0u);
}

TEST(ArqSender, TransmitWithoutOfferThrows) {
  ArqSender arq;
  EXPECT_THROW(arq.on_transmitted(), std::logic_error);
}

TEST(ArqSender, BadConfigThrows) {
  EXPECT_THROW(ArqSender(ArqConfig{.max_retries = -1, .timeout_s = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(ArqSender(ArqConfig{.max_retries = 1, .timeout_s = 0.0}),
               std::invalid_argument);
  // NaN fails every check too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ArqSender(ArqConfig{.timeout_s = kNaN}), std::invalid_argument);
  EXPECT_THROW(ArqSender(ArqConfig{.backoff_factor = kNaN}), std::invalid_argument);
  EXPECT_THROW(ArqSender(ArqConfig{.max_timeout_s = kNaN}), std::invalid_argument);
}

TEST(ArqSender, DefaultConfigKeepsAFlatTimeout) {
  // backoff_factor defaults to 1.0: the retry cadence — and therefore the
  // byte-stream of every pre-existing scenario — is unchanged.
  ArqSender arq;
  EXPECT_DOUBLE_EQ(arq.current_timeout_s(), arq.config().timeout_s);
  arq.offer(1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    arq.on_transmitted();
    EXPECT_DOUBLE_EQ(arq.current_timeout_s(), arq.config().timeout_s);
    arq.on_timeout();
  }
}

TEST(ArqSender, BackoffGrowsPerAttemptAndCaps) {
  ArqSender arq(ArqConfig{.max_retries = 6, .timeout_s = 1e-3,
                          .backoff_factor = 2.0, .max_timeout_s = 5e-3});
  arq.offer(1);
  const double expected[] = {1e-3, 2e-3, 4e-3, 5e-3, 5e-3};  // capped at 5 ms
  for (const double want : expected) {
    arq.on_transmitted();
    EXPECT_DOUBLE_EQ(arq.current_timeout_s(), want);
    arq.on_timeout();
  }
}

TEST(ArqSender, BackoffResetsForTheNextPayload) {
  ArqSender arq(ArqConfig{.max_retries = 4, .timeout_s = 1e-3, .backoff_factor = 2.0});
  arq.offer(1);
  arq.on_transmitted();
  arq.on_timeout();
  arq.on_transmitted();
  EXPECT_DOUBLE_EQ(arq.current_timeout_s(), 2e-3);  // second attempt, backed off
  arq.on_ack(1);
  arq.offer(2);
  arq.on_transmitted();
  EXPECT_DOUBLE_EQ(arq.current_timeout_s(), 1e-3);  // fresh payload, fresh schedule
}

TEST(ArqSender, BadBackoffConfigThrows) {
  EXPECT_THROW(ArqSender(ArqConfig{.max_retries = 1, .timeout_s = 1e-3,
                                   .backoff_factor = 0.5}),
               std::invalid_argument);
  EXPECT_THROW(ArqSender(ArqConfig{.max_retries = 1, .timeout_s = 1e-3,
                                   .backoff_factor = 2.0, .max_timeout_s = -1.0}),
               std::invalid_argument);
}

TEST(ArqReceiver, FiltersDuplicates) {
  ArqReceiver rx;
  EXPECT_TRUE(rx.accept(1, 10));
  EXPECT_FALSE(rx.accept(1, 10));  // retransmission
  EXPECT_TRUE(rx.accept(1, 11));
  EXPECT_TRUE(rx.accept(2, 10));   // other node, same seq
}

TEST(RateController, BacksOffAfterConsecutiveFailures) {
  RateController rc(40e6);
  rc.on_failure();
  EXPECT_DOUBLE_EQ(rc.rate_bps(), 40e6);  // one failure tolerated
  rc.on_failure();
  EXPECT_DOUBLE_EQ(rc.rate_bps(), 20e6);  // multiplicative cut
}

TEST(RateController, SuccessResetsFailureCountAndRecovers) {
  RateController rc(40e6);
  rc.on_failure();
  rc.on_success();
  rc.on_failure();  // not consecutive anymore
  EXPECT_DOUBLE_EQ(rc.rate_bps(), 42e6);
}

TEST(RateController, ClampsToBounds) {
  RateController rc(2e6, RateControlConfig{.min_rate_bps = 1e6, .max_rate_bps = 4e6});
  for (int i = 0; i < 10; ++i) {
    rc.on_failure();
    rc.on_failure();
  }
  EXPECT_DOUBLE_EQ(rc.rate_bps(), 1e6);
  for (int i = 0; i < 10; ++i) rc.on_success();
  EXPECT_DOUBLE_EQ(rc.rate_bps(), 4e6);
}

TEST(RateController, NeverExceedsSwitchCap) {
  RateController rc(99e6);
  for (int i = 0; i < 100; ++i) rc.on_success();
  EXPECT_LE(rc.rate_bps(), 100e6);  // the ADRF5020 toggle cap
}

TEST(RateController, BadConfigThrows) {
  EXPECT_THROW(RateController(2e6, RateControlConfig{.min_rate_bps = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(RateController(2e6, RateControlConfig{.backoff_factor = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(RateController(200e6), std::invalid_argument);  // above max
  // NaN fails every check too.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RateController(2e6, RateControlConfig{.min_rate_bps = kNaN}),
               std::invalid_argument);
  EXPECT_THROW(RateController(2e6, RateControlConfig{.max_rate_bps = kNaN}),
               std::invalid_argument);
  EXPECT_THROW(RateController(2e6, RateControlConfig{.backoff_factor = kNaN}),
               std::invalid_argument);
  EXPECT_THROW(RateController(2e6, RateControlConfig{.recovery_step_bps = kNaN}),
               std::invalid_argument);
  EXPECT_THROW(RateController(kNaN, RateControlConfig{}), std::invalid_argument);
}

class AimdConvergence : public ::testing::TestWithParam<double> {};

TEST_P(AimdConvergence, OscillatesAroundSustainableRate) {
  // Channel sustains GetParam() bps: success below, failure above. AIMD
  // must settle near (below ~2x under) the sustainable rate.
  const double sustainable = GetParam();
  RateController rc(80e6);
  for (int i = 0; i < 500; ++i) {
    if (rc.rate_bps() <= sustainable) {
      rc.on_success();
    } else {
      rc.on_failure();
    }
  }
  EXPECT_LE(rc.rate_bps(), sustainable * 1.2);
  EXPECT_GE(rc.rate_bps(), sustainable * 0.4);
}

INSTANTIATE_TEST_SUITE_P(Rates, AimdConvergence, ::testing::Values(10e6, 25e6, 50e6, 90e6));

}  // namespace
}  // namespace mmx::mac
