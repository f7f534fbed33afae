// Tests for logsim::fault: structured Status/Result propagation, the
// failpoint registry (grammar, determinism, fire budgets) and cooperative
// cancellation tokens.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "fault/cancel.hpp"
#include "fault/failpoint.hpp"
#include "fault/status.hpp"

namespace logsim {
namespace {

// ----------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::invalid_input("x").code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(Status::transient("x").code(), ErrorCode::kTransient);
  EXPECT_EQ(Status::timeout("x").code(), ErrorCode::kTimeout);
  EXPECT_EQ(Status::cancelled("x").code(), ErrorCode::kCancelled);
  EXPECT_EQ(Status::internal("x").code(), ErrorCode::kInternal);
  EXPECT_TRUE(Status::transient("x").is_transient());
  EXPECT_FALSE(Status::invalid_input("x").is_transient());
  EXPECT_EQ(Status::internal("boom").message(), "boom");
}

TEST(Status, ContextChainRendersInnermostFirst) {
  Status st = Status::invalid_input("bad byte count");
  st.with_context("while parsing line 3").with_context("while loading 'f'");
  const std::string rendered = st.to_string();
  EXPECT_NE(rendered.find("invalid-input"), std::string::npos);
  EXPECT_NE(rendered.find("bad byte count"), std::string::npos);
  const auto parse_pos = rendered.find("while parsing");
  const auto load_pos = rendered.find("while loading");
  ASSERT_NE(parse_pos, std::string::npos);
  ASSERT_NE(load_pos, std::string::npos);
  EXPECT_LT(parse_pos, load_pos);  // innermost frame first
}

TEST(Status, ContextOnOkIsNoop) {
  Status st;
  st.with_context("should vanish");
  EXPECT_TRUE(st.context().empty());
}

TEST(Status, LineAttachment) {
  const Status st = Status::invalid_input("oops").at_line(42);
  EXPECT_EQ(st.line(), 42);
  EXPECT_NE(st.to_string().find(":42"), std::string::npos);
}

// ----------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  const Result<int> r{7};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  const Result<int> r{Status::transient("flaky")};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kTransient);
  EXPECT_EQ(r.value_or(9), 9);
}

#ifdef NDEBUG
TEST(Result, ValueOnErrorThrowsInRelease) {
  const Result<int> r{Status::internal("broken")};
  EXPECT_THROW((void)r.value(), std::logic_error);
}
#endif

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, DefaultIsInert) {
  const fault::CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
  token.cancel();  // no-op on an inert token
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, CreateArmsAndSharesState) {
  const fault::CancelToken token = fault::CancelToken::create();
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.cancelled());
  const fault::CancelToken copy = token;  // same underlying flag
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
}

// ------------------------------------------------------------- Failpoints

TEST(Failpoint, UnconfiguredRegistryIsDisarmedAndFree) {
  fault::FailpointRegistry reg;
  EXPECT_FALSE(reg.armed());
  EXPECT_TRUE(reg.evaluate("anything").ok());
  EXPECT_EQ(reg.total_fires(), 0u);
}

TEST(Failpoint, ErrSpecFiresTransientStatus) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("io.load:err").ok());
  EXPECT_TRUE(reg.armed());
  const Status st = reg.evaluate("io.load");
  EXPECT_TRUE(st.is_transient());
  EXPECT_TRUE(reg.evaluate("other.site").ok());  // unconfigured site
  EXPECT_EQ(reg.fires("io.load"), 1u);
  EXPECT_EQ(reg.evaluations("io.load"), 1u);
}

TEST(Failpoint, FireBudgetCapsFires) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("x:err#2").ok());
  EXPECT_FALSE(reg.evaluate("x").ok());
  EXPECT_FALSE(reg.evaluate("x").ok());
  EXPECT_TRUE(reg.evaluate("x").ok());  // budget exhausted
  EXPECT_EQ(reg.fires("x"), 2u);
  EXPECT_EQ(reg.evaluations("x"), 3u);
}

TEST(Failpoint, ProbabilisticFiringIsSeedDeterministic) {
  auto decisions = [](std::uint64_t seed) {
    fault::FailpointRegistry reg;
    EXPECT_TRUE(reg.configure("p:err@0.5", seed).ok());
    std::string out;
    for (int i = 0; i < 64; ++i) out += reg.evaluate("p").ok() ? '.' : 'F';
    return out;
  };
  const std::string a = decisions(7);
  EXPECT_EQ(a, decisions(7));          // same seed, same sequence
  EXPECT_NE(a, decisions(8));          // different stream
  EXPECT_NE(a.find('F'), std::string::npos);  // ~half fire
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(Failpoint, SitesHaveIndependentStreams) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("a:err@0.5,b:err@0.5", 3).ok());
  std::string sa, sb;
  // Interleaving must not couple the two sites' decision streams.
  for (int i = 0; i < 32; ++i) {
    sa += reg.evaluate("a").ok() ? '.' : 'F';
    sb += reg.evaluate("b").ok() ? '.' : 'F';
  }
  fault::FailpointRegistry serial;
  ASSERT_TRUE(serial.configure("a:err@0.5,b:err@0.5", 3).ok());
  std::string sa2;
  for (int i = 0; i < 32; ++i) sa2 += serial.evaluate("a").ok() ? '.' : 'F';
  EXPECT_EQ(sa, sa2);
}

TEST(Failpoint, DelaySpecParsesDurations) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("d:delay@1ms").ok());
  EXPECT_TRUE(reg.evaluate("d").ok());  // a delay is not an error
  EXPECT_EQ(reg.fires("d"), 1u);
  ASSERT_TRUE(reg.configure("d:delay@200us").ok());
  ASSERT_TRUE(reg.configure("d:delay@0.001s").ok());
}

TEST(Failpoint, AllocSpecThrowsBadAlloc) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("a:alloc").ok());
  EXPECT_THROW((void)reg.evaluate("a"), std::bad_alloc);
}

TEST(Failpoint, BadSpecsRejectedAndLeaveRegistryUnchanged) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("good:err").ok());
  EXPECT_FALSE(reg.configure("noaction").ok());
  EXPECT_FALSE(reg.configure("x:frob").ok());
  EXPECT_FALSE(reg.configure("x:err@1.5").ok());    // p > 1
  EXPECT_FALSE(reg.configure("x:delay@5").ok());    // missing unit
  EXPECT_FALSE(reg.configure("x:delay").ok());      // delay needs @dur
  EXPECT_FALSE(reg.configure(":err").ok());         // empty site
  // The failed configures left the old site armed.
  EXPECT_TRUE(reg.armed());
  EXPECT_FALSE(reg.evaluate("good").ok());
}

TEST(Failpoint, ClearDisarms) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("x:err").ok());
  reg.clear();
  EXPECT_FALSE(reg.armed());
  EXPECT_TRUE(reg.evaluate("x").ok());
  EXPECT_EQ(reg.total_fires(), 0u);
}

TEST(Failpoint, SitesAreListed) {
  fault::FailpointRegistry reg;
  ASSERT_TRUE(reg.configure("b.two:err,a.one:delay@1us").ok());
  const auto sites = reg.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], "a.one");  // sorted
  EXPECT_EQ(sites[1], "b.two");
}

}  // namespace
}  // namespace logsim
