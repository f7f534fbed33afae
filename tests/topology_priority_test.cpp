// Tests for the send-priority ablation switch and the HTML trace export.

#include <gtest/gtest.h>

#include <fstream>

#include "analysis/html_export.hpp"
#include "core/comm_sim.hpp"
#include "pattern/builders.hpp"

namespace logsim {
namespace {

// --- send priority ablation switch ----------------------------------------

TEST(SendPriority, FlipsTieDecision) {
  // Same tie scenario as CommSim.ReceivePriorityWinsTies, with the
  // ablation switch: now the send must win.
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1});
  pat.add(1, 0, Bytes{1});
  const std::vector<Time> ready{Time{0.0}, Time{11.0}};
  core::CommSimOptions opts;
  opts.send_priority = true;
  const auto trace =
      core::CommSimulator{loggp::presets::meiko_cs2(2), opts}.run(pat, ready);
  const auto ops1 = trace.ops_of(1);
  ASSERT_EQ(ops1.size(), 2u);
  EXPECT_EQ(ops1[0].kind, loggp::OpKind::kSend);
  const auto verdict = core::validate_trace(trace, pat, ready);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
}

TEST(SendPriority, StillValidOnFig3) {
  const auto pat = pattern::paper_fig3();
  core::CommSimOptions opts;
  opts.send_priority = true;
  const auto trace =
      core::CommSimulator{loggp::presets::meiko_cs2(10), opts}.run(pat);
  const auto verdict = core::validate_trace(trace, pat);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
}

// --- HTML export -----------------------------------------------------------

TEST(HtmlExport, ContainsLanesBoxesAndTitle) {
  const auto pat = pattern::paper_fig3();
  const auto trace =
      core::CommSimulator{loggp::presets::meiko_cs2(10)}.run(pat);
  const std::string html = analysis::trace_to_html(trace, "Fig 4 <demo>");
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Fig 4 &lt;demo&gt;"), std::string::npos);  // escaped
  EXPECT_NE(html.find(">P9<"), std::string::npos);                // lanes
  EXPECT_NE(html.find("#4878d0"), std::string::npos);             // sends
  EXPECT_NE(html.find("#ee854a"), std::string::npos);             // recvs
  EXPECT_NE(html.find("recv from P"), std::string::npos);         // tooltip
}

TEST(HtmlExport, WritesFile) {
  const auto pat = pattern::single_message(2, Bytes{112});
  const auto trace =
      core::CommSimulator{loggp::presets::meiko_cs2(2)}.run(pat);
  const std::string path = testing::TempDir() + "/logsim_trace.html";
  ASSERT_TRUE(analysis::write_trace_html(path, trace, "t"));
  std::ifstream in{path};
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  EXPECT_FALSE(
      analysis::write_trace_html("/nonexistent_xyz/a.html", trace, "t"));
}

}  // namespace
}  // namespace logsim
