// Corrupt-input corpus driven through every untrusted parser boundary:
// pattern_io, params_io and program_io.  This binary is compiled with
// NDEBUG forced (see tests/CMakeLists.txt), so a parser that still leans
// on assert() for validation would sail past the check and crash or
// corrupt memory here instead of failing the EXPECTs: every corpus entry
// must come back as a clean invalid-input Status.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "io/params_io.hpp"
#include "io/pattern_io.hpp"
#include "io/program_io.hpp"

namespace logsim {
namespace {

TEST(CorruptInput, BinaryIsBuiltWithNdebug) {
#ifndef NDEBUG
  FAIL() << "corrupt_input_test must be compiled with NDEBUG so that the "
            "corpus exercises release-build behaviour";
#endif
}

struct CorpusCase {
  const char* label;
  const char* text;
};

// ------------------------------------------------------------- pattern_io

TEST(CorruptInput, PatternCorpusYieldsStatusErrors) {
  const std::vector<CorpusCase> corpus = {
      {"empty file", ""},
      {"comment only", "# nothing here\n"},
      {"msg before procs", "msg 0 1 8\n"},
      {"procs without count", "procs\n"},
      {"procs negative", "procs -3\n"},
      {"procs zero", "procs 0\n"},
      {"procs absurd", "procs 2000000000\n"},
      {"procs trailing junk", "procs 4 extra\n"},
      {"duplicate procs", "procs 4\nprocs 4\n"},
      {"msg truncated", "procs 4\nmsg 0 1\n"},
      {"msg negative bytes", "procs 4\nmsg 0 1 -5\n"},
      {"msg src out of range", "procs 4\nmsg 9 1 8\n"},
      {"msg src negative", "procs 4\nmsg -1 1 8\n"},
      {"msg dst out of range", "procs 4\nmsg 0 4 8\n"},
      {"msg trailing junk", "procs 4\nmsg 0 1 8 7 junk\n"},
      {"msg tag out of range", "procs 4\nmsg 0 1 8 99999999999999999999\n"},
      {"msg two tags", "procs 4\nmsg 0 1 8 7 9\n"},
      {"unknown keyword", "procs 4\nfrob 1\n"},
  };
  for (const auto& c : corpus) {
    const auto r = io::parse_pattern(c.text);
    EXPECT_FALSE(r.ok()) << c.label;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput) << c.label;
    }
  }
}

TEST(CorruptInput, PatternErrorsCarryLineNumbers) {
  const auto r = io::parse_pattern("procs 4\nmsg 0 1 8\nmsg 0 9 8\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().line(), 3);
  EXPECT_NE(r.status().to_string().find(":3"), std::string::npos);
  // A tag past int64 is refused on its line, not clamped.
  const auto wide = io::parse_pattern(
      "procs 4\nmsg 0 1 8 -7  # a tag\nmsg 0 1 8 99999999999999999999\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(wide.status().line(), 3);
}

TEST(CorruptInput, PatternStrictModeRejectsSelfMessages) {
  io::PatternParseOptions strict;
  strict.allow_self_messages = false;
  const std::string text = "procs 4\nmsg 2 2 8\n";
  EXPECT_TRUE(io::parse_pattern(text).ok());  // default: representable
  const auto r = io::parse_pattern(text, strict);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("self-message"), std::string::npos);
}

TEST(CorruptInput, PatternMaxProcsGuardIsConfigurable) {
  io::PatternParseOptions tight;
  tight.max_procs = 8;
  EXPECT_TRUE(io::parse_pattern("procs 8\n", tight).ok());
  EXPECT_FALSE(io::parse_pattern("procs 9\n", tight).ok());
}

TEST(CorruptInput, MissingPatternFileIsAnError) {
  const auto r = io::load_pattern("/nonexistent/definitely-missing.pattern");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput);
}

// -------------------------------------------------------------- params_io

TEST(CorruptInput, ParamsCorpusYieldsStatusErrors) {
  const std::vector<CorpusCase> corpus = {
      {"no equals", "bogus"},
      {"unknown preset", "paragon"},
      {"empty value", "L="},
      {"malformed number", "L=abc"},
      {"trailing garbage", "L=1.5x"},
      {"nan", "L=nan"},
      {"infinity", "o=inf"},
      {"negative latency", "L=-3"},
      {"negative gap", "g=-0.5"},
      {"unknown key", "Q=1"},
      {"P zero", "P=0"},
      {"P negative", "P=-4"},
      {"P fractional", "P=2.5"},
      {"P absurd", "P=2e12"},
  };
  for (const auto& c : corpus) {
    const auto r = io::parse_params(c.text);
    EXPECT_FALSE(r.ok()) << c.label;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput) << c.label;
    }
  }
}

TEST(CorruptInput, ParamsGoodInputStillParses) {
  const auto r = io::parse_params("L=9,o=2,g=13,G=0.03,P=8");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->P, 8);
  EXPECT_DOUBLE_EQ(r->L.us(), 9.0);
}

// ------------------------------------------------------------- program_io

TEST(CorruptInput, ProgramCorpusYieldsStatusErrors) {
  const std::vector<CorpusCase> corpus = {
      {"empty file", ""},
      {"section before procs", "compute\n"},
      {"item outside compute", "item 0 0 16\n"},
      {"msg outside comm", "procs 2\nmsg 0 1 8\n"},
      {"duplicate procs", "procs 2\nprocs 2\n"},
      {"op without name", "procs 2\nop\n"},
      {"cost unknown op", "procs 2\ncost 0 16 1.0\n"},
      {"cost negative us", "procs 2\nop a\ncost 0 16 -1.0\n"},
      {"cost non-finite us", "procs 2\nop a\ncost 0 16 inf\n"},
      {"cost zero block", "procs 2\nop a\ncost 0 0 1.0\n"},
      {"item proc out of range",
       "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 5 0 16\n"},
      {"item op out of range",
       "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 0 3 16\n"},
      {"item zero block",
       "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 0 0 0\n"},
      {"comm msg out of range", "procs 2\ncomm\nmsg 0 5 8\n"},
      {"unknown keyword", "procs 2\nbogus\n"},
      {"item block above INT_MAX",
       "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 0 0 4294967300\n"},
      {"item touched id not an integer",
       "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 0 0 4 7 x 9\n"},
      {"msg tag not an integer", "procs 2\ncomm\nmsg 0 1 8 abc\n"},
      {"msg trailing token", "procs 2\ncomm\nmsg 0 1 8 5 junk\n"},
  };
  for (const auto& c : corpus) {
    const auto r = io::parse_program(c.text);
    EXPECT_FALSE(r.ok()) << c.label;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput) << c.label;
    }
  }
}

// Regression companion to CostTable.UncalibratedOpIsAnErrorNotUb: the
// parser must reject a program whose item references an op with zero cost
// points, pointing at the first offending item line.
TEST(CorruptInput, ProgramUncalibratedOpRejectedAtParseTime) {
  const auto r = io::parse_program("procs 2\nop a\ncompute\nitem 0 0 16\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(r.status().line(), 4);
  EXPECT_NE(r.status().message().find("no 'cost' calibration"),
            std::string::npos);
}

TEST(CorruptInput, ProgramGoodInputStillParses) {
  const auto r = io::parse_program(
      "procs 2\nop a\ncost 0 16 1.0\ncompute\nitem 0 0 16\ncomm\n"
      "msg 0 1 1024\n"
      "compute\nitem 1 0 16 7 9  # touched blocks 7 and 9\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->program.procs(), 2);
  EXPECT_EQ(r->costs.op_count(), 1);
  const auto& commented = std::get<core::ComputeStep>(r->program.step(2));
  ASSERT_EQ(commented.items.size(), 1u);
  const auto touched = commented.touched(0);
  EXPECT_EQ(std::vector<std::int64_t>(touched.begin(), touched.end()),
            (std::vector<std::int64_t>{7, 9}));
}

}  // namespace
}  // namespace logsim
