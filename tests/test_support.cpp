// Unit tests for the support module: checks, RNG, CLI, tables, report core.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ptilu/support/check.hpp"
#include "ptilu/support/cli.hpp"
#include "ptilu/support/report.hpp"
#include "ptilu/support/rng.hpp"
#include "ptilu/support/table.hpp"

namespace ptilu {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    PTILU_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(PTILU_CHECK(2 + 2 == 4, "should not fire"));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, VertexKeyIsStateless) {
  EXPECT_EQ(vertex_key(5, 10, 3), vertex_key(5, 10, 3));
  EXPECT_NE(vertex_key(5, 10, 3), vertex_key(5, 10, 4));
  EXPECT_NE(vertex_key(5, 10, 3), vertex_key(5, 11, 3));
  EXPECT_NE(vertex_key(6, 10, 3), vertex_key(5, 10, 3));
}

TEST(Rng, VertexKeysLookUniform) {
  // No collisions over a realistic vertex range.
  std::set<std::uint64_t> seen;
  for (idx v = 0; v < 10000; ++v) seen.insert(vertex_key(42, v, 0));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=240", "--tau=1e-4", "--verbose"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 240);
  EXPECT_DOUBLE_EQ(cli.get_double("tau", 0.0), 1e-4);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_NO_THROW(cli.check_all_consumed());
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "64"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 64);
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 99), 99);
  EXPECT_EQ(cli.get_string("name", "x"), "x");
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, ParsesIntList) {
  const char* argv[] = {"prog", "--procs=16,32,64,128"};
  Cli cli(2, argv);
  const auto procs = cli.get_int_list("procs", {});
  ASSERT_EQ(procs.size(), 4u);
  EXPECT_EQ(procs[0], 16);
  EXPECT_EQ(procs[3], 128);
}

TEST(Cli, ParsesDoubleList) {
  const char* argv[] = {"prog", "--tau=1e-2,1e-4,1e-6"};
  Cli cli(2, argv);
  const auto taus = cli.get_double_list("tau", {});
  ASSERT_EQ(taus.size(), 3u);
  EXPECT_DOUBLE_EQ(taus[1], 1e-4);
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.check_all_consumed(), Error);
}

TEST(Cli, RejectsMalformedInt) {
  const char* argv[] = {"prog", "--n=12x"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), Error);
}

// Every accessor must accept both --flag=value and --flag value and
// produce the identical parse; a regression in either spelling breaks
// scripted harness invocations.
TEST(Cli, EveryAccessorParsesBothForms) {
  const char* eq_argv[] = {"prog",         "--name=abc",  "--n=42",
                           "--tau=1e-3",   "--flag=true", "--procs=4,8",
                           "--taus=1,0.5", "--backend=threads"};
  const char* sp_argv[] = {"prog",    "--name", "abc",     "--n",     "42",
                           "--tau",   "1e-3",   "--flag",  "true",    "--procs",
                           "4,8",     "--taus", "1,0.5",   "--backend", "threads"};
  const Cli eq(8, eq_argv);
  const Cli sp(15, sp_argv);
  for (const Cli* cli : {&eq, &sp}) {
    EXPECT_EQ(cli->get_string("name", ""), "abc");
    EXPECT_EQ(cli->get_int("n", 0), 42);
    EXPECT_DOUBLE_EQ(cli->get_double("tau", 0.0), 1e-3);
    EXPECT_TRUE(cli->get_bool("flag", false));
    const auto procs = cli->get_int_list("procs", {});
    ASSERT_EQ(procs.size(), 2u);
    EXPECT_EQ(procs[1], 8);
    const auto taus = cli->get_double_list("taus", {});
    ASSERT_EQ(taus.size(), 2u);
    EXPECT_DOUBLE_EQ(taus[1], 0.5);
    EXPECT_EQ(cli->get_choice("backend", "sequential", {"sequential", "threads"}),
              "threads");
    EXPECT_NO_THROW(cli->check_all_consumed());
  }
}

TEST(Cli, GetChoiceRejectsUnknownSpelling) {
  const char* argv[] = {"prog", "--backend=gpu"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_choice("backend", "sequential", {"sequential", "threads"}),
               Error);
}

TEST(Cli, HelpPrintsConsultedFlagsAndExitsZero) {
  // Both spellings: a bare --help and an explicit --help=true.
  for (const char* spelling : {"--help", "--help=true"}) {
    const char* argv[] = {"prog", spelling};
    Cli cli(2, argv);
    cli.get_int("reps", 1);
    cli.get_string("json", "");
    // Death tests match stderr; help goes to stdout, so only the exit
    // status is asserted here. help_text() content is covered below.
    EXPECT_EXIT(cli.check_all_consumed(), testing::ExitedWithCode(0), "");
  }
}

TEST(Cli, HelpTextListsOnlyQueriedFlags) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  cli.get_int("n", 0);
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_EQ(help.find("--tau"), std::string::npos);
}

TEST(Cli, UnknownBareFlagErrorOmitsImpliedTrue) {
  const char* argv[] = {"prog", "--oops"};
  Cli cli(2, argv);
  try {
    cli.check_all_consumed();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--oops"), std::string::npos);
    // The user never typed "=true"; the error must not invent it.
    EXPECT_EQ(what.find("=true"), std::string::npos);
  }
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("b").cell(10.25, 2);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_sci(0.000123, 2), "1.23e-04");
}

TEST(ReportCore, FirstArgmaxTieGoesToLowestIndex) {
  EXPECT_EQ(report::first_argmax(std::vector<double>{1.0, 3.0, 2.0, 3.0}), 1u);
  EXPECT_EQ(report::first_argmax(std::vector<double>{0.0, 0.0, 0.0}), 0u);
  EXPECT_EQ(report::first_argmax(std::vector<double>{}), 0u);
}

TEST(ReportCore, ZeroBusyImbalanceIsZero) {
  EXPECT_EQ(report::busy_imbalance(std::vector<double>{0.0, 0.0}), 0.0);
  EXPECT_EQ(report::busy_imbalance(std::vector<double>{2.0, 2.0}), 1.0);
  EXPECT_EQ(report::busy_imbalance(std::vector<double>{3.0, 1.0}), 1.5);
}

TEST(ReportCore, FnvOffsetBasisAndChaining) {
  // FNV-1a 64 reference values: "" is the offset basis itself.
  EXPECT_EQ(report::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(report::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(report::fnv1a("bc", report::fnv1a("a")), report::fnv1a("abc"));
}

TEST(ReportCore, WritersKeepPrecisionAndSeparator) {
  std::string out;
  report::append_number(out, 0.1);
  out += ' ';
  report::append_number(out, 0.1, 12);
  out += ' ';
  report::append_hex16(out, 0xabcULL);
  out += ' ';
  report::append_escaped(out, "a\"b\\c\nd\te\x01");
  out += ' ';
  report::append_real_array(out, {0.5, 2.0}, ", ");
  report::append_int_array(out, std::vector<int>{1, 2}, ",");
  EXPECT_EQ(out,
            "0.10000000000000001 0.1 0000000000000abc a\\\"b\\\\c\\nd\\te "
            "[0.5, 2][1,2]");
}

}  // namespace
}  // namespace ptilu
