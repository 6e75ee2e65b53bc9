#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace flotilla::util {
namespace {

CliParser make_parser() {
  CliParser cli("test tool");
  cli.option("nodes", "16", "pilot size")
      .option("backend", "flux", "backend name")
      .option("rate", "1.5", "a rate")
      .flag("verbose", "chatty output");
  return cli;
}

bool parse(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int("nodes"), 16);
  EXPECT_EQ(cli.get("backend"), "flux");
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(CliParser, SpaceAndEqualsSyntaxBothWork) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "64", "--backend=dragon"}));
  EXPECT_EQ(cli.get_int("nodes"), 64);
  EXPECT_EQ(cli.get("backend"), "dragon");
}

TEST(CliParser, FlagsAndPositionals) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--verbose", "input.csv", "more"}));
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(CliParser, HelpReturnsFalse) {
  auto cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
  EXPECT_NE(cli.usage().find("--nodes"), std::string::npos);
}

TEST(CliParser, UnknownOptionThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--nodez", "4"}), Error);
}

TEST(CliParser, MissingValueThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--nodes"}), Error);
}

TEST(CliParser, FlagWithValueThrows) {
  auto cli = make_parser();
  EXPECT_THROW(parse(cli, {"--verbose=yes"}), Error);
}

TEST(CliParser, TypeErrorsThrow) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "abc"}));
  EXPECT_THROW(cli.get_int("nodes"), Error);
  EXPECT_THROW(cli.get("undeclared"), Error);
  EXPECT_THROW(cli.get_flag("nodes"), Error);  // not a flag
}

// The message of the util::Error `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CliParser, EmptyNumericValueIsRejected) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes=", "--rate="}));
  EXPECT_THROW(cli.get_int("nodes"), Error);
  EXPECT_THROW(cli.get_double("rate"), Error);
}

TEST(CliParser, IntInRangeAcceptsItsBounds) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "1"}));
  EXPECT_EQ(cli.get_int_in("nodes", 1), 1);
  auto top = make_parser();
  ASSERT_TRUE(parse(top, {"--nodes", "2147483647"}));
  EXPECT_EQ(top.get_int_in("nodes", 0), 2147483647);
  EXPECT_EQ(make_parser().get_int_in("nodes", 0, 16), 16);  // the fallback
}

TEST(CliParser, IntInRangeRejectsBelowMinNamingTheOption) {
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "-5"}));
  EXPECT_EQ(error_of([&] { cli.get_int_in("nodes", 0); }),
            "option --nodes must be an integer in [0, 2147483647], got -5");
  EXPECT_EQ(cli.get_int_in("nodes", -5), -5);  // the bound itself is legal
}

TEST(CliParser, IntInRangeRejectsValuesBeyondIntBeforeNarrowing) {
  // 5000000000 would wrap to 705032704 through a bare static_cast<int>.
  for (const char* value : {"5000000000", "99999999999999999999999"}) {
    auto cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--nodes", value}));
    const auto message = error_of([&] { cli.get_int_in("nodes", 1); });
    EXPECT_NE(message.find("option --nodes "), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
  }
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "17"}));
  EXPECT_NE(error_of([&] { cli.get_int_in("nodes", 1, 16); }), "");
}

TEST(CliParser, FiniteDoubleRejectsNanInfAndBelowMin) {
  for (const char* value : {"nan", "inf", "-inf", "-0.5"}) {
    auto cli = make_parser();
    ASSERT_TRUE(parse(cli, {"--rate", value}));
    EXPECT_EQ(error_of([&] { cli.get_finite_double("rate", 0.0); }),
              std::string("option --rate must be a finite number >= 0, got ") +
                  value);
  }
  auto cli = make_parser();
  ASSERT_TRUE(parse(cli, {"--rate", "0"}));
  EXPECT_DOUBLE_EQ(cli.get_finite_double("rate", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(make_parser().get_finite_double("rate", 0.0), 1.5);
}

TEST(CliParser, DuplicateDeclarationThrows) {
  CliParser cli;
  cli.option("x", "1", "");
  EXPECT_THROW(cli.option("x", "2", ""), Error);
  EXPECT_THROW(cli.flag("x", ""), Error);
}

}  // namespace
}  // namespace flotilla::util
