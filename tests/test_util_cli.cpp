#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace antdense::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> full;
  full.push_back("prog");
  for (const char* a : argv) {
    full.push_back(a);
  }
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(Args, EqualsSyntax) {
  const Args args = parse({"--steps=128", "--rate=0.5"});
  EXPECT_EQ(args.get_int("steps", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Args, SpaceSyntax) {
  const Args args = parse({"--steps", "64"});
  EXPECT_EQ(args.get_int("steps", 0), 64);
}

TEST(Args, BareFlagIsTrue) {
  const Args args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, MissingKeysFallBack) {
  const Args args = parse({});
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_EQ(args.get_string("absent", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("absent", false));
  EXPECT_FALSE(args.has("absent"));
}

TEST(Args, PositionalArgumentsCollected) {
  const Args args = parse({"input.txt", "--k=2", "other"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "other");
}

TEST(Args, BoolRecognizedSpellings) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
}

// Any other spelling is an error, not a silent false: --quiet=TRUE or
// --tiny=ture must not run the opposite of what was asked.
TEST(Args, UnrecognizedBoolThrows) {
  for (const char* arg : {"--x=TRUE", "--x=ture", "--x=", "--x=2"}) {
    EXPECT_THROW((void)parse({arg}).get_bool("x", false),
                 std::invalid_argument)
        << arg;
  }
  try {
    parse({"--quiet=TRUE"}).get_bool("quiet", false);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "flag --quiet: expected true/1/yes/on or false/0/no/off, "
                 "got 'TRUE'");
  }
}

TEST(Args, UintParsing) {
  const Args args = parse({"--big=18446744073709551615"});
  EXPECT_EQ(args.get_uint("big", 0), ~std::uint64_t{0});
}

// Numeric values parse whole: no trailing text, no whitespace, no sign on
// an unsigned flag, no bare numeric flag, no overflow.
TEST(Args, MalformedNumericValuesThrow) {
  const struct {
    const char* arg;
    const char* key;
    char kind;  // 'u' get_uint, 'i' get_int, 'd' get_double
  } cases[] = {{"--agents=10x", "agents", 'u'}, {"--steps=3.5", "steps", 'i'},
               {"--rate=0.5x", "rate", 'd'},    {"--rate= 0.5", "rate", 'd'},
               {"--k=", "k", 'u'},              {"--threads=-1", "threads", 'u'},
               {"--threads=+1", "threads", 'u'}, {"--lazy", "lazy", 'd'},
               {"--agents", "agents", 'u'},     {"--agents", "agents", 'i'},
               {"--big=18446744073709551616", "big", 'u'}};
  for (const auto& c : cases) {
    const Args args = parse({c.arg});
    EXPECT_THROW(c.kind == 'u'   ? (void)args.get_uint(c.key, 0)
                 : c.kind == 'i' ? (void)args.get_int(c.key, 0)
                                 : (void)args.get_double(c.key, 0.0),
                 std::invalid_argument)
        << c.arg;
  }
  EXPECT_EQ(parse({"--steps=-3"}).get_int("steps", 0), -3);
  EXPECT_DOUBLE_EQ(parse({"--rate=1e-3"}).get_double("rate", 0.0), 1e-3);
}

TEST(Args, BadValueMessageNamesFlagAndValue) {
  try {
    parse({"--agents=10x"}).get_uint("agents", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "flag --agents: expected an unsigned integer, got '10x'");
  }
}

TEST(Args, UintUpperBound) {
  EXPECT_EQ(parse({"--port=65535"}).get_uint("port", 0, 65535), 65535u);
  try {
    parse({"--port=70000"}).get_uint("port", 0, 65535);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --port: expected at most 65535, got '70000'");
  }
}

// perfbench/run.py passes these spellings to the benchmark binary.
TEST(Args, PerfbenchFlagsParse) {
  const Args args = parse({"--seconds=50.0", "--seed=1", "--trace=0"});
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 10.0), 50.0);
  EXPECT_EQ(args.get_uint("seed", 0), 1u);
  EXPECT_EQ(args.get_int("trace", 1), 0);
}

TEST(Args, LaterFlagWins) {
  const Args args = parse({"--k=1", "--k=2"});
  EXPECT_EQ(args.get_int("k", 0), 2);
}

TEST(Args, UnknownListsUnrecognizedFlagsSorted) {
  const Args args = parse({"--zeta=1", "--alpha=2", "--known=3"});
  EXPECT_EQ(args.unknown({"known"}),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(args.unknown({"known", "alpha", "zeta"}).empty());
  EXPECT_TRUE(parse({}).unknown({"anything"}).empty());
}

TEST(Args, RequireKnownAcceptsExactVocabulary) {
  const Args args = parse({"--steps=10", "--seed=1"});
  EXPECT_NO_THROW(args.require_known({"steps", "seed", "unused"}));
}

TEST(Args, RequireKnownRejectsTypos) {
  const Args args = parse({"--stpes=10", "--seed=1"});
  try {
    args.require_known({"steps", "seed"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // The message names the offender and the accepted vocabulary.
    EXPECT_NE(what.find("--stpes"), std::string::npos) << what;
    EXPECT_NE(what.find("--steps"), std::string::npos) << what;
  }
}

TEST(Args, RequireKnownRejectsEverythingWhenVocabularyIsEmpty) {
  EXPECT_THROW(parse({"--x=1"}).require_known(std::vector<std::string>{}),
               std::invalid_argument);
  EXPECT_NO_THROW(parse({}).require_known(std::vector<std::string>{}));
}

TEST(Args, RequireKnownRejectsPositionalTokens) {
  // "agents=10" (missing dashes) must not silently fall back to defaults.
  const Args args = parse({"--seed=1", "agents=10"});
  try {
    args.require_known({"seed", "agents"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("agents=10"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace antdense::util
