// Unit tests for the util library: ring buffer, strings, stats, flags,
// tables, RNG determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace ovp::util {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.pop(), 1);
  rb.push(3);
  rb.push(4);  // wraps
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
}

TEST(RingBuffer, AtIndexesFromFront) {
  RingBuffer<int> rb(3);
  rb.push(10);
  rb.push(20);
  (void)rb.pop();
  rb.push(30);
  rb.push(40);
  EXPECT_EQ(rb.at(0), 20);
  EXPECT_EQ(rb.at(1), 30);
  EXPECT_EQ(rb.at(2), 40);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, FullPredicate) {
  RingBuffer<int> rb(1);
  EXPECT_FALSE(rb.full());
  rb.push(5);
  EXPECT_TRUE(rb.full());
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseIntAcceptsExactIntegers) {
  std::int64_t v = 0;
  EXPECT_TRUE(parseInt("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parseInt(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parseInt("12x", v));
  EXPECT_FALSE(parseInt("", v));
  EXPECT_EQ(v, -7) << "failed parse must leave output untouched";
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parseDouble("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(parseDouble("abc", v));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(humanBytes(10), "10 B");
  EXPECT_EQ(humanBytes(KiB(10)), "10 KB");
  EXPECT_EQ(humanBytes(MiB(1)), "1 MB");
  EXPECT_EQ(humanBytes(KiB(1) + 1), "1025 B");
}

TEST(Strings, HumanDuration) {
  EXPECT_EQ(humanDuration(500), "500 ns");
  EXPECT_EQ(humanDuration(usec(2)), "2.000 us");
  EXPECT_EQ(humanDuration(msec(3)), "3.000 ms");
  EXPECT_EQ(humanDuration(sec(1)), "1.000 s");
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, SamplePercentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next() != b.next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, RangeStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

/// tryParse over {"prog", args...}.
std::string parseArgs(Flags& f, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return f.tryParse(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

Flags testFlags() {
  return Flags("usage: prog [flags]\n",
               {{.name = "n", .kind = FlagKind::Int, .help = "a count",
                 .def = "3", .min = 1, .max = 10},
                {.name = "ratio", .kind = FlagKind::Double, .help = "a ratio"},
                {.name = "verbose", .kind = FlagKind::Bool, .help = "talk"},
                {.name = "name", .kind = FlagKind::String, .help = "a name"},
                {.name = "match", .kind = FlagKind::Bool, .help = "match",
                 .def = "true"},
                {.name = "class", .kind = FlagKind::Enum, .help = "a class",
                 .def = "S", .choices = "S|A|B"},
                frameworkFlag("ovprof-workers")});
}

TEST(Flags, ParsesKeyValueAndBooleans) {
  Flags f = testFlags();
  ASSERT_EQ(parseArgs(f, {"--n=5", "--ratio=0.5", "--verbose", "--name=test",
                          "--match=no", "--class=B"}),
            "");
  EXPECT_EQ(f.getInt("n"), 5);
  EXPECT_DOUBLE_EQ(f.getDouble("ratio"), 0.5);
  EXPECT_TRUE(f.getBool("verbose"));
  EXPECT_FALSE(f.getBool("match"));
  EXPECT_EQ(f.getString("name"), "test");
  EXPECT_EQ(f.getString("class"), "B");
  EXPECT_EQ(f.getChoice("class"), 2);
  EXPECT_TRUE(f.has("n"));
  EXPECT_FALSE(f.helpAsked());

  // Absent flags read their row's default; has() tells them apart.
  Flags g = testFlags();
  ASSERT_EQ(parseArgs(g, {}), "");
  EXPECT_EQ(g.getInt("n"), 3);
  EXPECT_FALSE(g.has("n"));
  EXPECT_TRUE(g.getBool("match"));
  EXPECT_FALSE(g.getBool("verbose"));
  EXPECT_EQ(g.getChoice("class"), 0);
}

TEST(Flags, RejectsPositionalArguments) {
  Flags f = testFlags();
  EXPECT_EQ(parseArgs(f, {"oops"}), "unexpected argument 'oops'");
}

TEST(Flags, RejectsUnknownKeys) {
  Flags f = testFlags();
  EXPECT_EQ(parseArgs(f, {"--nn=5"}), "unknown flag --nn");
  // A framework flag this table does not list is unknown too.
  Flags g = testFlags();
  EXPECT_EQ(parseArgs(g, {"--ovprof-trace=x.json"}),
            "unknown flag --ovprof-trace");
}

TEST(Flags, RejectsBadValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"--n=abc", "--n=abc: not an integer"},
      {"--n=11", "--n=11: out of range 1..10"},
      {"--n=0", "--n=0: out of range 1..10"},
      {"--n", "--n needs a value (--n=N)"},
      {"--ratio=x", "--ratio=x: not a number"},
      {"--ratio=nan", "--ratio=nan: not a number"},
      {"--class=Z", "--class=Z: want one of S|A|B"},
      {"--match=maybe",
       "--match=maybe: not a boolean (true|false|yes|no|1|0)"},
      {"--ovprof-workers=0", "--ovprof-workers=0: out of range 1..64"},
  };
  for (const auto& [arg, why] : cases) {
    Flags f = testFlags();
    EXPECT_EQ(parseArgs(f, {arg}), why) << arg;
  }
}

TEST(Flags, ChecksEnvironmentFallbacks) {
  ::setenv("OVPROF_WORKERS", "abc", 1);
  Flags f = testFlags();
  EXPECT_EQ(parseArgs(f, {}),
            "OVPROF_WORKERS=abc (for --ovprof-workers): not an integer");
  // A command-line value wins without reading the environment.
  Flags g = testFlags();
  EXPECT_EQ(parseArgs(g, {"--ovprof-workers=2"}), "");
  EXPECT_EQ(g.getInt("ovprof-workers"), 2);
  ::setenv("OVPROF_WORKERS", "3", 1);
  Flags h = testFlags();
  ASSERT_EQ(parseArgs(h, {}), "");
  EXPECT_EQ(h.getInt("ovprof-workers"), 3);
  EXPECT_TRUE(h.has("ovprof-workers"));
  ::unsetenv("OVPROF_WORKERS");
}

TEST(Flags, HelpRequestedAndHelpListsEveryRow) {
  Flags f = testFlags();
  ASSERT_EQ(parseArgs(f, {"-h"}), "");
  EXPECT_TRUE(f.helpAsked());
  const std::string help = f.help();
  EXPECT_EQ(help.rfind("usage: prog [flags]\n", 0), 0u);
  for (const char* row : {"--n=N", "--ratio=X", "--verbose[=BOOL]",
                          "--name=TEXT", "--match[=BOOL]", "--class=S|A|B",
                          "--ovprof-workers=N"}) {
    EXPECT_NE(help.find(row), std::string::npos) << row;
  }
  EXPECT_NE(help.find("(1..10; default 3)"), std::string::npos) << help;
  EXPECT_NE(help.find("OVPROF_WORKERS"), std::string::npos) << help;
}

Flags modelFlags() {
  return Flags("usage: prog\n", {frameworkFlag("ovprof-model"),
                                  frameworkFlag("ovprof-model-param")});
}

TEST(Flags, AcceptsModelFlagsAndRejectsTypos) {
  // The model flags are in the reserved --ovprof-* namespace and must be
  // known to the shared table; near-misses are rejected like any typo.
  Flags f = modelFlags();
  ASSERT_EQ(parseArgs(f, {"--ovprof-model=run.sample",
                          "--ovprof-model-param=4096"}),
            "");
  EXPECT_EQ(f.getString("ovprof-model"), "run.sample");
  EXPECT_DOUBLE_EQ(f.getDouble("ovprof-model-param"), 4096.0);

  Flags g = modelFlags();
  EXPECT_EQ(parseArgs(g, {"--ovprof-model-foo=1"}),
            "unknown flag --ovprof-model-foo");
}

TEST(Flags, BareModelFlagGetsDefaultFilename) {
  Flags f = modelFlags();
  ASSERT_EQ(parseArgs(f, {"--ovprof-model"}), "");
  EXPECT_EQ(f.getString("ovprof-model"), "ovprof-model.sample");
}

TEST(Flags, ModelFlagsDefaultToUnset) {
  Flags f = modelFlags();
  ASSERT_EQ(parseArgs(f, {}), "");
  // No flag and (in the test environment) no OVPROF_MODEL* env.
  if (std::getenv("OVPROF_MODEL") == nullptr) {
    EXPECT_TRUE(f.getString("ovprof-model").empty());
  }
  if (std::getenv("OVPROF_MODEL_PARAM") == nullptr) {
    EXPECT_DOUBLE_EQ(f.getDouble("ovprof-model-param"), 0.0);
  }
}

TEST(Flags, HelpTextDocumentsEveryModelFlag) {
  const std::string help = modelFlags().help();
  EXPECT_NE(help.find("--ovprof-model[=FILE]"), std::string::npos);
  EXPECT_NE(help.find("--ovprof-model-param"), std::string::npos);
  EXPECT_NE(help.find("OVPROF_MODEL"), std::string::npos);
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"a", "long_header"});
  t.addRow({"1", "2"});
  t.addRow({"333", "4"});
  EXPECT_EQ(t.rowCount(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, CsvFormat) {
  TextTable t({"x", "y"});
  t.addRow({"1", "2"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(usec(1), 1000);
  EXPECT_EQ(msec(1), 1000000);
  EXPECT_EQ(sec(1), 1000000000);
  EXPECT_DOUBLE_EQ(toUsec(1500), 1.5);
  EXPECT_EQ(KiB(10), 10240);
  EXPECT_EQ(MiB(1), 1048576);
}

}  // namespace
}  // namespace ovp::util
