// Schema-driven --key=value command-line parser for the bench, tool and
// example binaries.  Each binary hands Flags one FlagSpec row per flag it
// reads; parsing, validation, environment fallbacks and the --help text all
// come from that table, so every flag is declared exactly once.  Every
// binary must run with no arguments (the defaults are the paper's); a flag
// the table does not list, or a value its row does not admit, is rejected
// rather than silently replaced by the default.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ovp::util {

enum class FlagKind : std::uint8_t { Int, Double, String, Bool, Enum };

/// One flag a binary reads.  The string_view fields refer to string
/// literals, which outlive every Flags.
struct FlagSpec {
  /// Name without the leading "--".
  std::string_view name = {};
  FlagKind kind = FlagKind::String;
  /// One line for --help.
  std::string_view help = {};
  /// Default value as text; empty means unset (getters return 0/""/false).
  std::string def = {};
  /// Enum: the admitted values, '|'-separated.  String: the value's name
  /// in --help (default "TEXT").
  std::string_view choices = {};
  /// Int: the inclusive admitted range.
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
  /// Environment variable read when the flag is absent; empty for none.
  std::string_view env = {};
  /// Value of a bare --name.  Bool rows always take "true"; other rows
  /// without one need an explicit value.
  std::string_view bare = {};
};

/// Row builders for a binary's own flags.  Defaults are text, like
/// FlagSpec::def; `meta` names a String value in --help.
[[nodiscard]] inline FlagSpec intFlag(
    std::string_view name, std::string def, std::string_view help,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  return {name, FlagKind::Int, help, std::move(def), {}, min, max};
}
[[nodiscard]] inline FlagSpec doubleFlag(std::string_view name,
                                         std::string def,
                                         std::string_view help) {
  return {name, FlagKind::Double, help, std::move(def)};
}
[[nodiscard]] inline FlagSpec boolFlag(std::string_view name,
                                       std::string_view help,
                                       std::string def = {}) {
  return {name, FlagKind::Bool, help, std::move(def)};
}
[[nodiscard]] inline FlagSpec stringFlag(std::string_view name,
                                         std::string_view meta,
                                         std::string_view help,
                                         std::string def = {}) {
  return {name, FlagKind::String, help, std::move(def), meta};
}
[[nodiscard]] inline FlagSpec enumFlag(std::string_view name,
                                       std::string_view choices,
                                       std::string def,
                                       std::string_view help) {
  return {name, FlagKind::Enum, help, std::move(def), choices};
}

/// The row of one framework-wide --ovprof-* flag, by name.  Binaries list
/// the framework flags they read through this, so the rows live in one
/// table in flags.cpp.
[[nodiscard]] FlagSpec frameworkFlag(std::string_view name);

class Flags {
 public:
  /// `usage` heads the --help text: a "usage:" line and a short
  /// description.  The flag list below it is generated from `rows`.
  Flags(std::string usage, std::vector<FlagSpec> rows);

  /// Parses argv[1..argc).  On -h/--help prints help() to stdout and exits
  /// 0; on a rejected argument prints the reason and help() to stderr and
  /// exits 2.
  void parse(int argc, char** argv);

  /// parse()'s checks without exiting: returns why an argument or an
  /// environment fallback was rejected, or an empty string.  Rejected are
  /// positional arguments, flags no row lists, values that do not parse as
  /// the row's kind, integers outside the row's range and enum values
  /// outside its choices.
  [[nodiscard]] std::string tryParse(int argc, char** argv);
  [[nodiscard]] bool helpAsked() const { return help_; }

  /// Typed values: the command line's, else the environment's, else the
  /// row's default.  Naming a flag the table does not list aborts.
  [[nodiscard]] std::int64_t getInt(std::string_view name) const;
  [[nodiscard]] double getDouble(std::string_view name) const;
  [[nodiscard]] std::string getString(std::string_view name) const;
  [[nodiscard]] bool getBool(std::string_view name) const;
  /// Enum rows: the value's position in the row's choices.
  [[nodiscard]] int getChoice(std::string_view name) const;
  /// True when the flag came from the command line or its environment
  /// variable.
  [[nodiscard]] bool has(std::string_view name) const;

  /// The usage head followed by one generated line per row.
  [[nodiscard]] std::string help() const;

 private:
  struct Slot {
    FlagSpec spec;
    std::string value;
    bool given = false;
  };
  [[nodiscard]] const Slot& slot(std::string_view name) const;
  [[nodiscard]] Slot* find(std::string_view name);

  std::string usage_;
  std::vector<Slot> slots_;
  bool help_ = false;
};

}  // namespace ovp::util
