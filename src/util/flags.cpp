#include "util/flags.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace ovp::util {

namespace {

using K = FlagKind;

/// The framework-wide --ovprof-* flags.  A binary accepts only the ones it
/// lists through frameworkFlag().
const FlagSpec kFrameworkFlags[] = {
    {.name = "ovprof-verify", .kind = K::Bool,
     .help = "attach the event-stream verifier and library-misuse checker",
     .env = "OVPROF_VERIFY"},
    {.name = "ovprof-fault", .kind = K::String,
     .help = "inject fabric faults, e.g. drop=0.05,jitter=2000,seed=7",
     .choices = "SPEC", .env = "OVPROF_FAULT"},
    {.name = "ovprof-trace", .kind = K::String,
     .help = "write a Chrome trace to FILE and a lossless CSV to FILE.csv",
     .choices = "FILE", .env = "OVPROF_TRACE", .bare = "ovprof-trace.json"},
    {.name = "ovprof-trace-capacity", .kind = K::Int,
     .help = "per-rank cap on retained trace records", .def = "524288",
     .min = 1},
    {.name = "ovprof-trace-window", .kind = K::Int,
     .help = "time-resolved overlap window in virtual ns", .def = "1000000",
     .min = 1},
    {.name = "ovprof-lint", .kind = K::Bool,
     .help = "lint the collected trace after the run; exit 1 on warnings",
     .env = "OVPROF_LINT"},
    {.name = "ovprof-lint-json", .kind = K::String,
     .help = "also write the lint findings as JSON to FILE", .choices = "FILE",
     .env = "OVPROF_LINT_JSON", .bare = "ovprof-lint.json"},
    {.name = "ovprof-check-json", .kind = K::String,
     .help = "also write the check findings as JSON to FILE",
     .choices = "FILE", .env = "OVPROF_CHECK_JSON",
     .bare = "ovprof-check.json"},
    {.name = "ovprof-model", .kind = K::String,
     .help = "save a model sample for ovprof_model to FILE",
     .choices = "FILE", .env = "OVPROF_MODEL", .bare = "ovprof-model.sample"},
    {.name = "ovprof-model-param", .kind = K::Double,
     .help = "sweep parameter of the model sample; 0 means mean bytes per "
             "transfer",
     .def = "0", .env = "OVPROF_MODEL_PARAM"},
    {.name = "ovprof-vci", .kind = K::String,
     .help = "N virtual channels per NIC; POLICY tag-hash|round-robin|"
             "per-peer|explicit",
     .choices = "N[,POLICY]", .env = "OVPROF_VCI", .bare = "2"},
    {.name = "ovprof-vci-rails", .kind = K::Int,
     .help = "physical rails per node port; channel c rides rail c mod R",
     .def = "1", .min = 1, .max = 64, .env = "OVPROF_VCI_RAILS"},
    {.name = "ovprof-workers", .kind = K::Int,
     .help = "engine worker threads; results are bit-identical to 1",
     .def = "1", .min = 1, .max = 64, .env = "OVPROF_WORKERS"},
};

[[noreturn]] void misuse(const char* what, std::string_view name) {
  std::fprintf(stderr, "flags: %s '%.*s'\n", what,
               static_cast<int>(name.size()), name.data());
  std::abort();
}

/// 1 for a true spelling, 0 for a false one, -1 otherwise.
int boolValue(std::string_view v) {
  if (v == "true" || v == "1" || v == "yes") return 1;
  if (v == "false" || v == "0" || v == "no") return 0;
  return -1;
}

int choiceIndex(const FlagSpec& s, std::string_view v) {
  int i = 0;
  for (const std::string& c : split(s.choices, '|')) {
    if (c == v) return i;
    ++i;
  }
  return -1;
}

std::string rangeText(const FlagSpec& s) {
  const bool lo = s.min != std::numeric_limits<std::int64_t>::min();
  const bool hi = s.max != std::numeric_limits<std::int64_t>::max();
  if (lo && hi) return std::to_string(s.min) + ".." + std::to_string(s.max);
  if (lo) return ">= " + std::to_string(s.min);
  if (hi) return "<= " + std::to_string(s.max);
  return "";
}

/// Why `v` is not a value of row `s`, or empty when it is.
std::string checkValue(const FlagSpec& s, std::string_view v) {
  switch (s.kind) {
    case K::Int: {
      std::int64_t x = 0;
      if (!parseInt(v, x)) return "not an integer";
      if (x < s.min || x > s.max) return "out of range " + rangeText(s);
      return "";
    }
    case K::Double: {
      double x = 0.0;
      return parseDouble(v, x) && std::isfinite(x) ? "" : "not a number";
    }
    case K::Bool:
      return boolValue(v) >= 0 ? "" : "not a boolean (true|false|yes|no|1|0)";
    case K::Enum:
      return choiceIndex(s, v) >= 0 ? ""
                                    : "want one of " + std::string(s.choices);
    case K::String:
      return "";
  }
  return "";
}

std::string metavar(const FlagSpec& s) {
  switch (s.kind) {
    case K::Int: return "N";
    case K::Double: return "X";
    case K::Bool: return "BOOL";
    case K::Enum: return std::string(s.choices);
    case K::String: return s.choices.empty() ? "TEXT" : std::string(s.choices);
  }
  return "";
}

}  // namespace

FlagSpec frameworkFlag(std::string_view name) {
  for (const FlagSpec& s : kFrameworkFlags) {
    if (s.name == name) return s;
  }
  misuse("no framework flag", name);
}

Flags::Flags(std::string usage, std::vector<FlagSpec> rows)
    : usage_(std::move(usage)) {
  for (FlagSpec& s : rows) {
    if (find(s.name) != nullptr) misuse("duplicate flag row", s.name);
    if (!s.def.empty() && !checkValue(s, s.def).empty()) {
      misuse("default outside its row", s.name);
    }
    slots_.push_back({std::move(s), {}, false});
    slots_.back().value = slots_.back().spec.def;
  }
}

Flags::Slot* Flags::find(std::string_view name) {
  for (Slot& s : slots_) {
    if (s.spec.name == name) return &s;
  }
  return nullptr;
}

const Flags::Slot& Flags::slot(std::string_view name) const {
  const Slot* s = const_cast<Flags*>(this)->find(name);
  if (s == nullptr) misuse("no flag row", name);
  return *s;
}

std::string Flags::tryParse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      help_ = true;
      continue;
    }
    if (!startsWith(arg, "--")) {
      return "unexpected argument '" + std::string(arg) + "'";
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    Slot* s = find(name);
    if (s == nullptr) return "unknown flag --" + std::string(name);
    std::string value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (s->spec.kind == K::Bool) {
      value = "true";
    } else if (!s->spec.bare.empty()) {
      value = s->spec.bare;
    } else {
      return "--" + std::string(name) + " needs a value (--" +
             std::string(name) + "=" + metavar(s->spec) + ")";
    }
    const std::string why = checkValue(s->spec, value);
    if (!why.empty()) return "--" + std::string(arg) + ": " + why;
    s->value = std::move(value);
    s->given = true;
  }
  for (Slot& s : slots_) {
    if (s.given || s.spec.env.empty()) continue;
    const char* env = std::getenv(std::string(s.spec.env).c_str());
    if (env == nullptr || env[0] == '\0') continue;
    const std::string why = checkValue(s.spec, env);
    if (!why.empty()) {
      return std::string(s.spec.env) + "=" + env + " (for --" +
             std::string(s.spec.name) + "): " + why;
    }
    s.value = env;
    s.given = true;
  }
  return "";
}

void Flags::parse(int argc, char** argv) {
  const std::string why = tryParse(argc, argv);
  if (!why.empty()) {
    std::string prog = argc > 0 ? argv[0] : "flags";
    prog = prog.substr(prog.rfind('/') + 1);
    std::fprintf(stderr, "%s: %s\n\n%s", prog.c_str(), why.c_str(),
                 help().c_str());
    std::exit(2);
  }
  if (help_) {
    std::fputs(help().c_str(), stdout);
    std::exit(0);
  }
}

std::int64_t Flags::getInt(std::string_view name) const {
  std::int64_t v = 0;
  (void)parseInt(slot(name).value, v);
  return v;
}

double Flags::getDouble(std::string_view name) const {
  double v = 0.0;
  (void)parseDouble(slot(name).value, v);
  return v;
}

std::string Flags::getString(std::string_view name) const {
  return slot(name).value;
}

bool Flags::getBool(std::string_view name) const {
  return boolValue(slot(name).value) == 1;
}

int Flags::getChoice(std::string_view name) const {
  const Slot& s = slot(name);
  return choiceIndex(s.spec, s.value);
}

bool Flags::has(std::string_view name) const { return slot(name).given; }

std::string Flags::help() const {
  // Flag names fill the first 30 columns, their word-wrapped text the rest
  // of a 79-column line.
  constexpr std::size_t kIndent = 32;
  std::string out = usage_;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += slots_.empty() ? "\nflags: none\n" : "\nflags:\n";
  for (const Slot& slot : slots_) {
    const FlagSpec& s = slot.spec;
    const bool optional = s.kind == K::Bool || !s.bare.empty();
    std::string line = "  --" + std::string(s.name) +
                       (optional ? "[=" + metavar(s) + "]" : "=" + metavar(s));
    std::vector<std::string> notes;
    const std::string range = s.kind == K::Int ? rangeText(s) : "";
    if (!range.empty()) notes.push_back(range);
    if (!s.def.empty()) notes.push_back("default " + s.def);
    if (!s.bare.empty()) notes.push_back("bare: " + std::string(s.bare));
    if (!s.env.empty()) notes.push_back("env " + std::string(s.env));
    std::string text(s.help);
    for (std::size_t n = 0; n < notes.size(); ++n) {
      text += (n == 0 ? " (" : "; ") + notes[n];
    }
    if (!notes.empty()) text += ')';
    if (line.size() + 2 > kIndent) {
      out += line + '\n';
      line.clear();
    }
    line.resize(kIndent, ' ');
    for (const std::string& word : split(text, ' ')) {
      if (line.size() > kIndent && line.size() + 1 + word.size() > 79) {
        out += line + '\n';
        line.assign(kIndent, ' ');
      } else if (line.size() > kIndent) {
        line += ' ';
      }
      line += word;
    }
    out += line + '\n';
  }
  return out;
}

}  // namespace ovp::util
