#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace ovp::util {

namespace {

/// The complete framework-wide flag set.  Binary-specific flags are free
/// form, but --ovprof-* is reserved: anything not listed here is a typo.
constexpr std::string_view kKnownOvprofFlags[] = {
    "ovprof-verify", "ovprof-fault",        "ovprof-trace",
    "ovprof-trace-capacity", "ovprof-trace-window",
    "ovprof-lint", "ovprof-lint-json",
    "ovprof-model", "ovprof-model-param",
    "ovprof-check-json", "ovprof-workers",
    "ovprof-vci", "ovprof-vci-rails",
};

bool knownOvprofFlag(std::string_view name) {
  for (const std::string_view known : kKnownOvprofFlags) {
    if (name == known) return true;
  }
  return false;
}

}  // namespace

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "-h") {
      values_["help"] = "true";
      continue;
    }
    if (!startsWith(arg, "--")) {
      std::fprintf(stderr, "unrecognized argument: %s\n", argv[i]);
      return false;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? arg : arg.substr(0, eq);
    if (startsWith(name, "ovprof-") && !knownOvprofFlag(name)) {
      std::fprintf(stderr,
                   "unknown --ovprof flag: --%.*s\n"
                   "known framework flags:\n%s",
                   static_cast<int>(name.size()), name.data(),
                   ovprofHelpText());
      return false;
    }
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(name)] = std::string(arg.substr(eq + 1));
    }
  }
  return true;
}

std::int64_t Flags::getInt(std::string_view name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t v = 0;
  return parseInt(it->second, v) ? v : fallback;
}

double Flags::getDouble(std::string_view name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  return parseDouble(it->second, v) ? v : fallback;
}

std::string Flags::getString(std::string_view name,
                             std::string_view fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string(fallback) : it->second;
}

bool Flags::getBool(std::string_view name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Flags::has(std::string_view name) const {
  return values_.contains(name);
}

bool verifyRequested(const Flags& flags) {
  if (flags.has("ovprof-verify")) return flags.getBool("ovprof-verify", false);
  const char* env = std::getenv("OVPROF_VERIFY");
  return env != nullptr && env[0] != '\0' && std::string_view(env) != "0";
}

std::string faultSpecRequested(const Flags& flags) {
  if (flags.has("ovprof-fault")) return flags.getString("ovprof-fault", "");
  const char* env = std::getenv("OVPROF_FAULT");
  return env != nullptr ? std::string(env) : std::string();
}

std::string traceSpecRequested(const Flags& flags) {
  if (flags.has("ovprof-trace")) {
    const std::string path = flags.getString("ovprof-trace", "");
    // A bare --ovprof-trace parses as boolean "true"; give it a real name.
    return path == "true" ? std::string("ovprof-trace.json") : path;
  }
  const char* env = std::getenv("OVPROF_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

bool lintRequested(const Flags& flags) {
  if (flags.has("ovprof-lint")) return flags.getBool("ovprof-lint", false);
  const char* env = std::getenv("OVPROF_LINT");
  return env != nullptr && env[0] != '\0' && std::string_view(env) != "0";
}

std::string lintJsonPathRequested(const Flags& flags) {
  if (flags.has("ovprof-lint-json")) {
    const std::string path = flags.getString("ovprof-lint-json", "");
    // A bare --ovprof-lint-json parses as boolean "true"; give it a name.
    return path == "true" ? std::string("ovprof-lint.json") : path;
  }
  const char* env = std::getenv("OVPROF_LINT_JSON");
  return env != nullptr ? std::string(env) : std::string();
}

std::string checkJsonPathRequested(const Flags& flags) {
  if (flags.has("ovprof-check-json")) {
    const std::string path = flags.getString("ovprof-check-json", "");
    // A bare --ovprof-check-json parses as boolean "true"; give it a name.
    return path == "true" ? std::string("ovprof-check.json") : path;
  }
  const char* env = std::getenv("OVPROF_CHECK_JSON");
  return env != nullptr ? std::string(env) : std::string();
}

std::string modelSamplePathRequested(const Flags& flags) {
  if (flags.has("ovprof-model")) {
    const std::string path = flags.getString("ovprof-model", "");
    // A bare --ovprof-model parses as boolean "true"; give it a real name.
    return path == "true" ? std::string("ovprof-model.sample") : path;
  }
  const char* env = std::getenv("OVPROF_MODEL");
  return env != nullptr ? std::string(env) : std::string();
}

double modelParamRequested(const Flags& flags) {
  if (flags.has("ovprof-model-param")) {
    return flags.getDouble("ovprof-model-param", 0.0);
  }
  const char* env = std::getenv("OVPROF_MODEL_PARAM");
  if (env == nullptr) return 0.0;
  double v = 0.0;
  return parseDouble(env, v) ? v : 0.0;
}

std::string vciSpecRequested(const Flags& flags) {
  if (flags.has("ovprof-vci")) {
    const std::string spec = flags.getString("ovprof-vci", "");
    // A bare --ovprof-vci parses as boolean "true"; mean two channels.
    return spec == "true" ? std::string("2") : spec;
  }
  const char* env = std::getenv("OVPROF_VCI");
  return env != nullptr ? std::string(env) : std::string();
}

int vciRailsRequested(const Flags& flags) {
  if (flags.has("ovprof-vci-rails")) {
    return static_cast<int>(flags.getInt("ovprof-vci-rails", 1));
  }
  const char* env = std::getenv("OVPROF_VCI_RAILS");
  if (env == nullptr) return 1;
  std::int64_t v = 0;
  return parseInt(env, v) ? static_cast<int>(v) : 1;
}

int workersRequested(const Flags& flags) {
  if (flags.has("ovprof-workers")) {
    return static_cast<int>(flags.getInt("ovprof-workers", 1));
  }
  const char* env = std::getenv("OVPROF_WORKERS");
  if (env == nullptr) return 1;
  std::int64_t v = 0;
  return parseInt(env, v) ? static_cast<int>(v) : 1;
}

bool helpRequested(const Flags& flags) {
  return flags.getBool("help", false);
}

const char* ovprofHelpText() {
  return
      "  --ovprof-verify[=0|1]        attach the analysis layer (event-stream\n"
      "                               verifier + library-misuse checker) to\n"
      "                               every rank; also: OVPROF_VERIFY=1\n"
      "  --ovprof-fault=SPEC          inject fabric faults; SPEC is e.g.\n"
      "                               drop=0.05,jitter=2000,seed=7 (a bare\n"
      "                               number means drop=N); also: OVPROF_FAULT\n"
      "  --ovprof-trace=FILE          write an always-on event trace: Chrome\n"
      "                               trace-event JSON to FILE (load in\n"
      "                               Perfetto / chrome://tracing) and a\n"
      "                               lossless CSV to FILE.csv; also:\n"
      "                               OVPROF_TRACE=FILE\n"
      "  --ovprof-trace-capacity=N    per-rank cap on retained trace records,\n"
      "                               N >= 1 (default 524288); memory grows\n"
      "                               with the records kept, and records past\n"
      "                               the cap are dropped and counted\n"
      "  --ovprof-trace-window=NS     time-resolved analysis window in\n"
      "                               virtual ns (default 1000000)\n"
      "  --ovprof-lint[=0|1]          after the run, lint the collected trace\n"
      "                               (RMA race detection, wait-for deadlock\n"
      "                               and stall analysis, overlap advice) and\n"
      "                               print ranked findings; the process exits\n"
      "                               nonzero on Warning/Error findings; also:\n"
      "                               OVPROF_LINT=1\n"
      "  --ovprof-lint-json=FILE      with --ovprof-lint, additionally write\n"
      "                               the findings as a deterministic JSON\n"
      "                               array to FILE; also: OVPROF_LINT_JSON\n"
      "  --ovprof-check-json=FILE     (ovprof_check) additionally write the\n"
      "                               static-analysis findings as a\n"
      "                               deterministic JSON array to FILE; also:\n"
      "                               OVPROF_CHECK_JSON\n"
      "  --ovprof-model=FILE          after the run, save a model sample\n"
      "                               (merged report + sweep metadata) to\n"
      "                               FILE for ovprof_model fit/predict;\n"
      "                               also: OVPROF_MODEL=FILE\n"
      "  --ovprof-model-param=X       sweep parameter recorded in the model\n"
      "                               sample (default: mean bytes per\n"
      "                               transfer); also: OVPROF_MODEL_PARAM\n"
      "  --ovprof-vci=N[,policy]      give every NIC N virtual channel\n"
      "                               interfaces with per-channel queues and\n"
      "                               a per-channel LogGP report section;\n"
      "                               policy is tag-hash (default),\n"
      "                               round-robin, per-peer or explicit;\n"
      "                               also: OVPROF_VCI=N[,policy]\n"
      "  --ovprof-vci-rails=R         physical rails per node port (channel c\n"
      "                               rides rail c mod R; default 1 keeps\n"
      "                               wire timing identical to the\n"
      "                               single-rail fabric); also:\n"
      "                               OVPROF_VCI_RAILS=R\n"
      "  --ovprof-workers=N           run the simulation engine with N worker\n"
      "                               threads (conservative parallel mode;\n"
      "                               results are bit-identical to N=1; fault\n"
      "                               injection forces N=1); also:\n"
      "                               OVPROF_WORKERS=N\n";
}

}  // namespace ovp::util
