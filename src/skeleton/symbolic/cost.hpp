// Closed-form cost extraction from a rank-symbolic skeleton.
//
// For every source site the template touches, this pass folds the
// enclosing control structure into one expression over the job size P:
// loops become bounded Sum terms, guards become Ind (0/1 indicator)
// factors, and the per-rank term is summed over r in [0, P).  The result
// is a set of closed-form cost terms —
//
//   msgs          messages initiated (isend/send/sendrecv send half,
//                 put, get)
//   bytes         payload bytes of those messages (wildcard-sized
//                 messages, bytes = -1, are counted in msgs but excluded
//                 here)
//   flops         compute flops issued
//   window_flops  flops issued while a nonblocking window is open (after
//                 an isend/irecv/nonblocking-put site and before the
//                 wait/waitall/fence/barrier that retires its request
//                 group, in template order)
//
// — each still evaluable in O(template * P) without instantiating any
// skeleton.  `ovprof-symskel-v1` is the interchange form ovprof_model
// consumes (`ovprof_model costs FILE`); expressions serialize in the
// canonical Expr grammar, so the strict parser round-trips exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "skeleton/ir.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

struct SiteCostTerms {
  std::string site;
  ExprP msgs;          // expression over P only
  ExprP bytes;
  ExprP flops;
  ExprP window_flops;
};

struct SymCostReport {
  std::string skeleton;
  double ns_per_flop = 0.5;
  int min_procs = 1;
  Guard family;
  /// Sites in first-appearance (template emission) order.
  std::vector<SiteCostTerms> sites;
};

/// Extracts the closed-form terms.  The skeleton must pass validateSym.
[[nodiscard]] SymCostReport extractCosts(const SymSkeleton& s);

/// `ovprof-symskel-v1` text form (deterministic; golden-friendly).
[[nodiscard]] std::string costsToString(const SymCostReport& r);

/// Strict parser for the v1 form: rejects missing/duplicated/reordered
/// sections, unknown keys, malformed expressions and trailing garbage.
[[nodiscard]] bool parseCosts(std::string_view text, SymCostReport* out,
                              std::string* error);

struct SiteCostValues {
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t flops = 0;
  std::int64_t window_flops = 0;
};

/// Evaluates one site's terms at a concrete job size.
[[nodiscard]] bool evalSiteCost(const SiteCostTerms& t, int nprocs,
                                SiteCostValues* out);

/// Independent cross-check: interprets the template directly (concrete
/// loops/guards per rank, same window rule) and tallies the same four
/// quantities per site.  extractCosts + evalSiteCost must agree with this
/// exactly; tests/symbolic_test.cpp holds the two together.
[[nodiscard]] bool tallyCosts(const SymSkeleton& s, int nprocs,
                              std::map<std::string, SiteCostValues>* out,
                              std::string* error);

/// Site tallies of a concrete (unrolled) skeleton under the same counting
/// rules, for anchoring the symbolic terms to instantiated output.
[[nodiscard]] std::map<std::string, SiteCostValues> tallyConcrete(
    const Skeleton& s);

}  // namespace ovp::skel::sym
