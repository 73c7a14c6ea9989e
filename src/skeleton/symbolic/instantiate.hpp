// Lowering a symbolic skeleton template to the unrolled IR at concrete P.
//
// This is how every concrete NAS skeleton is built: nas::buildNasSkeleton
// is instantiate(buildNasSymSkeleton(kernel), P), so the static checker,
// the conformance gate and the symbolic prover all read one description
// per kernel.  The instantiation gate (tests/golden/skeleton_digests.txt)
// pins the lowering to the hand-unrolled builders it replaced.  Request
// numbering, compute-cost pricing and zero-cost-drop semantics come from
// skel::RankBuilder.
#pragma once

#include <string>

#include "skeleton/ir.hpp"
#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

/// True when P satisfies min_procs and the family guard.  Returns false
/// with a non-empty *why on guard-evaluation errors too.
[[nodiscard]] bool familyAdmits(const SymSkeleton& s, int nprocs,
                                std::string* why);

/// Printable family: "P >= 1", "P >= 1 with (32 % P) == 0".
[[nodiscard]] std::string familyText(const SymSkeleton& s);

struct InstantiateResult {
  Skeleton skeleton;
  std::string error;  // non-empty on failure
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Unrolls the template for every rank at job size `nprocs`.  Fails when
/// P is outside the family, any expression fails to evaluate, or a rank
/// breaks the request discipline (waits on a slot that is not open,
/// reopens an open slot, or ends with requests open).
[[nodiscard]] InstantiateResult instantiate(const SymSkeleton& s, int nprocs);

}  // namespace ovp::skel::sym
