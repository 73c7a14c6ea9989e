// Rank-symbolic skeleton IR.
//
// Where `skel::Skeleton` stores one fully unrolled op list per concrete
// rank, a `SymSkeleton` stores a single *template*: a tree of loops
// (symbolic iteration domains), guarded blocks (rank-role case splits like
// "r == root" or "cx >= 1"), and ops whose peers/tags/bytes/flops are Expr
// trees over the symbolic rank `r`, the job size `P`, and enclosing loop
// variables.  One template describes the behaviour of every rank at every
// admissible job size; `instantiate()` (instantiate.hpp) lowers it to the
// unrolled IR for a concrete P.  The NAS templates in src/nas/symbolic.cpp
// are the only description of each kernel's communication; the
// instantiation gate in tests/symbolic_test.cpp pins their lowering to the
// digests of the hand-unrolled builders they replaced.
//
// Semantics notes:
//  * Request management is implicit by default.  Unnamed Isend/Irecv nodes
//    open requests of the anonymous group; an unnamed Waitall retires every
//    anonymous request opened since the previous unnamed Waitall (in
//    emission order).  Most builders follow that post-all/wait-all
//    discipline and never name a request.
//  * Named request groups cover the rest (SP's and BT's pipelined solves
//    retire single requests while others stay open).  An Isend/Irecv may
//    carry `req = {group, index}`, opening the slot group[index]; a Wait
//    retires exactly one named slot; a Waitall naming a group retires
//    every open slot of that group, in emission order.  Named and
//    anonymous requests never retire each other.
//  * Compute nodes carry a flop-count expression; instantiation prices it
//    through the same CostModel as the concrete builders (so the
//    double-rounding behaviour matches exactly).
//  * A `family` guard over P (no `r`, no loop vars) names the admissible
//    job sizes, e.g. "(nx % P) == 0" for FT's slab distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skeleton/ir.hpp"
#include "skeleton/symbolic/expr.hpp"

namespace ovp::skel::sym {

enum class SymNodeKind : std::uint8_t {
  Op,    // one communication/compute op with symbolic fields
  Loop,  // counted loop over an affine range
  If,    // guarded block (conjunction of Cond atoms)
};

/// A named request slot `group[index]` (see the semantics notes above).
/// An empty group is the anonymous group; `index` is unused on Waitall.
struct ReqRef {
  std::string group;
  ExprP index;
  [[nodiscard]] bool named() const { return !group.empty(); }
};

struct SymNode;
using SymNodeP = std::unique_ptr<SymNode>;

struct SymNode {
  SymNodeKind node = SymNodeKind::Op;

  // -- Op payload --
  OpKind op = OpKind::Compute;
  ExprP peer;    // dst for sends/puts/gets/fence, src for recvs
  ExprP tag;     // message tag (send tag for Sendrecv)
  ExprP bytes;   // payload bytes (send bytes for Sendrecv); -1 = wildcard
  ExprP flops;   // Compute only: flop count fed through the CostModel
  ExprP src;     // Sendrecv: receive-side peer
  ExprP rtag;    // Sendrecv: receive-side tag
  ExprP rbytes;  // Sendrecv: receive-side bytes
  bool nb = false;  // RmaPut/RmaGet: non-blocking flavour
  ReqRef req;       // Isend/Irecv/Wait: slot; Waitall: group (may be empty)
  std::string site;  // source-site label, same vocabulary as skel::Op

  // -- Loop payload --
  std::string lvar;  // loop variable name (bound in body)
  ExprP begin;       // forward: first value; backward: first (largest) value
  ExprP end;         // forward: exclusive bound; backward: inclusive bound
  bool forward = true;  // forward: v = begin; v < end; ++v
                        // backward: v = begin; v >= end; --v

  // -- If payload --
  Guard guard;

  std::vector<SymNodeP> body;  // Loop / If children
};

/// A whole symbolic kernel template.
struct SymSkeleton {
  std::string name;
  double ns_per_flop = 0.5;  // CostModel used when pricing Compute nodes
  int min_procs = 1;
  /// Admissible job sizes: conjunction over P only (empty = every
  /// P >= min_procs).  Builders must keep `r` and loop vars out of it.
  Guard family;
  std::vector<SymNodeP> body;

  /// Total node count (loops/ifs/ops), mostly for reporting.
  [[nodiscard]] std::int64_t totalNodes() const;
};

// -- construction helpers (used by SymBuilder and tests) --
[[nodiscard]] SymNodeP makeOpNode();
[[nodiscard]] SymNodeP makeLoopNode(std::string lvar, ExprP begin, ExprP end,
                                    bool forward);
[[nodiscard]] SymNodeP makeIfNode(Guard guard);
[[nodiscard]] SymNode cloneNode(const SymNode& n);

/// Deterministic text rendering of the template (`# ovprof-symskel-template-v1`).
/// Used for goldens; not round-tripped (the symbolic form is built in
/// code, only cost terms are serialized for other tools).
[[nodiscard]] std::string symSkeletonToString(const SymSkeleton& s);

/// Structural sanity: loop vars unique along each path, guard/loop-bound
/// expressions only reference bound vars, family guard mentions neither
/// `r` nor loop vars, and named requests are well-formed in template
/// order: a Wait/Waitall names a group opened earlier, a Wait's index is
/// one the group was opened with, and every named group is retired after
/// it is last opened.  Empty string = OK.
[[nodiscard]] std::string validateSym(const SymSkeleton& s);

}  // namespace ovp::skel::sym
