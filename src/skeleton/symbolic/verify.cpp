#include "skeleton/symbolic/verify.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "skeleton/deadlock.hpp"
#include "skeleton/match.hpp"
#include "skeleton/symbolic/instantiate.hpp"

namespace ovp::skel::sym {

namespace {

using analysis::DiagCode;
using analysis::Diagnostic;
using analysis::Severity;

// One enclosing control frame of a term: either a loop or a guard block.
struct Frame {
  const SymNode* node = nullptr;  // the Loop/If node itself
  bool is_loop = false;
  std::string lvar;
  ExprP begin, end;
  bool forward = true;
  Guard guard;
};

// One send/receive term family: an op site plus its control context.
struct Term {
  const SymNode* op = nullptr;  // the op node (shared by Sendrecv halves)
  bool is_send = false;
  bool blocking = false;        // blocking Send/Recv (not Isend/Irecv)
  bool from_sendrecv = false;
  int partner = -1;             // other half of the same Sendrecv node
  ExprP peer, tag, bytes;
  std::vector<Frame> frames;    // outermost..innermost
  std::string site;
  bool matched = false;
  std::string rule;             // lemma that consumed this term
  int match = -1;               // index of the term it was paired with
  int region = -1;              // Isend/Irecv: nonblocking post region
};

// Barrier/Fence site, for the rank-uniform-participation check.
struct CollectiveTerm {
  OpKind op = OpKind::Barrier;
  std::vector<Frame> frames;
  std::string site;
};

struct Extraction {
  std::vector<Term> terms;
  std::vector<CollectiveTerm> collectives;
  // Nonblocking post regions, walked in template order: a region starts
  // when a request is posted while no group is open and ends when the
  // last open group is retired.  A region containing a Wait is partial:
  // a rank can block on one slot before posting the rest, which the
  // post-then-waitall argument does not cover.
  std::set<std::string> open_groups;
  std::vector<bool> partial_region;
};

ExprP rewriteBlocksize(const ExprP& e, const ExprP& a, const ExprP& b) {
  if (!e) return e;
  if (e->kind == ExprKind::BlockSize && equal(e->args[0], a) &&
      equal(e->args[1], b)) {
    return floordiv(a, b);
  }
  if (e->args.empty()) return e;
  auto out = std::make_shared<Expr>(*e);
  for (ExprP& arg : out->args) arg = rewriteBlocksize(arg, a, b);
  return out;
}

/// Case-split payoff: under an enclosing guard (A % B) == 0 the block
/// distribution is uniform, so blocksize(A, B, i) is div(A, B) for every
/// index — which turns guard-protected "equal blocks" byte counts into
/// rank-free expressions the matching rules can compare.
ExprP applyDivisibility(ExprP e, const std::vector<Frame>& ctx) {
  for (const Frame& f : ctx) {
    if (f.is_loop) continue;
    for (const Cond& c : f.guard) {
      if (c.op == CmpOp::Eq && c.rhs && c.rhs->kind == ExprKind::Const &&
          c.rhs->value == 0 && c.lhs && c.lhs->kind == ExprKind::Mod) {
        e = rewriteBlocksize(e, c.lhs->args[0], c.lhs->args[1]);
      }
    }
  }
  return e;
}

void collectBody(const std::vector<SymNodeP>& body, std::vector<Frame>& ctx,
                 Extraction& out) {
  for (const SymNodeP& n : body) {
    switch (n->node) {
      case SymNodeKind::Loop: {
        Frame f;
        f.node = n.get();
        f.is_loop = true;
        f.lvar = n->lvar;
        f.begin = n->begin;
        f.end = n->end;
        f.forward = n->forward;
        ctx.push_back(std::move(f));
        collectBody(n->body, ctx, out);
        ctx.pop_back();
        break;
      }
      case SymNodeKind::If: {
        Frame f;
        f.node = n.get();
        f.guard = n->guard;
        ctx.push_back(std::move(f));
        collectBody(n->body, ctx, out);
        ctx.pop_back();
        break;
      }
      case SymNodeKind::Op: {
        switch (n->op) {
          case OpKind::Isend:
          case OpKind::Send:
          case OpKind::Irecv:
          case OpKind::Recv: {
            Term t;
            t.op = n.get();
            t.is_send = n->op == OpKind::Isend || n->op == OpKind::Send;
            t.blocking = n->op == OpKind::Send || n->op == OpKind::Recv;
            t.peer = n->peer;
            t.tag = n->tag;
            t.bytes = applyDivisibility(n->bytes, ctx);
            t.frames = ctx;
            t.site = n->site;
            if (!t.blocking) {
              if (out.open_groups.empty()) out.partial_region.push_back(false);
              out.open_groups.insert(n->req.group);
              t.region = static_cast<int>(out.partial_region.size()) - 1;
            }
            out.terms.push_back(std::move(t));
            break;
          }
          case OpKind::Wait:
            if (!out.open_groups.empty()) out.partial_region.back() = true;
            out.open_groups.erase(n->req.group);
            break;
          case OpKind::Waitall:
            out.open_groups.erase(n->req.group);
            break;
          case OpKind::Sendrecv: {
            Term s;
            s.op = n.get();
            s.is_send = true;
            s.from_sendrecv = true;
            s.peer = n->peer;
            s.tag = n->tag;
            s.bytes = n->bytes;
            s.frames = ctx;
            s.site = n->site;
            Term r;
            r.op = n.get();
            r.is_send = false;
            r.from_sendrecv = true;
            r.peer = n->src;
            r.tag = n->rtag;
            r.bytes = n->rbytes;
            r.frames = ctx;
            r.site = n->site;
            const int si = static_cast<int>(out.terms.size());
            s.partner = si + 1;
            r.partner = si;
            out.terms.push_back(std::move(s));
            out.terms.push_back(std::move(r));
            break;
          }
          case OpKind::Barrier:
          case OpKind::Fence: {
            CollectiveTerm c;
            c.op = n->op;
            c.frames = ctx;
            c.site = n->site;
            out.collectives.push_back(std::move(c));
            break;
          }
          default:
            break;  // Compute/RmaPut/RmaGet: nothing to match
        }
        break;
      }
    }
  }
}

// ---- small expression predicates --------------------------------------

bool isRankE(const ExprP& e) { return e && e->kind == ExprKind::Rank; }
bool isProcsE(const ExprP& e) { return e && e->kind == ExprKind::Procs; }
bool isConstE(const ExprP& e, std::int64_t v) {
  return e && e->kind == ExprKind::Const && e->value == v;
}
bool isVarE(const ExprP& e, const std::string& name) {
  return e && e->kind == ExprKind::Var && e->var == name;
}

bool guardRankFree(const Guard& g) {
  for (const Cond& c : g) {
    if (mentionsRank(c.lhs) || mentionsRank(c.rhs)) return false;
  }
  return true;
}

bool frameRankFree(const Frame& f) {
  if (f.is_loop) return !mentionsRank(f.begin) && !mentionsRank(f.end);
  return guardRankFree(f.guard);
}

bool sameFrame(const Frame& a, const Frame& b) {
  if (a.is_loop != b.is_loop) return false;
  if (a.is_loop) {
    return a.lvar == b.lvar && a.forward == b.forward &&
           equal(a.begin, b.begin) && equal(a.end, b.end);
  }
  if (a.guard.size() != b.guard.size()) return false;
  for (std::size_t i = 0; i < a.guard.size(); ++i) {
    if (!equal(a.guard[i], b.guard[i])) return false;
  }
  return true;
}

// The context frames not consumed by a lemma must be (a) identical on both
// sides and (b) rank-independent, so every rank runs the same families.
bool sameRankFreeOuter(const Term& a, const Term& b, std::size_t drop_a,
                       std::size_t drop_b) {
  if (a.frames.size() < drop_a || b.frames.size() < drop_b) return false;
  const std::size_t na = a.frames.size() - drop_a;
  if (na != b.frames.size() - drop_b) return false;
  for (std::size_t i = 0; i < na; ++i) {
    if (!sameFrame(a.frames[i], b.frames[i])) return false;
    if (!frameRankFree(a.frames[i])) return false;
  }
  return true;
}

/// Normalizes a peer expression into a rank shift: +1 for mod(r + D, P),
/// -1 for mod((r - D) + P, P); 0 when neither shape fits or D mentions r.
int shiftOffset(const ExprP& e, ExprP* delta) {
  if (!e || e->kind != ExprKind::Mod || !isProcsE(e->args[1])) return 0;
  const ExprP& in = e->args[0];
  if (!in || in->kind != ExprKind::Add) return 0;
  if (isRankE(in->args[0])) {
    if (mentionsRank(in->args[1])) return 0;
    *delta = in->args[1];
    return 1;
  }
  if (in->args[0]->kind == ExprKind::Sub && isRankE(in->args[0]->args[0]) &&
      isProcsE(in->args[1])) {
    if (mentionsRank(in->args[0]->args[1])) return 0;
    *delta = in->args[0]->args[1];
    return -1;
  }
  return 0;
}

/// Rebuilds `e` with every subtree structurally equal to `target` replaced
/// by `repl`.
ExprP replaceSubtree(const ExprP& e, const ExprP& target, const ExprP& repl) {
  if (!e) return e;
  if (equal(e, target)) return repl;
  if (e->args.empty()) return e;
  auto out = std::make_shared<Expr>(*e);
  for (ExprP& a : out->args) a = replaceSubtree(a, target, repl);
  return out;
}

/// Byte-count agreement across a matched edge: the receiver, sizing its
/// buffer as a function of the *source* rank (its peer expression), must
/// agree with the sender sizing by itself.  Substituting a fresh marker
/// for both reduces this to structural equality; residual rank or
/// consumed-loop-var mentions mean the check does not apply.
bool bytesCorrespond(const Term& s, const Term& r, const std::string& svar,
                     const std::string& rvar) {
  const ExprP marker = var("__peer");
  const ExprP rb = replaceSubtree(r.bytes, r.peer, marker);
  const ExprP sb = substRank(s.bytes, marker);
  if (mentionsRank(rb) || mentionsRank(sb)) return false;
  if (!svar.empty() && mentionsVar(sb, svar)) return false;
  if (!rvar.empty() && mentionsVar(rb, rvar)) return false;
  return equal(simplify(rb), simplify(sb));
}

enum class Fit : std::uint8_t { No, Matched, ByteMismatch };

// ---- lemma: shift (Sendrecv rank rotation) ----------------------------

Fit tryShift(const Term& s, const Term& r, int si, int ri,
             std::string* detail) {
  if (!s.from_sendrecv || !r.from_sendrecv) return Fit::No;
  if (s.partner != ri || r.partner != si) return Fit::No;
  ExprP ds, dr;
  const int ss = shiftOffset(s.peer, &ds);
  const int sr = shiftOffset(r.peer, &dr);
  if (ss == 0 || sr != -ss || !equal(ds, dr)) return Fit::No;
  if (!equal(s.tag, r.tag)) return Fit::No;
  for (const Frame& f : s.frames) {
    if (!frameRankFree(f)) return Fit::No;
  }
  *detail = "rotation by " + toString(ds);
  if (!equal(s.bytes, r.bytes)) return Fit::ByteMismatch;
  return Fit::Matched;
}

// ---- lemma: ring ------------------------------------------------------

Fit tryRing(const Term& s, const Term& r, std::string* detail) {
  if (s.frames.empty() || r.frames.empty()) return Fit::No;
  const Frame& fs = s.frames.back();
  const Frame& fr = r.frames.back();
  if (!fs.is_loop || !fr.is_loop || !fs.forward || !fr.forward) {
    return Fit::No;
  }
  if (!isConstE(fs.begin, 1) || !isProcsE(fs.end)) return Fit::No;
  if (!isConstE(fr.begin, 1) || !isProcsE(fr.end)) return Fit::No;
  ExprP ds, dr;
  if (shiftOffset(s.peer, &ds) != 1 || !isVarE(ds, fs.lvar)) return Fit::No;
  if (shiftOffset(r.peer, &dr) != 1 || !isVarE(dr, fr.lvar)) return Fit::No;
  if (!equal(s.tag, r.tag) || mentionsRank(s.tag) ||
      mentionsVar(s.tag, fs.lvar) || mentionsVar(r.tag, fr.lvar)) {
    return Fit::No;
  }
  if (!sameRankFreeOuter(s, r, 1, 1)) return Fit::No;
  *detail = "bijection (r, d) -> (mod((r + d), P), (P - d)) over d in [1, P)";
  if (!bytesCorrespond(s, r, fs.lvar, fr.lvar)) return Fit::ByteMismatch;
  return Fit::Matched;
}

// ---- lemma: tree ------------------------------------------------------

struct TreeSide {
  ExprP vr;    // virtual rank, mod((r - root) + P, P)
  ExprP root;
  bool parent_link = false;  // guard vr mod 2^(k+1) == 2^k, peer vr -/ 2^k
};

// peer must be mod(((vr OP step) + root), P); extracts root.
bool peelTreePeer(const ExprP& peer, const ExprP& vr, const ExprP& step,
                  ExprKind inner_op, ExprP* root) {
  if (!peer || peer->kind != ExprKind::Mod || !isProcsE(peer->args[1])) {
    return false;
  }
  const ExprP& sum = peer->args[0];
  if (!sum || sum->kind != ExprKind::Add) return false;
  const ExprP& stepped = sum->args[0];
  if (!stepped || stepped->kind != inner_op) return false;
  if (!equal(stepped->args[0], vr) || !equal(stepped->args[1], step)) {
    return false;
  }
  *root = sum->args[1];
  return true;
}

bool matchTreeSide(const Term& t, TreeSide* out) {
  if (t.frames.size() < 2) return false;
  const Frame& g = t.frames.back();
  const Frame& loop = t.frames[t.frames.size() - 2];
  if (g.is_loop || !loop.is_loop) return false;
  // Level loop: forward [0, clog2(P)) or backward clog2(P)-1 .. 0 — both
  // enumerate the same level set, which is all the lemma needs.
  const bool fwd_levels = loop.forward && isConstE(loop.begin, 0) &&
                          loop.end && loop.end->kind == ExprKind::CeilLog2 &&
                          isProcsE(loop.end->args[0]);
  const bool bwd_levels =
      !loop.forward && isConstE(loop.end, 0) && loop.begin &&
      loop.begin->kind == ExprKind::Sub &&
      loop.begin->args[0]->kind == ExprKind::CeilLog2 &&
      isProcsE(loop.begin->args[0]->args[0]) &&
      isConstE(loop.begin->args[1], 1);
  if (!fwd_levels && !bwd_levels) return false;
  const ExprP k = var(loop.lvar);
  const ExprP step = pow2(k);
  const ExprP period = pow2(add(k, cst(1)));
  if (g.guard.empty() || g.guard.size() > 2) return false;
  const Cond& c0 = g.guard[0];
  if (c0.op != CmpOp::Eq || !c0.lhs || c0.lhs->kind != ExprKind::Mod ||
      !equal(c0.lhs->args[1], period)) {
    return false;
  }
  const ExprP vr = c0.lhs->args[0];
  if (g.guard.size() == 1) {
    // Parent link: vr mod 2^(k+1) == 2^k; peer (vr - 2^k + root) mod P.
    if (!equal(c0.rhs, step)) return false;
    ExprP root;
    if (!peelTreePeer(t.peer, vr, step, ExprKind::Sub, &root)) return false;
    out->vr = vr;
    out->root = root;
    out->parent_link = true;
  } else {
    // Child link: vr mod 2^(k+1) == 0 && vr + 2^k < P; peer
    // (vr + 2^k + root) mod P.
    const Cond& c1 = g.guard[1];
    if (!isConstE(c0.rhs, 0)) return false;
    if (c1.op != CmpOp::Lt || !isProcsE(c1.rhs) || !c1.lhs ||
        c1.lhs->kind != ExprKind::Add || !equal(c1.lhs->args[0], vr) ||
        !equal(c1.lhs->args[1], step)) {
      return false;
    }
    ExprP root;
    if (!peelTreePeer(t.peer, vr, step, ExprKind::Add, &root)) return false;
    out->vr = vr;
    out->root = root;
    out->parent_link = false;
  }
  if (mentionsRank(out->root)) return false;
  // The virtual rank must be the rotation (r - root + P) mod P — a
  // bijection of the rank set, which the tree lemma requires.
  const ExprP expect =
      mod(add(sub(rnk(), out->root), procs()), procs());
  return equal(out->vr, expect);
}

Fit tryTree(const Term& s, const Term& r, std::string* detail) {
  TreeSide a, b;
  if (!matchTreeSide(s, &a) || !matchTreeSide(r, &b)) return Fit::No;
  if (a.parent_link == b.parent_link) return Fit::No;
  if (!equal(a.vr, b.vr) || !equal(a.root, b.root)) return Fit::No;
  if (!equal(s.tag, r.tag) || mentionsRank(s.tag)) return Fit::No;
  if (!sameRankFreeOuter(s, r, 2, 2)) return Fit::No;
  *detail = "binomial tree rooted at " + toString(a.root) +
            " over levels [0, clog2(P))";
  const std::string sk = s.frames[s.frames.size() - 2].lvar;
  const std::string rk = r.frames[r.frames.size() - 2].lvar;
  if (mentionsRank(s.bytes) || mentionsVar(s.bytes, sk) ||
      mentionsVar(r.bytes, rk) || !equal(s.bytes, r.bytes)) {
    return Fit::ByteMismatch;
  }
  return Fit::Matched;
}

// ---- lemma: star ------------------------------------------------------

bool isRankCond(const Cond& c, CmpOp op, const ExprP& root) {
  return isRankE(c.lhs) && c.op == op && equal(c.rhs, root);
}

// Root side: if (r == root) { for p in [0, P) { if (p != root) op(p) } }.
bool matchStarRoot(const Term& t, ExprP* root, std::string* pvar) {
  if (t.frames.size() < 3) return false;
  const Frame& fg = t.frames[t.frames.size() - 3];
  const Frame& fl = t.frames[t.frames.size() - 2];
  const Frame& fi = t.frames.back();
  if (fg.is_loop || !fl.is_loop || fi.is_loop) return false;
  if (!fl.forward || !isConstE(fl.begin, 0) || !isProcsE(fl.end)) {
    return false;
  }
  if (fg.guard.size() != 1 || fi.guard.size() != 1) return false;
  const ExprP r = fg.guard[0].rhs;
  if (mentionsRank(r)) return false;
  if (!isRankCond(fg.guard[0], CmpOp::Eq, r)) return false;
  const Cond& skip = fi.guard[0];
  if (!isVarE(skip.lhs, fl.lvar) || skip.op != CmpOp::Ne ||
      !equal(skip.rhs, r)) {
    return false;
  }
  if (!isVarE(t.peer, fl.lvar)) return false;
  *root = r;
  *pvar = fl.lvar;
  return true;
}

// Leaf side: if (r != root) op(root).
bool matchStarLeaf(const Term& t, const ExprP& root) {
  if (t.frames.empty()) return false;
  const Frame& fi = t.frames.back();
  if (fi.is_loop || fi.guard.size() != 1) return false;
  if (!isRankCond(fi.guard[0], CmpOp::Ne, root)) return false;
  return equal(t.peer, root);
}

Fit tryStar(const Term& s, const Term& r, std::string* detail) {
  ExprP root;
  std::string pvar;
  const Term* root_side = nullptr;
  const Term* leaf_side = nullptr;
  std::size_t drop_root = 3;
  if (matchStarRoot(s, &root, &pvar) && matchStarLeaf(r, root)) {
    root_side = &s;
    leaf_side = &r;
  } else if (matchStarRoot(r, &root, &pvar) && matchStarLeaf(s, root)) {
    root_side = &r;
    leaf_side = &s;
  } else {
    return Fit::No;
  }
  if (!equal(s.tag, r.tag) || mentionsRank(s.tag) ||
      mentionsVar(s.tag, pvar)) {
    return Fit::No;
  }
  if (!sameRankFreeOuter(*root_side, *leaf_side, drop_root, 1)) {
    return Fit::No;
  }
  *detail = "star rooted at " + toString(root);
  const bool root_sends = root_side->is_send;
  const Term& send = root_sends ? *root_side : *leaf_side;
  const Term& recv = root_sends ? *leaf_side : *root_side;
  if (!bytesCorrespond(send, recv, root_sends ? pvar : std::string{},
                       root_sends ? std::string{} : pvar)) {
    return Fit::ByteMismatch;
  }
  return Fit::Matched;
}

// ---- lemma: halo-dual -------------------------------------------------

struct HaloSide {
  int axis = 0;     // 0=x, 1=y, 2=z on the fac3 grid; 3=x, 4=y on fac2
  bool upper = false;  // toward +axis (peer r + stride) vs -axis
};

bool matchHaloSide(const Term& t, HaloSide* out) {
  if (t.frames.empty()) return false;
  const Frame& fi = t.frames.back();
  if (fi.is_loop || fi.guard.size() != 1) return false;
  const Cond& c = fi.guard[0];
  const ExprP px = fac3x(procs());
  const ExprP py = fac3y(procs());
  const ExprP pz = fac3z(procs());
  const ExprP qx = fac2x(procs());
  struct Axis {
    ExprP coord, extent, stride;
  };
  // Axes 0-2: the fac3 grid (MG); axes 3-4: the row-major fac2 grid
  // (LU/SP/BT), whose y coordinate r div qx needs no mod since r < P.
  const Axis axes[5] = {
      {mod(rnk(), px), px, cst(1)},
      {mod(floordiv(rnk(), px), py), py, px},
      {floordiv(rnk(), mul(px, py)), pz, mul(px, py)},
      {mod(rnk(), qx), qx, cst(1)},
      {floordiv(rnk(), qx), fac2y(procs()), qx},
  };
  for (int a = 0; a < 5; ++a) {
    if (!equal(c.lhs, axes[a].coord)) continue;
    const ExprP& stride = axes[a].stride;
    if (c.op == CmpOp::Ge && isConstE(c.rhs, 1)) {
      // Lower face: peer r - stride.
      if (t.peer && t.peer->kind == ExprKind::Sub &&
          isRankE(t.peer->args[0]) && equal(t.peer->args[1], stride)) {
        out->axis = a;
        out->upper = false;
        return true;
      }
      return false;
    }
    if (c.op == CmpOp::Le && c.rhs && c.rhs->kind == ExprKind::Sub &&
        equal(c.rhs->args[0], axes[a].extent) &&
        isConstE(c.rhs->args[1], 2)) {
      // Upper face: peer r + stride.
      if (t.peer && t.peer->kind == ExprKind::Add &&
          isRankE(t.peer->args[0]) && equal(t.peer->args[1], stride)) {
        out->axis = a;
        out->upper = true;
        return true;
      }
      return false;
    }
    return false;
  }
  return false;
}

Fit tryHalo(const Term& s, const Term& r, std::string* detail) {
  HaloSide hs, hr;
  if (!matchHaloSide(s, &hs) || !matchHaloSide(r, &hr)) return Fit::No;
  if (hs.axis != hr.axis || hs.upper == hr.upper) return Fit::No;
  if (!equal(s.tag, r.tag) || mentionsRank(s.tag)) return Fit::No;
  if (!sameRankFreeOuter(s, r, 1, 1)) return Fit::No;
  const char axis_name[5] = {'x', 'y', 'z', 'x', 'y'};
  *detail = std::string("face exchange along ") + axis_name[hs.axis] +
            " (coordinate-guard duality on the " +
            (hs.axis < 3 ? "fac3" : "fac2") + " grid)";
  if (mentionsRank(s.bytes) || mentionsRank(r.bytes) ||
      !equal(s.bytes, r.bytes)) {
    return Fit::ByteMismatch;
  }
  return Fit::Matched;
}

// ---- lemma: wavefront (deadlock only) ---------------------------------

/// True when `t` sits in a wavefront loop body: its children are only
/// compute ops and single-op guards around blocking Recv/Send, receives
/// before sends; every op is halo-dual paired with an op of the same body,
/// all on one grid, with no axis repeated among the receives or among the
/// sends (so each axis carries one receive paired with one send).  Such a
/// pipeline cannot deadlock (DESIGN.md 5.16: a wait chain strictly
/// increases a potential over the finite grid).
bool inWavefront(const std::vector<Term>& terms, const Term& t) {
  if (t.rule != "halo-dual" || t.frames.size() < 2) return false;
  const Frame& lf = t.frames[t.frames.size() - 2];
  if (!lf.is_loop) return false;
  bool seen_send = false;
  int grid = -1;
  std::set<int> recv_axes, send_axes;
  for (const SymNodeP& child : lf.node->body) {
    if (child->node == SymNodeKind::Op && child->op == OpKind::Compute) {
      continue;
    }
    if (child->node != SymNodeKind::If || child->body.size() != 1) {
      return false;
    }
    const SymNode* op = child->body.front().get();
    if (op->node != SymNodeKind::Op ||
        (op->op != OpKind::Send && op->op != OpKind::Recv)) {
      return false;
    }
    const bool is_send = op->op == OpKind::Send;
    if (seen_send && !is_send) return false;  // receives come first
    seen_send = seen_send || is_send;
    const auto it = std::find_if(terms.begin(), terms.end(),
                                 [&](const Term& x) { return x.op == op; });
    if (it == terms.end() || it->rule != "halo-dual") return false;
    const Term& partner = terms[static_cast<std::size_t>(it->match)];
    if (partner.frames.size() < 2 ||
        partner.frames[partner.frames.size() - 2].node != lf.node) {
      return false;
    }
    HaloSide side;
    if (!matchHaloSide(*it, &side)) return false;
    const int g = side.axis < 3 ? 0 : 1;
    if (grid >= 0 && grid != g) return false;
    grid = g;
    if (!(is_send ? send_axes : recv_axes).insert(side.axis).second) {
      return false;
    }
  }
  return true;
}

// ---- driver helpers ---------------------------------------------------

bool tagsPossiblyEqual(const ExprP& a, const ExprP& b) {
  if (a && b && a->kind == ExprKind::Const && b->kind == ExprKind::Const) {
    return a->value == b->value || a->value == kAnyTag ||
           b->value == kAnyTag;
  }
  return true;  // symbolic tags: cannot exclude equality
}

Diagnostic makeDiag(Severity sev, DiagCode code, const std::string& site,
                    std::string detail, std::string group) {
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.rank = -1;  // a symbolic finding speaks about every rank at once
  d.site = site;
  d.detail = std::move(detail);
  d.group = std::move(group);
  return d;
}

std::string termLabel(const Term& t) {
  std::ostringstream os;
  os << (t.is_send ? "send" : "recv") << " to/from "
     << toString(t.peer) << " tag " << toString(t.tag);
  if (!t.site.empty()) os << " @ " << t.site;
  return os.str();
}

}  // namespace

SymVerifyResult verifySymbolic(const SymSkeleton& s,
                               const SymVerifyConfig& cfg) {
  SymVerifyResult out;
  out.family = familyText(s);
  const std::string invalid = validateSym(s);
  if (!invalid.empty()) {
    out.diagnostics.push_back(makeDiag(Severity::Error,
                                       DiagCode::SymMatchUnproven, "",
                                       "invalid symbolic skeleton: " + invalid,
                                       "invalid"));
    return out;
  }

  Extraction ex;
  std::vector<Frame> ctx;
  collectBody(s.body, ctx, ex);
  for (const Term& t : ex.terms) {
    (t.is_send ? out.send_terms : out.recv_terms)++;
    if (t.blocking) out.blocking_terms++;
  }
  out.collective_terms = static_cast<std::int64_t>(ex.collectives.size());

  // ---- matching: cover every term family with a lemma ----
  bool byte_mismatch = false;
  for (int si = 0; si < static_cast<int>(ex.terms.size()); ++si) {
    Term& send = ex.terms[si];
    if (!send.is_send || send.matched) continue;
    for (int ri = 0; ri < static_cast<int>(ex.terms.size()); ++ri) {
      Term& recv = ex.terms[ri];
      if (recv.is_send || recv.matched) continue;
      std::string detail;
      const char* rule = nullptr;
      Fit fit = tryShift(send, recv, si, ri, &detail);
      if (fit != Fit::No) {
        rule = "shift";
      } else if ((fit = tryRing(send, recv, &detail)) != Fit::No) {
        rule = "ring";
      } else if ((fit = tryTree(send, recv, &detail)) != Fit::No) {
        rule = "tree";
      } else if ((fit = tryStar(send, recv, &detail)) != Fit::No) {
        rule = "star";
      } else if ((fit = tryHalo(send, recv, &detail)) != Fit::No) {
        rule = "halo-dual";
      }
      if (rule == nullptr) continue;
      send.matched = recv.matched = true;
      send.match = ri;
      recv.match = si;
      send.rule = recv.rule = rule;
      out.matched_pairs++;
      out.proof.push_back(
          SymProofStep{rule, send.site, recv.site, detail});
      if (fit == Fit::ByteMismatch) {
        byte_mismatch = true;
        out.diagnostics.push_back(makeDiag(
            Severity::Error, DiagCode::SymMatchMismatch, send.site,
            "matched by the " + std::string(rule) +
                " lemma but byte counts disagree: send " +
                toString(send.bytes) + " vs recv " + toString(recv.bytes),
            "bytes|" + send.site + "|" + recv.site));
      }
      break;
    }
  }

  bool uncovered = false;
  for (const Term& t : ex.terms) {
    if (t.matched) continue;
    uncovered = true;
    bool partner_possible = false;
    for (const Term& o : ex.terms) {
      if (o.is_send != t.is_send && tagsPossiblyEqual(t.tag, o.tag)) {
        partner_possible = true;
        break;
      }
    }
    if (partner_possible) {
      out.diagnostics.push_back(makeDiag(
          Severity::Warning, DiagCode::SymMatchUnproven, t.site,
          "no matching lemma covers " + termLabel(t),
          "unproven|" + t.site));
    } else {
      out.diagnostics.push_back(makeDiag(
          Severity::Error,
          t.is_send ? DiagCode::SymUnmatchedSend : DiagCode::SymUnmatchedRecv,
          t.site,
          "no opposite-direction family can ever match " + termLabel(t),
          "unmatched|" + t.site));
    }
  }
  out.matching_proven = !uncovered && !byte_mismatch;

  // ---- deadlock-freedom over the safe fragments ----
  bool hazard = false;
  for (const Term& t : ex.terms) {
    if (t.from_sendrecv) {
      if (t.is_send && t.rule != "shift") {
        hazard = true;
        out.diagnostics.push_back(makeDiag(
            Severity::Warning, DiagCode::SymDeadlockUnproven, t.site,
            "sendrecv outside the rank-rotation fragment: " + termLabel(t),
            "dl|" + t.site));
      }
      continue;
    }
    if (t.blocking && t.rule != "tree" && t.rule != "star" &&
        !inWavefront(ex.terms, t)) {
      hazard = true;
      out.diagnostics.push_back(makeDiag(
          Severity::Warning, DiagCode::SymDeadlockUnproven, t.site,
          "blocking op outside the tree/star/wavefront fragments: " +
              termLabel(t),
          "dl|" + t.site));
    }
    if (!t.blocking && ex.partial_region[static_cast<std::size_t>(
                           t.region)]) {
      hazard = true;
      out.diagnostics.push_back(makeDiag(
          Severity::Warning, DiagCode::SymDeadlockUnproven, t.site,
          "request retired by single waits, outside the post-region "
          "fragment: " + termLabel(t),
          "dl|" + t.site));
    }
  }
  bool divergence = false;
  for (const CollectiveTerm& c : ex.collectives) {
    bool uniform = true;
    for (const Frame& f : c.frames) uniform = uniform && frameRankFree(f);
    if (!uniform) {
      divergence = true;
      out.diagnostics.push_back(makeDiag(
          Severity::Error, DiagCode::SymBarrierDivergence, c.site,
          std::string(c.op == OpKind::Barrier ? "barrier" : "fence") +
              " under a rank-dependent guard: participation diverges "
              "across ranks",
          "coll|" + c.site));
    }
  }

  // ---- witness sweep: name the failing family when unproven ----
  if (hazard || uncovered || divergence) {
    std::vector<int> sampled, failing;
    for (int p = std::max(1, s.min_procs);
         p <= cfg.witness_max_procs &&
         static_cast<int>(sampled.size()) < cfg.witness_limit;
         ++p) {
      if (!familyAdmits(s, p, nullptr)) continue;
      sampled.push_back(p);
      const InstantiateResult inst = instantiate(s, p);
      if (!inst.ok()) continue;
      const MatchResult m = runMatch(inst.skeleton);
      const DeadlockResult d = runDeadlock(inst.skeleton, m);
      if (d.cycles > 0) failing.push_back(p);
    }
    if (!failing.empty()) {
      std::ostringstream fam;
      if (failing.size() == sampled.size()) {
        fam << "every admissible rank count sampled (" << failing.size()
            << " of " << sampled.size() << " in [" << sampled.front() << ", "
            << sampled.back() << "])";
      } else {
        fam << "P in {";
        for (std::size_t i = 0; i < failing.size(); ++i) {
          if (i > 0) fam << ", ";
          fam << failing[i];
        }
        fam << "} (" << failing.size() << " of " << sampled.size()
            << " sampled admissible counts)";
      }
      out.diagnostics.push_back(makeDiag(
          Severity::Error, DiagCode::SymDeadlockCycle, "",
          "concrete blocking cycle confirmed for " + fam.str(), "cycle"));
    }
  }
  out.deadlock_proven =
      out.matching_proven && !hazard && !divergence &&
      std::none_of(out.diagnostics.begin(), out.diagnostics.end(),
                   [](const Diagnostic& d) {
                     return d.code == DiagCode::SymDeadlockCycle;
                   });

  out.diagnostics = analysis::dedupDiagnostics(std::move(out.diagnostics));
  return out;
}

void printSymVerifyText(const SymVerifyResult& r, std::ostream& os) {
  os << "symbolic family: " << r.family << "\n";
  os << "terms: " << r.send_terms << " send + " << r.recv_terms
     << " recv families, " << r.matched_pairs << " pairs proven, "
     << r.blocking_terms << " blocking, " << r.collective_terms
     << " collective sites\n";
  for (const SymProofStep& p : r.proof) {
    os << "  proved [" << p.rule << "] " << p.send_site << " -> "
       << p.recv_site << ": " << p.detail << "\n";
  }
  for (const analysis::Diagnostic& d : r.diagnostics) {
    os << d.toString() << "\n";
  }
  os << "matching: " << (r.matching_proven ? "PROVEN" : "NOT PROVEN")
     << " for all " << r.family << "\n";
  os << "deadlock-freedom: "
     << (r.deadlock_proven ? "PROVEN" : "NOT PROVEN") << " for all "
     << r.family << "\n";
}

}  // namespace ovp::skel::sym
