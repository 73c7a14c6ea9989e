#include "skeleton/symbolic/ir.hpp"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace ovp::skel::sym {

SymNodeP makeOpNode() {
  auto n = std::make_unique<SymNode>();
  n->node = SymNodeKind::Op;
  return n;
}

SymNodeP makeLoopNode(std::string lvar, ExprP begin, ExprP end, bool forward) {
  auto n = std::make_unique<SymNode>();
  n->node = SymNodeKind::Loop;
  n->lvar = std::move(lvar);
  n->begin = std::move(begin);
  n->end = std::move(end);
  n->forward = forward;
  return n;
}

SymNodeP makeIfNode(Guard guard) {
  auto n = std::make_unique<SymNode>();
  n->node = SymNodeKind::If;
  n->guard = std::move(guard);
  return n;
}

SymNode cloneNode(const SymNode& n) {
  SymNode c;
  c.node = n.node;
  c.op = n.op;
  c.peer = n.peer;
  c.tag = n.tag;
  c.bytes = n.bytes;
  c.flops = n.flops;
  c.src = n.src;
  c.rtag = n.rtag;
  c.rbytes = n.rbytes;
  c.nb = n.nb;
  c.req = n.req;
  c.site = n.site;
  c.lvar = n.lvar;
  c.begin = n.begin;
  c.end = n.end;
  c.forward = n.forward;
  c.guard = n.guard;
  c.body.reserve(n.body.size());
  for (const SymNodeP& child : n.body) {
    c.body.push_back(std::make_unique<SymNode>(cloneNode(*child)));
  }
  return c;
}

namespace {

std::int64_t countNodes(const std::vector<SymNodeP>& body) {
  std::int64_t n = 0;
  for (const SymNodeP& node : body) {
    n += 1 + countNodes(node->body);
  }
  return n;
}

}  // namespace

std::int64_t SymSkeleton::totalNodes() const { return countNodes(body); }

namespace {

void printOp(const SymNode& n, std::string& out) {
  const auto expr = [&](const ExprP& e) {
    out += ' ';
    out += toString(e);
  };
  const auto slot = [&] {
    if (!n.req.named()) return;
    out += " req ";
    out += n.req.group;
    out += '[';
    out += toString(n.req.index);
    out += ']';
  };
  out += opKindName(n.op);
  switch (n.op) {
    case OpKind::Compute:
      out += " flops";
      expr(n.flops);
      break;
    case OpKind::Isend:
    case OpKind::Send:
      out += " dst";
      expr(n.peer);
      out += " tag";
      expr(n.tag);
      out += " bytes";
      expr(n.bytes);
      slot();
      break;
    case OpKind::Irecv:
    case OpKind::Recv:
      out += " src";
      expr(n.peer);
      out += " tag";
      expr(n.tag);
      out += " bytes";
      expr(n.bytes);
      slot();
      break;
    case OpKind::Waitall:
      if (n.req.named()) {
        out += " group ";
        out += n.req.group;
      }
      break;
    case OpKind::Sendrecv:
      out += " dst";
      expr(n.peer);
      out += " stag";
      expr(n.tag);
      out += " sbytes";
      expr(n.bytes);
      out += " src";
      expr(n.src);
      out += " rtag";
      expr(n.rtag);
      out += " rbytes";
      expr(n.rbytes);
      break;
    case OpKind::Barrier:
      break;
    case OpKind::RmaPut:
    case OpKind::RmaGet:
      out += " dst";
      expr(n.peer);
      out += " bytes";
      expr(n.bytes);
      out += " nb ";
      out += n.nb ? '1' : '0';
      break;
    case OpKind::Fence:
      out += " target";
      expr(n.peer);
      break;
    case OpKind::Wait:
      slot();
      break;
  }
  if (!n.site.empty()) {
    out += " @ ";
    out += n.site;
  }
  out += '\n';
}

void printBody(const std::vector<SymNodeP>& body, int depth,
               std::string& out) {
  for (const SymNodeP& node : body) {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    switch (node->node) {
      case SymNodeKind::Op:
        printOp(*node, out);
        break;
      case SymNodeKind::Loop:
        out += node->forward ? "loop " : "rloop ";
        out += node->lvar;
        out += ' ';
        out += toString(node->begin);
        out += ' ';
        out += toString(node->end);
        out += '\n';
        printBody(node->body, depth + 1, out);
        break;
      case SymNodeKind::If:
        out += "if ";
        out += toString(node->guard);
        out += '\n';
        printBody(node->body, depth + 1, out);
        break;
    }
  }
}

}  // namespace

std::string symSkeletonToString(const SymSkeleton& s) {
  std::string out = "# ovprof-symskel-template-v1\n";
  out += "skeleton ";
  out += s.name;
  char buf[64];
  std::snprintf(buf, sizeof buf, " ns-per-flop %g", s.ns_per_flop);
  out += buf;
  out += "\nmin-procs ";
  out += std::to_string(s.min_procs);
  out += "\nfamily ";
  out += toString(s.family);
  out += '\n';
  printBody(s.body, 0, out);
  out += "end\n";
  return out;
}

namespace {

bool varsBound(const ExprP& e, const std::set<std::string>& bound) {
  if (e == nullptr) return true;
  if (e->kind == ExprKind::Var && bound.find(e->var) == bound.end()) {
    return false;
  }
  if (e->kind == ExprKind::Sum) {
    std::set<std::string> inner = bound;
    inner.insert(e->var);
    return varsBound(e->args[0], bound) && varsBound(e->args[1], bound) &&
           varsBound(e->args[2], inner);
  }
  for (const ExprP& a : e->args) {
    if (!varsBound(a, bound)) return false;
  }
  return true;
}

// Named-request bookkeeping in template (emission) order.  Structural
// only: guards and loop trip counts are not evaluated, instantiate()
// checks the concrete slot discipline at each P.
struct ReqScope {
  std::map<std::string, std::vector<ExprP>> opened;  // group -> indices
  std::set<std::string> pending;  // opened since last retired
};

std::string checkRequest(const SymNode& node, ReqScope& reqs) {
  const ReqRef& q = node.req;
  switch (node.op) {
    case OpKind::Isend:
    case OpKind::Irecv:
      if (!q.named()) return std::string();
      if (q.index == nullptr) {
        return "request group " + q.group + " opened without an index";
      }
      reqs.opened[q.group].push_back(q.index);
      reqs.pending.insert(q.group);
      return std::string();
    case OpKind::Wait: {
      if (!q.named() || q.index == nullptr) {
        return "wait must name one request slot group[index]";
      }
      const auto it = reqs.opened.find(q.group);
      if (it == reqs.opened.end()) {
        return "wait on request group " + q.group +
               ", which was never opened";
      }
      bool known = false;
      for (const ExprP& i : it->second) known = known || equal(i, q.index);
      if (!known) {
        return "wait on " + q.group + "[" + toString(q.index) +
               "], an index the group was never opened with";
      }
      reqs.pending.erase(q.group);
      return std::string();
    }
    case OpKind::Waitall:
      if (!q.named()) return std::string();
      if (reqs.opened.count(q.group) == 0) {
        return "waitall on request group " + q.group +
               ", which was never opened";
      }
      reqs.pending.erase(q.group);
      return std::string();
    default:
      if (q.named()) {
        return std::string("request name on a ") + opKindName(node.op) +
               " op";
      }
      return std::string();
  }
}

std::string checkBody(const std::vector<SymNodeP>& body,
                      std::set<std::string>& bound, ReqScope& reqs) {
  const auto need = [&](const ExprP& e, const char* what) -> std::string {
    if (e == nullptr) return std::string("missing ") + what + " expression";
    if (!varsBound(e, bound)) {
      return std::string("unbound variable in ") + what + ": " + toString(e);
    }
    return std::string();
  };
  for (const SymNodeP& node : body) {
    switch (node->node) {
      case SymNodeKind::Op: {
        std::string err;
        switch (node->op) {
          case OpKind::Compute:
            err = need(node->flops, "flops");
            break;
          case OpKind::Isend:
          case OpKind::Irecv:
          case OpKind::Send:
          case OpKind::Recv:
            err = need(node->peer, "peer");
            if (err.empty()) err = need(node->tag, "tag");
            if (err.empty()) err = need(node->bytes, "bytes");
            break;
          case OpKind::Sendrecv:
            err = need(node->peer, "dst");
            if (err.empty()) err = need(node->tag, "stag");
            if (err.empty()) err = need(node->bytes, "sbytes");
            if (err.empty()) err = need(node->src, "src");
            if (err.empty()) err = need(node->rtag, "rtag");
            if (err.empty()) err = need(node->rbytes, "rbytes");
            break;
          case OpKind::RmaPut:
          case OpKind::RmaGet:
            err = need(node->peer, "target");
            if (err.empty()) err = need(node->bytes, "bytes");
            break;
          case OpKind::Fence:
            err = need(node->peer, "target");
            break;
          case OpKind::Wait:
          case OpKind::Waitall:
          case OpKind::Barrier:
            break;
        }
        if (err.empty()) err = checkRequest(*node, reqs);
        if (err.empty() && node->req.index != nullptr) {
          err = need(node->req.index, "request index");
        }
        if (!err.empty()) return err;
        if (!node->body.empty()) return "op node must be a leaf";
        break;
      }
      case SymNodeKind::Loop: {
        if (node->lvar.empty()) return "loop without variable name";
        if (node->lvar == "r" || node->lvar == "P") {
          return "loop variable shadows builtin: " + node->lvar;
        }
        if (bound.count(node->lvar) != 0) {
          return "loop variable rebound along path: " + node->lvar;
        }
        std::string err = need(node->begin, "loop begin");
        if (err.empty()) err = need(node->end, "loop end");
        if (!err.empty()) return err;
        bound.insert(node->lvar);
        err = checkBody(node->body, bound, reqs);
        bound.erase(node->lvar);
        if (!err.empty()) return err;
        break;
      }
      case SymNodeKind::If: {
        for (const Cond& c : node->guard) {
          if (!varsBound(c.lhs, bound) || !varsBound(c.rhs, bound)) {
            return "unbound variable in guard: " + toString(c);
          }
        }
        std::string err = checkBody(node->body, bound, reqs);
        if (!err.empty()) return err;
        break;
      }
    }
  }
  return std::string();
}

}  // namespace

std::string validateSym(const SymSkeleton& s) {
  if (s.name.empty()) return "skeleton has no name";
  if (s.min_procs < 1) return "min_procs must be >= 1";
  for (const Cond& c : s.family) {
    if (mentionsRank(c.lhs) || mentionsRank(c.rhs)) {
      return "family guard must not mention the rank: " + toString(c);
    }
    std::set<std::string> none;
    if (!varsBound(c.lhs, none) || !varsBound(c.rhs, none)) {
      return "family guard must not mention loop variables: " + toString(c);
    }
  }
  std::set<std::string> bound;
  ReqScope reqs;
  std::string err = checkBody(s.body, bound, reqs);
  if (err.empty() && !reqs.pending.empty()) {
    err = "template leaves named request group " + *reqs.pending.begin() +
          " open (no later wait/waitall)";
  }
  return err;
}

}  // namespace ovp::skel::sym
