#include "skeleton/symbolic/cost.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

namespace ovp::skel::sym {

namespace {

// Name of the synthetic rank-sweep variable in serialized terms.  The
// builders' loop variables are plain identifiers; the leading underscore
// keeps it out of their namespace.
constexpr const char* kRankVar = "_r";

std::string siteKey(const std::string& site) {
  return site.empty() ? "-" : site;
}

bool isWildcardBytes(const ExprP& e) {
  return e && e->kind == ExprKind::Const && e->value < 0;
}

bool sendLike(OpKind op) {
  return op == OpKind::Isend || op == OpKind::Send ||
         op == OpKind::Sendrecv || op == OpKind::RmaPut ||
         op == OpKind::RmaGet;
}

// ---- window annotation -------------------------------------------------
//
// One structural pass in template (emission) order.  The state is the set
// of request groups that may hold an open request ("" is the anonymous
// group, which also carries nonblocking RMA): posts add their group, an
// unnamed waitall retires the anonymous group, a named waitall or a wait
// retires its named group, fence/barrier retire everything.  Compute nodes
// record whether the set was non-empty when visited.  A wait closes its
// group's window at that site even when a loop drains the group one slot
// per iteration (SP's staged solves), so window flops there are a lower
// bound.  Both the closed-form extraction and the cross-check interpreter
// read this map, so the two cannot disagree about what "inside a window"
// means.

void annotateWindows(const std::vector<SymNodeP>& body,
                     std::set<std::string>& open,
                     std::map<const SymNode*, bool>& in_window) {
  for (const SymNodeP& n : body) {
    if (n->node != SymNodeKind::Op) {
      annotateWindows(n->body, open, in_window);
      continue;
    }
    switch (n->op) {
      case OpKind::Isend:
      case OpKind::Irecv:
        open.insert(n->req.group);
        break;
      case OpKind::RmaPut:
      case OpKind::RmaGet:
        if (n->nb) open.insert("");
        break;
      case OpKind::Wait:
      case OpKind::Waitall:
        open.erase(n->req.group);
        break;
      case OpKind::Fence:
      case OpKind::Barrier:
        open.clear();
        break;
      case OpKind::Compute:
        in_window[n.get()] = !open.empty();
        break;
      default:
        break;
    }
  }
}

// ---- closed-form extraction --------------------------------------------

struct Acc {
  ExprP msgs, bytes, flops, window_flops;
};

void addTerm(ExprP& slot, const ExprP& e) {
  slot = slot ? add(slot, e) : e;
}

struct Extractor {
  std::vector<std::string> order;
  std::map<std::string, Acc> acc;
  std::map<const SymNode*, bool> in_window;

  Acc& at(const std::string& site) {
    const std::string key = siteKey(site);
    if (acc.find(key) == acc.end()) order.push_back(key);
    return acc[key];
  }

  // Folds the control frames between the template root and one op into
  // the op's per-instance quantity: innermost-out, guards become Ind
  // factors and loops become bounded sums (a backward loop sums the same
  // set as its forward mirror).
  static ExprP wrap(ExprP q, const std::vector<const SymNode*>& frames) {
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      const SymNode* f = *it;
      if (f->node == SymNodeKind::If) {
        for (const Cond& c : f->guard) {
          q = mul(q, ind(c.lhs, c.op, c.rhs));
        }
      } else {
        q = f->forward ? sum(f->lvar, f->begin, f->end, std::move(q))
                       : sum(f->lvar, f->end, add(f->begin, cst(1)),
                             std::move(q));
      }
    }
    return q;
  }

  void walk(const std::vector<SymNodeP>& body,
            std::vector<const SymNode*>& frames) {
    for (const SymNodeP& n : body) {
      if (n->node != SymNodeKind::Op) {
        frames.push_back(n.get());
        walk(n->body, frames);
        frames.pop_back();
        continue;
      }
      if (n->op == OpKind::Compute) {
        Acc& a = at(n->site);
        const ExprP f = wrap(n->flops, frames);
        addTerm(a.flops, f);
        if (in_window[n.get()]) addTerm(a.window_flops, f);
        continue;
      }
      if (!sendLike(n->op)) continue;
      Acc& a = at(n->site);
      addTerm(a.msgs, wrap(cst(1), frames));
      if (!isWildcardBytes(n->bytes)) {
        addTerm(a.bytes, wrap(n->bytes, frames));
      }
    }
  }
};

ExprP sweepRanks(const ExprP& per_rank) {
  if (!per_rank) return cst(0);
  if (!mentionsRank(per_rank)) {
    // Rank-independent: P identical contributions.
    return simplify(mul(procs(), per_rank));
  }
  return sum(kRankVar, cst(0), procs(),
             substRank(per_rank, var(kRankVar)));
}

// ---- serialization ------------------------------------------------------

bool cmpFromName(const std::string& s, CmpOp* out) {
  for (const CmpOp op : {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le,
                         CmpOp::Gt, CmpOp::Ge}) {
    if (s == cmpOpName(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

bool parseCondText(const std::string& line, Cond* out, std::string* error) {
  int depth = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    } else if (c == ' ' && depth == 0) {
      const std::size_t j = line.find(' ', i + 1);
      if (j == std::string::npos) break;
      CmpOp op;
      if (!cmpFromName(line.substr(i + 1, j - i - 1), &op)) break;
      std::string err;
      const ExprP lhs = parseExpr(line.substr(0, i), err);
      if (!lhs) {
        *error = "bad guard lhs: " + err;
        return false;
      }
      const ExprP rhs = parseExpr(line.substr(j + 1), err);
      if (!rhs) {
        *error = "bad guard rhs: " + err;
        return false;
      }
      out->lhs = lhs;
      out->op = op;
      out->rhs = rhs;
      return true;
    }
  }
  *error = "no top-level comparison in guard '" + line + "'";
  return false;
}

struct LineReader {
  std::vector<std::string> lines;
  std::size_t at = 0;
  explicit LineReader(std::string_view text) {
    std::size_t start = 0;
    while (start <= text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string_view::npos) end = text.size();
      lines.emplace_back(text.substr(start, end - start));
      start = end + 1;
    }
    // A trailing newline yields one empty tail line; drop empty tails.
    while (!lines.empty() && lines.back().empty()) lines.pop_back();
  }
  [[nodiscard]] bool done() const { return at >= lines.size(); }
  [[nodiscard]] const std::string& peek() const { return lines[at]; }
  std::string next() { return lines[at++]; }
};

bool takeKeyed(LineReader& r, const std::string& key, std::string* value,
               std::string* error) {
  if (r.done() || r.peek().rfind(key + " ", 0) != 0) {
    *error = "expected '" + key + " ...' at line " +
             std::to_string(r.at + 1);
    return false;
  }
  *value = r.next().substr(key.size() + 1);
  return true;
}

bool parseTermExpr(LineReader& r, const std::string& key, ExprP* out,
                   std::string* error) {
  std::string text;
  if (!takeKeyed(r, key, &text, error)) return false;
  std::string err;
  *out = parseExpr(text, err);
  if (!*out) {
    *error = "bad " + key + " expression at line " + std::to_string(r.at) +
             ": " + err;
    return false;
  }
  return true;
}

}  // namespace

SymCostReport extractCosts(const SymSkeleton& s) {
  SymCostReport out;
  out.skeleton = s.name;
  out.ns_per_flop = s.ns_per_flop;
  out.min_procs = s.min_procs;
  out.family = s.family;

  Extractor ex;
  std::set<std::string> open;
  annotateWindows(s.body, open, ex.in_window);
  std::vector<const SymNode*> frames;
  ex.walk(s.body, frames);

  for (const std::string& site : ex.order) {
    const Acc& a = ex.acc[site];
    SiteCostTerms t;
    t.site = site;
    t.msgs = sweepRanks(a.msgs);
    t.bytes = sweepRanks(a.bytes);
    t.flops = sweepRanks(a.flops);
    t.window_flops = sweepRanks(a.window_flops);
    out.sites.push_back(std::move(t));
  }
  return out;
}

std::string costsToString(const SymCostReport& r) {
  std::ostringstream os;
  os << "# ovprof-symskel-v1\n";
  os << "skeleton " << r.skeleton << "\n";
  os << "min-procs " << r.min_procs << "\n";
  char npf[64];
  std::snprintf(npf, sizeof npf, "%g", r.ns_per_flop);
  os << "ns-per-flop " << npf << "\n";
  for (const Cond& c : r.family) {
    os << "family-cond " << toString(c) << "\n";
  }
  for (const SiteCostTerms& t : r.sites) {
    os << "site " << t.site << "\n";
    os << "msgs " << toString(t.msgs) << "\n";
    os << "bytes " << toString(t.bytes) << "\n";
    os << "flops " << toString(t.flops) << "\n";
    os << "window-flops " << toString(t.window_flops) << "\n";
  }
  os << "end\n";
  return os.str();
}

bool parseCosts(std::string_view text, SymCostReport* out,
                std::string* error) {
  *out = SymCostReport{};
  LineReader r(text);
  if (r.done() || r.next() != "# ovprof-symskel-v1") {
    *error = "missing '# ovprof-symskel-v1' header";
    return false;
  }
  std::string value;
  if (!takeKeyed(r, "skeleton", &out->skeleton, error)) return false;
  if (!takeKeyed(r, "min-procs", &value, error)) return false;
  try {
    out->min_procs = std::stoi(value);
  } catch (...) {
    *error = "bad min-procs '" + value + "'";
    return false;
  }
  if (!takeKeyed(r, "ns-per-flop", &value, error)) return false;
  try {
    out->ns_per_flop = std::stod(value);
  } catch (...) {
    *error = "bad ns-per-flop '" + value + "'";
    return false;
  }
  while (!r.done() && r.peek().rfind("family-cond ", 0) == 0) {
    Cond c;
    if (!parseCondText(r.next().substr(12), &c, error)) return false;
    out->family.push_back(std::move(c));
  }
  while (!r.done() && r.peek().rfind("site ", 0) == 0) {
    SiteCostTerms t;
    t.site = r.next().substr(5);
    for (const SiteCostTerms& prev : out->sites) {
      if (prev.site == t.site) {
        *error = "duplicate site '" + t.site + "'";
        return false;
      }
    }
    if (!parseTermExpr(r, "msgs", &t.msgs, error)) return false;
    if (!parseTermExpr(r, "bytes", &t.bytes, error)) return false;
    if (!parseTermExpr(r, "flops", &t.flops, error)) return false;
    if (!parseTermExpr(r, "window-flops", &t.window_flops, error)) {
      return false;
    }
    out->sites.push_back(std::move(t));
  }
  if (r.done() || r.next() != "end") {
    *error = "missing 'end' terminator (truncated file?)";
    return false;
  }
  if (!r.done()) {
    *error = "trailing content after 'end' at line " + std::to_string(r.at + 1);
    return false;
  }
  return true;
}

bool evalSiteCost(const SiteCostTerms& t, int nprocs, SiteCostValues* out) {
  Env env;
  env.r = 0;
  env.P = nprocs;
  return eval(t.msgs, env, out->msgs) && eval(t.bytes, env, out->bytes) &&
         eval(t.flops, env, out->flops) &&
         eval(t.window_flops, env, out->window_flops);
}

namespace {

struct Tally {
  Env env;
  std::map<std::string, SiteCostValues>* out;
  const std::map<const SymNode*, bool>* in_window;
  std::string error;

  bool fail(std::string what) {
    if (error.empty()) error = std::move(what);
    return false;
  }

  bool run(const std::vector<SymNodeP>& body) {
    for (const SymNodeP& n : body) {
      switch (n->node) {
        case SymNodeKind::Loop: {
          std::int64_t begin = 0, end = 0;
          if (!eval(n->begin, env, begin) || !eval(n->end, env, end)) {
            return fail("cannot evaluate loop bounds of " + n->lvar);
          }
          const auto saved = env.vars.find(n->lvar) != env.vars.end()
                                 ? std::optional<std::int64_t>(
                                       env.vars[n->lvar])
                                 : std::nullopt;
          bool ok = true;
          if (n->forward) {
            for (std::int64_t v = begin; ok && v < end; ++v) {
              env.vars[n->lvar] = v;
              ok = run(n->body);
            }
          } else {
            for (std::int64_t v = begin; ok && v >= end; --v) {
              env.vars[n->lvar] = v;
              ok = run(n->body);
            }
          }
          if (saved) {
            env.vars[n->lvar] = *saved;
          } else {
            env.vars.erase(n->lvar);
          }
          if (!ok) return false;
          break;
        }
        case SymNodeKind::If: {
          bool holds = false;
          if (!evalGuard(n->guard, env, holds)) {
            return fail("cannot evaluate guard " + toString(n->guard));
          }
          if (holds && !run(n->body)) return false;
          break;
        }
        case SymNodeKind::Op: {
          SiteCostValues& v = (*out)[siteKey(n->site)];
          if (n->op == OpKind::Compute) {
            std::int64_t f = 0;
            if (!eval(n->flops, env, f)) return fail("bad flops expr");
            v.flops += f;
            if (in_window->at(n.get())) v.window_flops += f;
          } else if (sendLike(n->op)) {
            v.msgs += 1;
            if (!isWildcardBytes(n->bytes)) {
              std::int64_t b = 0;
              if (!eval(n->bytes, env, b)) return fail("bad bytes expr");
              v.bytes += b;
            }
          }
          break;
        }
      }
    }
    return true;
  }
};

}  // namespace

bool tallyCosts(const SymSkeleton& s, int nprocs,
                std::map<std::string, SiteCostValues>* out,
                std::string* error) {
  out->clear();
  std::map<const SymNode*, bool> in_window;
  std::set<std::string> open;
  annotateWindows(s.body, open, in_window);
  for (std::int64_t r = 0; r < nprocs; ++r) {
    Tally t;
    t.env.r = r;
    t.env.P = nprocs;
    t.out = out;
    t.in_window = &in_window;
    if (!t.run(s.body)) {
      *error = "rank " + std::to_string(r) + ": " + t.error;
      return false;
    }
  }
  return true;
}

std::map<std::string, SiteCostValues> tallyConcrete(const Skeleton& s) {
  std::map<std::string, SiteCostValues> out;
  for (const Program& rp : s.ranks) {
    for (const Op& op : rp.ops) {
      if (op.kind != OpKind::Isend && op.kind != OpKind::Send &&
          op.kind != OpKind::Sendrecv && op.kind != OpKind::RmaPut &&
          op.kind != OpKind::RmaGet) {
        continue;
      }
      SiteCostValues& v = out[siteKey(op.site)];
      v.msgs += 1;
      if (op.bytes >= 0) v.bytes += op.bytes;
    }
  }
  return out;
}

}  // namespace ovp::skel::sym
