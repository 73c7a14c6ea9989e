// Tests for the rank-symbolic skeleton layer (src/skeleton/symbolic).
//
// The anchor is the instantiation gate: buildNasSkeleton (which lowers the
// symbolic template) must reproduce the preserved digests of the former
// hand-unrolled builders at every recorded rank count and class.
// Everything else (matching/deadlock proofs, cost terms) builds on that
// equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nas/common.hpp"
#include "nas/symbolic.hpp"
#include "skeleton/serialize.hpp"
#include "skeleton/symbolic/builder.hpp"
#include "skeleton/symbolic/cost.hpp"
#include "skeleton/symbolic/expr.hpp"
#include "skeleton/symbolic/instantiate.hpp"
#include "skeleton/symbolic/verify.hpp"
#include "util/rng.hpp"

namespace ovp {
namespace {

using nas::SkeletonParams;
using skel::sym::Env;
using skel::sym::familyAdmits;
using skel::sym::instantiate;

// Draws admissible rank counts for `kernel`, mixing powers of two with
// arbitrary counts so non-pow2 family members get exercised too.
std::vector<int> sampleProcs(const skel::sym::SymSkeleton& s, int want,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < want && guard < 10000) {
    ++guard;
    const int p = rng.below(2) == 0
                      ? (1 << rng.range(0, 7))
                      : static_cast<int>(rng.range(1, 65));
    if (!familyAdmits(s, p, nullptr)) continue;
    bool dup = false;
    for (const int q : out) dup = dup || q == p;
    if (!dup) out.push_back(p);
  }
  return out;
}

// ---- instantiation gate ----
//
// tests/golden/skeleton_digests.txt preserves the hand-unrolled skeleton
// builders that the templates replaced: one line per kernel, variant,
// class and every rank count in 1-16, 24, 32, 48, 64 those builders
// accepted, holding fnv1a64(skeletonToString(skeleton)).  The file is a
// frozen reference, never regenerated: buildNasSkeleton must reproduce
// every digest.

struct DigestLine {
  std::string kernel;
  std::string variant;  // "-" for kernels without variants
  std::string cls;
  int procs = 0;
  std::string digest;   // 16 lowercase hex digits
};

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<DigestLine> loadDigests() {
  std::ifstream is(std::string(OVPROF_GOLDEN_DIR) + "/skeleton_digests.txt");
  std::vector<DigestLine> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    DigestLine d;
    ls >> d.kernel >> d.variant >> d.cls >> d.procs >> d.digest;
    out.push_back(std::move(d));
  }
  return out;
}

SkeletonParams digestParams(const DigestLine& d) {
  SkeletonParams p;
  p.nranks = d.procs;
  p.cls = d.cls == "A" ? nas::Class::A
                       : (d.cls == "B" ? nas::Class::B : nas::Class::S);
  p.variant = d.variant == "-" ? "" : d.variant;
  return p;
}

// Recomputes every reference digest selected by `want`; at least one line
// must be selected so a truncated golden file cannot pass vacuously.
template <typename Pred>
void expectDigests(Pred want) {
  int checked = 0;
  for (const DigestLine& d : loadDigests()) {
    if (!want(d)) continue;
    ++checked;
    const auto built = nas::buildNasSkeleton(d.kernel, digestParams(d));
    ASSERT_TRUE(built.ok()) << d.kernel << " " << d.variant << " " << d.cls
                            << " P=" << d.procs << ": " << built.error;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(skel::skeletonToString(built.skeleton))));
    EXPECT_EQ(d.digest, hex) << d.kernel << " " << d.variant << " "
                             << d.cls << " diverges at P=" << d.procs;
  }
  EXPECT_GT(checked, 0);
}

void expectClassS(const std::string& kernel) {
  expectDigests([&](const DigestLine& d) {
    return d.kernel == kernel && d.cls == "S";
  });
}

TEST(SymbolicEquivalence, BtMatchesUnrolled) { expectClassS("bt"); }
TEST(SymbolicEquivalence, CgMatchesUnrolled) { expectClassS("cg"); }
TEST(SymbolicEquivalence, EpMatchesUnrolled) { expectClassS("ep"); }
TEST(SymbolicEquivalence, FtMatchesUnrolled) { expectClassS("ft"); }
TEST(SymbolicEquivalence, IsMatchesUnrolled) { expectClassS("is"); }
TEST(SymbolicEquivalence, LuMatchesUnrolled) { expectClassS("lu"); }
TEST(SymbolicEquivalence, SpMatchesUnrolled) { expectClassS("sp"); }
TEST(SymbolicEquivalence, MgMatchesUnrolledAllVariants) { expectClassS("mg"); }

TEST(SymbolicEquivalence, ClassAAndBStayEquivalent) {
  expectDigests([](const DigestLine& d) { return d.cls != "S"; });
}

// The template family is exactly the set of counts the unrolled builders
// accepted: every listed P is admitted, every unlisted one in the
// recorded range is rejected.
TEST(SymbolicEquivalence, FamilyAdmitsExactlyTheReferenceCounts) {
  std::map<std::string, std::vector<int>> listed;  // "kernel variant cls"
  std::map<std::string, SkeletonParams> params;
  for (const DigestLine& d : loadDigests()) {
    const std::string key = d.kernel + " " + d.variant + " " + d.cls;
    listed[key].push_back(d.procs);
    params[key] = digestParams(d);
  }
  ASSERT_EQ(listed.size(), 30u);  // 10 kernel/variant pairs x 3 classes
  std::vector<int> range;
  for (int p = 1; p <= 16; ++p) range.push_back(p);
  for (const int p : {24, 32, 48, 64}) range.push_back(p);
  for (const auto& [key, counts] : listed) {
    const auto sym = nas::buildNasSymSkeleton(key.substr(0, 2), params[key]);
    ASSERT_TRUE(sym.ok()) << key << ": " << sym.error;
    for (const int p : range) {
      const bool want =
          std::find(counts.begin(), counts.end(), p) != counts.end();
      EXPECT_EQ(familyAdmits(sym.skeleton, p, nullptr), want)
          << key << " P=" << p;
    }
  }
}

// ---- matching / deadlock provers ----

// The kernels whose every term family falls inside the proof lemmas.
TEST(SymbolicVerify, ProvesAllConvertedKernels) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"cg", ""},    {"ep", ""},      {"ft", ""},        {"is", ""},
      {"lu", ""},    {"mg", "mpi"},   {"mg", "armci"},   {"mg", "armci-nb"}};
  for (const auto& [kernel, variant] : cases) {
    SkeletonParams p;
    p.variant = variant;
    const auto sym = nas::buildNasSymSkeleton(kernel, p);
    ASSERT_TRUE(sym.ok()) << kernel << ": " << sym.error;
    const auto v = skel::sym::verifySymbolic(sym.skeleton);
    EXPECT_TRUE(v.matching_proven)
        << kernel << "/" << variant << " matching not proven";
    EXPECT_TRUE(v.deadlock_proven)
        << kernel << "/" << variant << " deadlock-freedom not proven";
    EXPECT_TRUE(v.clean()) << kernel << "/" << variant << " first: "
                           << (v.diagnostics.empty()
                                   ? std::string("-")
                                   : v.diagnostics.front().toString());
  }
}

// SP's and BT's single-request waits lie outside the deadlock lemmas: the
// prover must say so (never PROVEN), and the witness sweep over concrete
// counts must find no cycle and raise no error.  The fac2 halo lemma
// covers every BT pairing.
TEST(SymbolicVerify, GridKernelsAreUnprovenButCycleFree) {
  for (const char* kernel : {"bt", "sp"}) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel << ": " << sym.error;
    const auto v = skel::sym::verifySymbolic(sym.skeleton);
    EXPECT_FALSE(v.deadlock_proven) << kernel;
    EXPECT_EQ(v.matching_proven, std::string(kernel) == "bt") << kernel;
    bool unproven = false;
    for (const auto& d : v.diagnostics) {
      EXPECT_NE(d.severity, analysis::Severity::Error)
          << kernel << ": " << d.toString();
      unproven = unproven || d.code == analysis::DiagCode::SymDeadlockUnproven;
    }
    EXPECT_TRUE(unproven) << kernel;
  }
}

// The wavefront lemma must refuse every other blocking halo shape: receives
// from both sides before any send hide a cycle the witness sweep must
// confirm wherever the grid has two columns; a send-first pipeline is
// cycle-free but outside the lemma, so it stays unproven.
TEST(SymbolicVerify, WavefrontLemmaRefusesOtherShapes) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  const ExprP px = fac2x(procs());
  const ExprP pi = mod(rnk(), px);
  const Guard west = {Cond{pi, CmpOp::Ge, cst(1)}};
  const Guard east = {Cond{pi, CmpOp::Le, sub(px, cst(2))}};
  const ExprP big = cst(1 << 20);  // rendezvous-sized
  const auto verdict = [](SymBuilder& b, bool* cycle) {
    const auto v = verifySymbolic(b.take());
    EXPECT_TRUE(v.matching_proven);
    EXPECT_FALSE(v.deadlock_proven);
    *cycle = false;
    for (const auto& d : v.diagnostics) {
      *cycle = *cycle || d.code == analysis::DiagCode::SymDeadlockCycle;
    }
  };
  bool cycle = false;
  SymBuilder two_sided("two-sided");
  two_sided.loop("k", cst(0), cst(2), [&] {
    two_sided.guarded(west, [&] {
      two_sided.recv(sub(rnk(), cst(1)), cst(7), big);
    });
    two_sided.guarded(east, [&] {
      two_sided.recv(add(rnk(), cst(1)), cst(7), big);
    });
    two_sided.compute(cst(100));
    two_sided.guarded(west, [&] {
      two_sided.send(sub(rnk(), cst(1)), cst(7), big);
    });
    two_sided.guarded(east, [&] {
      two_sided.send(add(rnk(), cst(1)), cst(7), big);
    });
  });
  verdict(two_sided, &cycle);
  EXPECT_TRUE(cycle);

  SymBuilder send_first("send-first");
  send_first.loop("k", cst(0), cst(2), [&] {
    send_first.guarded(east, [&] {
      send_first.send(add(rnk(), cst(1)), cst(7), big);
    });
    send_first.guarded(west, [&] {
      send_first.recv(sub(rnk(), cst(1)), cst(7), big);
    });
  });
  verdict(send_first, &cycle);
  EXPECT_FALSE(cycle);
}

TEST(SymbolicVerify, UnmatchedRingSendIsAnError) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("bad-ring");
  b.site("bad.ring");
  b.loop("d", cst(1), procs(), [&] {
    b.isend(mod(add(rnk(), var("d")), procs()), cst(7), cst(64));
  });
  b.waitall();
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.matching_proven);
  bool found = false;
  for (const auto& d : v.diagnostics) {
    found = found || d.code == analysis::DiagCode::SymUnmatchedSend;
  }
  EXPECT_TRUE(found);
}

TEST(SymbolicVerify, BlockingExchangeNamesTheDeadlockFamily) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("head-to-head");
  b.minProcs(2);
  b.site("bad.exchange");
  // Every rank: rendezvous-sized blocking send "right", then recv "left".
  // Classic head-to-head: a blocking cycle at every rank count >= 2.
  const ExprP big = cst(1 << 20);
  b.send(mod(add(rnk(), cst(1)), procs()), cst(9), big);
  b.recv(mod(add(sub(rnk(), cst(1)), procs()), procs()), cst(9), big);
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.deadlock_proven);
  bool cycle = false;
  std::string family;
  for (const auto& d : v.diagnostics) {
    if (d.code == analysis::DiagCode::SymDeadlockCycle) {
      cycle = true;
      family = d.detail;
    }
  }
  ASSERT_TRUE(cycle);
  EXPECT_NE(family.find("every admissible rank count sampled"),
            std::string::npos)
      << family;
}

TEST(SymbolicVerify, RankGuardedBarrierDiverges) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("guarded-barrier");
  b.site("bad.barrier");
  b.guarded({Cond{rnk(), CmpOp::Eq, cst(0)}}, [&] { b.barrier(); });
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.deadlock_proven);
  bool diverged = false;
  for (const auto& d : v.diagnostics) {
    diverged =
        diverged || d.code == analysis::DiagCode::SymBarrierDivergence;
  }
  EXPECT_TRUE(diverged);
}

TEST(SymbolicVerify, ByteMismatchedRingIsReported) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("bad-bytes");
  b.site("bad.bytes");
  b.loop("d", cst(1), procs(), [&] {
    b.irecv(mod(add(rnk(), var("d")), procs()), cst(5), cst(128));
  });
  b.loop("e", cst(1), procs(), [&] {
    b.isend(mod(add(rnk(), var("e")), procs()), cst(5), cst(64));
  });
  b.waitall();
  const auto v = verifySymbolic(b.take());
  EXPECT_FALSE(v.matching_proven);
  bool mismatch = false;
  for (const auto& d : v.diagnostics) {
    mismatch = mismatch || d.code == analysis::DiagCode::SymMatchMismatch;
  }
  EXPECT_TRUE(mismatch);
}

// ---- named request groups ----

// Two requests open in one group; a Wait retires the second, a later
// named waitall the first.  Lowering keeps RankBuilder's numbering.
skel::sym::SymSkeleton twoSlotTemplate() {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  SymBuilder b("two-slot");
  const ExprP peer = mod(add(rnk(), cst(1)), procs());
  const ExprP from = mod(add(sub(rnk(), cst(1)), procs()), procs());
  b.isend(peer, cst(3), cst(64), {"q", cst(0)});
  b.irecv(from, cst(3), cst(64), {"q", cst(1)});
  b.compute(cst(100));
  b.wait({"q", cst(1)});
  b.compute(cst(100));
  b.waitall("q");
  return b.take();
}

TEST(SymbolicRequests, PartialWaitLowersToSingleWait) {
  const auto sym = twoSlotTemplate();
  ASSERT_EQ(skel::sym::validateSym(sym), "");
  const auto inst = instantiate(sym, 2);
  ASSERT_TRUE(inst.ok()) << inst.error;
  for (const auto& rank : inst.skeleton.ranks) {
    ASSERT_EQ(rank.ops.size(), 6u);
    EXPECT_EQ(rank.ops[3].kind, skel::OpKind::Wait);
    EXPECT_EQ(rank.ops[3].req, 1);  // the irecv
    EXPECT_EQ(rank.ops[5].kind, skel::OpKind::Waitall);
    EXPECT_EQ(rank.ops[5].reqs, std::vector<int>{0});  // the isend
  }
  const std::string text = skel::skeletonToString(inst.skeleton);
  EXPECT_NE(text.find("  wait req 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("  waitall reqs 0\n"), std::string::npos) << text;
  EXPECT_NE(skel::sym::symSkeletonToString(sym).find("wait req q[1]"),
            std::string::npos);
  // A partial wait leaves the post-region fragment: never PROVEN, and the
  // witness sweep finds this exchange cycle-free.
  const auto v = skel::sym::verifySymbolic(sym);
  EXPECT_FALSE(v.deadlock_proven);
  for (const auto& d : v.diagnostics) {
    EXPECT_NE(d.code, analysis::DiagCode::SymDeadlockCycle) << d.toString();
  }
}

TEST(SymbolicRequests, ValidateRejectsBadSlots) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  const auto rejects = [](SymBuilder& b, const char* what) {
    const std::string err = validateSym(b.take());
    EXPECT_NE(err.find(what), std::string::npos) << err;
  };
  {
    SymBuilder b("wait-unknown-group");
    b.isend(rnk(), cst(1), cst(8), {"q", cst(0)});
    b.wait({"other", cst(0)});
    b.waitall("q");
    rejects(b, "never opened");
  }
  {
    SymBuilder b("wait-unknown-index");
    b.isend(rnk(), cst(1), cst(8), {"q", cst(0)});
    b.wait({"q", cst(1)});
    b.waitall("q");
    rejects(b, "never opened with");
  }
  {
    SymBuilder b("waitall-unknown-group");
    b.waitall("q");
    rejects(b, "never opened");
  }
  {
    SymBuilder b("left-open");
    b.isend(rnk(), cst(1), cst(8), {"q", cst(0)});
    b.waitall();  // retires the anonymous group only
    rejects(b, "leaves named request group q open");
  }
}

// validateSym is structural; the concrete slot discipline is checked per
// rank when lowering.
TEST(SymbolicRequests, InstantiateChecksSlotsPerRank) {
  using namespace skel::sym;  // NOLINT(google-build-using-namespace)
  const ExprP peer = mod(add(rnk(), cst(1)), procs());
  // Only rank 0 opens q[0], but every rank waits on it.
  SymBuilder guarded_open("guarded-open");
  guarded_open.guarded({Cond{rnk(), CmpOp::Eq, cst(0)}}, [&] {
    guarded_open.isend(peer, cst(1), cst(8), {"q", cst(0)});
  });
  guarded_open.wait({"q", cst(0)});
  const auto sym = guarded_open.take();
  EXPECT_EQ(validateSym(sym), "");
  const auto two = instantiate(sym, 2);
  EXPECT_NE(two.error.find("rank 1: wait on q[0], which is not open"),
            std::string::npos)
      << two.error;

  SymBuilder reopen("reopen");
  reopen.isend(peer, cst(1), cst(8), {"q", cst(0)});
  reopen.isend(peer, cst(2), cst(8), {"q", cst(0)});
  reopen.waitall("q");
  const auto reopened = instantiate(reopen.take(), 2);
  EXPECT_NE(reopened.error.find("opened while still open"),
            std::string::npos)
      << reopened.error;
}

// ---- closed-form cost terms ----

// The extracted closed forms must agree exactly with (a) an independent
// interpreter walking the template concretely per rank, and (b) the
// instantiated skeleton's op tallies — at every sampled job size.
TEST(SymbolicCost, ClosedFormsMatchInterpreterAndInstantiation) {
  for (const auto& kernel : nas::nasKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel << ": " << sym.error;
    const auto report = skel::sym::extractCosts(sym.skeleton);
    EXPECT_EQ(report.skeleton, sym.skeleton.name);
    EXPECT_FALSE(report.sites.empty()) << kernel;
    for (const int nprocs : sampleProcs(sym.skeleton, 4, 0xc057)) {
      std::map<std::string, skel::sym::SiteCostValues> tally;
      std::string err;
      ASSERT_TRUE(skel::sym::tallyCosts(sym.skeleton, nprocs, &tally, &err))
          << kernel << " P=" << nprocs << ": " << err;
      for (const auto& t : report.sites) {
        skel::sym::SiteCostValues got;
        ASSERT_TRUE(skel::sym::evalSiteCost(t, nprocs, &got))
            << kernel << " P=" << nprocs << " site " << t.site;
        const auto& want = tally[t.site];
        EXPECT_EQ(got.msgs, want.msgs)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.bytes, want.bytes)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.flops, want.flops)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.window_flops, want.window_flops)
            << kernel << " P=" << nprocs << " site " << t.site;
      }
      // Anchor msgs/bytes to the instantiated (unrolled) skeleton.
      const auto inst = instantiate(sym.skeleton, nprocs);
      ASSERT_TRUE(inst.ok()) << kernel << " P=" << nprocs;
      const auto conc = skel::sym::tallyConcrete(inst.skeleton);
      for (const auto& t : report.sites) {
        skel::sym::SiteCostValues got;
        ASSERT_TRUE(skel::sym::evalSiteCost(t, nprocs, &got));
        const auto it = conc.find(t.site);
        const std::int64_t cmsgs = it == conc.end() ? 0 : it->second.msgs;
        const std::int64_t cbytes = it == conc.end() ? 0 : it->second.bytes;
        EXPECT_EQ(got.msgs, cmsgs)
            << kernel << " P=" << nprocs << " site " << t.site;
        EXPECT_EQ(got.bytes, cbytes)
            << kernel << " P=" << nprocs << " site " << t.site;
      }
    }
  }
}

TEST(SymbolicCost, SymskelRoundTripsExactly) {
  for (const auto& kernel : nas::nasKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel;
    const auto report = skel::sym::extractCosts(sym.skeleton);
    const std::string text = skel::sym::costsToString(report);
    skel::sym::SymCostReport back;
    std::string err;
    ASSERT_TRUE(skel::sym::parseCosts(text, &back, &err))
        << kernel << ": " << err;
    EXPECT_EQ(skel::sym::costsToString(back), text) << kernel;
  }
}

TEST(SymbolicCost, StrictParserRejectsMalformedInput) {
  const auto sym = nas::buildNasSymSkeleton("cg", {});
  ASSERT_TRUE(sym.ok());
  const std::string good = skel::sym::costsToString(
      skel::sym::extractCosts(sym.skeleton));
  skel::sym::SymCostReport r;
  std::string err;
  ASSERT_TRUE(skel::sym::parseCosts(good, &r, &err)) << err;

  // Truncation: drop the 'end' terminator (and anything after it).
  const std::string truncated = good.substr(0, good.rfind("end\n"));
  EXPECT_FALSE(skel::sym::parseCosts(truncated, &r, &err));
  // Truncation inside a site block.
  const auto bytes_at = good.find("\nbytes ");
  ASSERT_NE(bytes_at, std::string::npos);
  EXPECT_FALSE(
      skel::sym::parseCosts(good.substr(0, bytes_at + 1) + "end\n", &r, &err));
  // Duplicated site section.
  const auto site_at = good.find("site ");
  const auto site_end = good.find("site ", site_at + 1);
  const std::string block =
      good.substr(site_at, (site_end == std::string::npos
                                ? good.rfind("end\n")
                                : site_end) -
                               site_at);
  EXPECT_FALSE(skel::sym::parseCosts(
      good.substr(0, good.rfind("end\n")) + block + "end\n", &r, &err));
  // Trailing garbage after 'end'.
  EXPECT_FALSE(skel::sym::parseCosts(good + "extra\n", &r, &err));
  // Unknown key where a term is expected.
  std::string mangled = good;
  mangled.replace(mangled.find("msgs "), 5, "mggs ");
  EXPECT_FALSE(skel::sym::parseCosts(mangled, &r, &err));
  // Missing header.
  EXPECT_FALSE(skel::sym::parseCosts(good.substr(good.find('\n') + 1), &r,
                                     &err));
}

// The symbolic layer re-implements the nas grid factorizations as Expr
// node evaluators; pin them to the concrete ones over a wide P range.
TEST(SymbolicGrid, FactorizationsMatchNas) {
  for (int p = 1; p <= 4096; ++p) {
    const auto g2 = skel::sym::symFactor2d(p);
    const auto n2 = nas::factor2d(p);
    EXPECT_EQ(g2.px, n2.px) << "P=" << p;
    EXPECT_EQ(g2.py, n2.py) << "P=" << p;
    const auto g3 = skel::sym::symFactor3d(p);
    const auto n3 = nas::factor3d(p);
    EXPECT_EQ(g3.px, n3.px) << "P=" << p;
    EXPECT_EQ(g3.py, n3.py) << "P=" << p;
    EXPECT_EQ(g3.pz, n3.pz) << "P=" << p;
  }
}

TEST(SymbolicGrid, BlockSizeMatchesBlockDistribute) {
  for (const int n : {1, 7, 1024, 4096, 16385}) {
    for (const int parts : {1, 2, 3, 5, 8, 64}) {
      const auto dist = nas::blockDistribute(n, parts);
      const auto e = skel::sym::blocksize(skel::sym::cst(n),
                                          skel::sym::cst(parts),
                                          skel::sym::var("i"));
      for (int i = 0; i < parts; ++i) {
        Env env;
        env.vars["i"] = i;
        std::int64_t got = 0;
        ASSERT_TRUE(skel::sym::eval(e, env, got));
        EXPECT_EQ(got, dist.size[i]) << "n=" << n << " parts=" << parts
                                     << " i=" << i;
      }
    }
  }
}

// ---- golden templates ----

std::string goldenPath(const std::string& name) {
  return std::string(OVPROF_GOLDEN_DIR) + "/" + name;
}

bool regoldRequested() {
  const char* env = std::getenv("OVPROF_REGOLD");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void compareOrRegold(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (regoldRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(os)) << "cannot write " << path;
    os << actual;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(is))
      << "missing golden file " << path
      << " (regenerate with OVPROF_REGOLD=1)";
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << "; if intentional, regenerate with OVPROF_REGOLD=1";
}

TEST(SymbolicGolden, TemplatesMatchGolden) {
  for (const auto& kernel : nas::nasKernels()) {
    const auto sym = nas::buildNasSymSkeleton(kernel, {});
    ASSERT_TRUE(sym.ok()) << kernel;
    compareOrRegold("symskel_" + kernel + ".txt",
                    skel::sym::symSkeletonToString(sym.skeleton));
  }
}

TEST(SymbolicGolden, CostTermsMatchGolden) {
  const auto sym = nas::buildNasSymSkeleton("cg", {});
  ASSERT_TRUE(sym.ok());
  compareOrRegold("symcost_cg.txt",
                  skel::sym::costsToString(
                      skel::sym::extractCosts(sym.skeleton)));
}

}  // namespace
}  // namespace ovp
