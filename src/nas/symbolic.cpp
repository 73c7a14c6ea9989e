#include "nas/symbolic.hpp"

#include <functional>
#include <utility>

#include "nas/class_tables.hpp"
#include "nas/fft.hpp"
#include "skeleton/symbolic/builder.hpp"
#include "skeleton/symbolic/instantiate.hpp"

namespace ovp::nas {

namespace {

using namespace skel::sym;  // NOLINT(google-build-using-namespace)
using tables::kC;
using tables::kD;

SymSkeletonBuildResult symFail(std::string why) {
  SymSkeletonBuildResult r;
  r.error = std::move(why);
  return r;
}

SymSkeletonBuildResult symFinish(SymBuilder&& b) {
  SymSkeletonBuildResult r;
  r.skeleton = b.take();
  const std::string err = validateSym(r.skeleton);
  if (!err.empty()) {
    return symFail("internal: built an invalid symbolic skeleton: " + err);
  }
  return r;
}

/// One face direction of a process grid: the guard under which the
/// neighbour exists, and its rank.
struct Dir {
  Guard g;
  ExprP peer;
};

// ---------------------------------------------------------------- CG ----

SymSkeletonBuildResult buildSymCg(const SkeletonParams& p) {
  const tables::CgSizes sz = tables::cgSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("cg");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP n = cst(sz.n);
  const ExprP myn = blocksize(n, procs(), rnk());
  const auto dot = [&] {
    b.site("cg.dot");
    b.compute(mul(cst(2), myn));
    b.mpiAllreduce(cst(1));
  };
  const auto segRing = [&](int tag) {
    // Peer ring: receive segment sizes follow the peer's block, sends
    // carry this rank's block.
    b.loop("d", cst(1), procs(), [&] {
      const ExprP peer = mod(add(rnk(), var("d")), procs());
      b.irecv(peer, cst(tag), mul(blocksize(n, procs(), peer), cst(kD)));
    });
    b.loop("e", cst(1), procs(), [&] {
      b.isend(mod(add(rnk(), var("e")), procs()), cst(tag),
              mul(myn, cst(kD)));
    });
  };
  b.loop("it", cst(0), cst(niter), [&] {
    dot();  // rho = r.r
    b.loop("cg", cst(0), cst(sz.cgit), [&] {
      b.site("cg.matvec");
      segRing(tables::kCgTagSeg);
      b.compute(mul(cst(10), myn));
      b.waitall();
      b.compute(mul(cst(8), myn));
      dot();  // p.q
      b.site("cg.axpy");
      b.compute(mul(cst(4), myn));
      dot();  // new r.r
      b.site("cg.axpy");
      b.compute(mul(cst(2), myn));
    });
    b.site("cg.norm");
    b.compute(mul(cst(4), myn));
    b.mpiAllreduce(cst(2));
    b.compute(myn);
    b.site("cg.allgather");
    b.guarded({Cond{mod(n, procs()), CmpOp::Eq, cst(0)}},
              [&] { b.mpiAllgather(mul(myn, cst(kD))); });
    b.guarded({Cond{mod(n, procs()), CmpOp::Ne, cst(0)}}, [&] {
      segRing(tables::kCgTagSeg + 1);
      b.waitall();
    });
  });
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- EP ----

SymSkeletonBuildResult buildSymEp(const SkeletonParams& p) {
  const std::int64_t pairs = p.iterations > 0
                                 ? static_cast<std::int64_t>(p.iterations)
                                 : tables::epPairs(p.cls);
  SymBuilder b("ep");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP my_pairs = blocksize(cst(pairs), procs(), rnk());
  b.site("ep.sample");
  b.compute(mul(cst(80), my_pairs));
  b.site("ep.reduce");
  b.mpiAllreduce(cst(2));   // (sx, sy)
  b.mpiAllreduce(cst(10));  // annulus counts
  b.mpiAllreduce(cst(1));   // accepted count
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- IS ----

SymSkeletonBuildResult buildSymIs(const SkeletonParams& p) {
  const tables::IsSizes sz = tables::isSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("is");
  b.nsPerFlop(p.cost.ns_per_flop);
  const ExprP my_n = blocksize(cst(sz.keys), procs(), rnk());
  b.site("is.init");
  b.compute(mul(cst(20), my_n));
  b.loop("it", cst(0), cst(niter), [&] {
    b.site("is.histogram");
    b.compute(mul(cst(2), my_n));
    b.mpiAllreduce(cst(sz.max_key));
    b.compute(cst(sz.max_key));
    b.site("is.pack");
    b.compute(mul(cst(6), my_n));
    b.site("is.exchange");
    b.mpiAlltoall(cst(8));  // sizeof(double)
    b.mpiAlltoallvAny();    // bucket payloads are data-dependent
    b.site("is.sort");
    b.compute(mul(cst(20), my_n));
    b.site("is.verify");
    b.mpiAllreduce(cst(1));  // global count (Sum)
    b.mpiAllreduce(cst(1));  // global ok (Min)
  });
  b.site("is.checksum");
  b.mpiAllreduce(cst(1));
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- FT ----

SymSkeletonBuildResult buildSymFt(const SkeletonParams& p) {
  const tables::FtSizes sz = tables::ftSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  SymBuilder b("ft");
  b.nsPerFlop(p.cost.ns_per_flop);
  // Slab distribution: nx and nz must split evenly over P.
  b.family({Cond{mod(cst(sz.nx), procs()), CmpOp::Eq, cst(0)},
            Cond{mod(cst(sz.nz), procs()), CmpOp::Eq, cst(0)}});
  const ExprP lnz = floordiv(cst(sz.nz), procs());
  const ExprP lnx = floordiv(cst(sz.nx), procs());
  const ExprP npts = mul(mul(lnz, cst(sz.ny)), cst(sz.nx));
  const ExprP block_bytes = mul(mul(mul(lnz, cst(sz.ny)), lnx), cst(kC));
  const auto transpose = [&] {
    b.compute(mul(cst(2), npts));  // pack
    b.mpiAlltoall(block_bytes);
    b.compute(mul(cst(2), npts));  // unpack
  };
  b.site("ft.init");
  b.compute(mul(cst(12), npts));
  b.site("ft.fft_fwd");
  b.compute(mul(mul(lnz, cst(sz.ny)), cst(fftFlops(sz.nx))));
  b.compute(mul(mul(lnz, cst(sz.nx)), cst(fftFlops(sz.ny))));
  b.site("ft.transpose");
  transpose();
  b.site("ft.fft_fwd");
  b.compute(mul(mul(lnx, cst(sz.ny)), cst(fftFlops(sz.nz))));
  b.site("ft.parseval");
  b.compute(mul(cst(3), npts));
  b.mpiAllreduce(cst(2));
  b.loop("step", cst(1), cst(niter + 1), [&] {
    b.site("ft.evolve");
    b.compute(mul(cst(12), npts));
    b.site("ft.fft_inv");
    b.compute(mul(mul(lnx, cst(sz.ny)), cst(fftFlops(sz.nz))));
    b.site("ft.transpose");
    transpose();
    b.site("ft.fft_inv");
    b.compute(mul(mul(lnz, cst(sz.nx)), cst(fftFlops(sz.ny))));
    b.compute(mul(mul(lnz, cst(sz.ny)),
                  cst(fftFlops(sz.nx) + 2LL * sz.nx)));
    b.site("ft.checksum");
    b.compute(floordiv(cst(4 * 1024), procs()));
    b.mpiReduce(cst(2), cst(0));
    b.mpiBcast(cst(2 * kD), cst(0));
  });
  return symFinish(std::move(b));
}

// ------------------------------------------------ LU / SP / BT grid ----

/// Row-major 2-D process grid of LU/SP/BT: pi = r mod px, pj = r div px,
/// x and y split over the grid, z kept whole on every rank.
struct Grid2 {
  ExprP px, py;
  ExprP lnx, lny;  // local extents
  Dir west, east, north, south;
};

/// Declares the grid family (nx, ny divisible by the grid) on `b`.
Grid2 grid2(SymBuilder& b, const tables::GridSizes& sz) {
  Grid2 g;
  g.px = fac2x(procs());
  g.py = fac2y(procs());
  b.family({Cond{mod(cst(sz.nx), g.px), CmpOp::Eq, cst(0)},
            Cond{mod(cst(sz.ny), g.py), CmpOp::Eq, cst(0)}});
  g.lnx = floordiv(cst(sz.nx), g.px);
  g.lny = floordiv(cst(sz.ny), g.py);
  const ExprP pi = mod(rnk(), g.px);
  const ExprP pj = floordiv(rnk(), g.px);
  g.west = {{Cond{pi, CmpOp::Ge, cst(1)}}, sub(rnk(), cst(1))};
  g.east = {{Cond{pi, CmpOp::Le, sub(g.px, cst(2))}}, add(rnk(), cst(1))};
  g.north = {{Cond{pj, CmpOp::Ge, cst(1)}}, sub(rnk(), g.px)};
  g.south = {{Cond{pj, CmpOp::Le, sub(g.py, cst(2))}}, add(rnk(), g.px)};
  return g;
}

/// Posts the four-neighbour face exchange in kernel order: receives
/// W, E, N, S, then sends W, E, N, S (the caller computes and waits).
void postFaces(SymBuilder& b, const Grid2& g, int xtag, int ytag,
               const ExprP& xbytes, const ExprP& ybytes) {
  const Dir* dirs[4] = {&g.west, &g.east, &g.north, &g.south};
  for (const bool send : {false, true}) {
    for (int d = 0; d < 4; ++d) {
      const ExprP tag = cst(d < 2 ? xtag : ytag);
      const ExprP& bytes = d < 2 ? xbytes : ybytes;
      b.guarded(dirs[d]->g, [&] {
        if (send) {
          b.isend(dirs[d]->peer, tag, bytes);
        } else {
          b.irecv(dirs[d]->peer, tag, bytes);
        }
      });
    }
  }
}

/// The rank-side complement of a one-atom neighbour guard.
Guard absent(const Dir& d) {
  Cond c = d.g.front();
  c.op = c.op == CmpOp::Ge ? CmpOp::Lt : CmpOp::Gt;
  return {c};
}

/// Emits `body` under the neighbour's guard; a null direction (the
/// communication-free z solves) emits nothing.
void whenDir(SymBuilder& b, const Dir* d, const std::function<void()>& body) {
  if (d != nullptr) b.guarded(d->g, body);
}

// ---------------------------------------------------------------- LU ----

SymSkeletonBuildResult buildSymLu(const SkeletonParams& p) {
  const tables::GridSizes sz = tables::luSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  constexpr int nc = tables::kNcomp;
  SymBuilder b("lu");
  b.nsPerFlop(p.cost.ns_per_flop);
  const Grid2 g = grid2(b, sz);
  const ExprP cells = mul(g.lnx, g.lny);  // points per z-plane
  const ExprP fx = mul(g.lny, cst(sz.nz * nc));
  const ExprP fy = mul(g.lnx, cst(sz.nz * nc));
  const auto exchangeFaces = [&] {
    b.site("lu.exchange");
    postFaces(b, g, tables::kLuTagFaceW, tables::kLuTagFaceN,
              mul(fx, cst(kD)), mul(fy, cst(kD)));
    b.compute(mul(cst(4), add(fx, fy)));
    b.waitall();
    b.compute(mul(cst(2), add(fx, fy)));
  };
  const auto residualNorm = [&] {
    b.site("lu.residual");
    b.compute(mul(cells, cst(12 * sz.nz * nc)));
    b.mpiAllreduce(cst(1));
  };
  // Wavefront sweep: per z-plane, blocking receives from the upstream
  // neighbours, the plane update, blocking sends downstream.
  const auto sweep = [&](bool forward) {
    b.site(forward ? "lu.sweep_fwd" : "lu.sweep_bwd");
    const Dir& up_x = forward ? g.west : g.east;
    const Dir& dn_x = forward ? g.east : g.west;
    const Dir& up_y = forward ? g.north : g.south;
    const Dir& dn_y = forward ? g.south : g.north;
    const ExprP ctag =
        cst(forward ? tables::kLuTagSweepCol : tables::kLuTagBackCol);
    const ExprP rtag =
        cst(forward ? tables::kLuTagSweepRow : tables::kLuTagBackRow);
    const ExprP col = mul(g.lny, cst(nc * kD));
    const ExprP row = mul(g.lnx, cst(nc * kD));
    b.loop("k", cst(0), cst(sz.nz), [&] {
      b.guarded(up_x.g, [&] { b.recv(up_x.peer, ctag, col); });
      b.guarded(up_y.g, [&] { b.recv(up_y.peer, rtag, row); });
      b.compute(mul(cells, cst(9 * nc)));
      b.guarded(dn_x.g, [&] { b.send(dn_x.peer, ctag, col); });
      b.guarded(dn_y.g, [&] { b.send(dn_y.peer, rtag, row); });
    });
  };
  b.site("lu.init");
  b.compute(mul(cells, cst(6 * sz.nz * nc)));
  exchangeFaces();
  residualNorm();
  b.loop("it", cst(0), cst(niter), [&] {
    sweep(true);
    sweep(false);
    exchangeFaces();
    residualNorm();
  });
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- SP ----

SymSkeletonBuildResult buildSymSp(const SkeletonParams& p) {
  const tables::GridSizes sz = tables::spSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  constexpr int nc = tables::kNcomp;
  SymBuilder b("sp");
  b.nsPerFlop(p.cost.ns_per_flop);
  const Grid2 g = grid2(b, sz);
  const ExprP cells = mul(g.lnx, g.lny);
  const ExprP bp = mul(cells, cst(sz.nz));
  const ExprP xface = mul(g.lny, cst(2 * sz.nz * nc));
  const ExprP yface = mul(g.lnx, cst(2 * sz.nz * nc));

  const auto copyFaces = [&] {
    b.site("sp.copy_faces");
    postFaces(b, g, tables::kSpTagFace, tables::kSpTagFace,
              mul(xface, cst(kD)), mul(yface, cst(kD)));
    b.compute(mul(cst(2), add(xface, yface)));
    b.waitall();
    b.compute(mul(cst(2), add(xface, yface)));
  };
  const auto normOf = [&] {
    b.site("sp.norm");
    b.compute(mul(bp, cst(2 * nc)));
    b.mpiAllreduce(cst(1));
  };

  // The kernel's stage-pipelined line solve (nas_run defaults: stages=3,
  // unmodified, so the Iprobe chunking collapses into one compute per
  // window).  `up`/`dn` are null for the communication-free z direction.
  // Stage s covers lines [lines*s/S, lines*(s+1)/S); forward messages
  // travel in slots rf/sf, backward ones in rb/sb, indexed by stage.
  const auto solveBatch = [&](const Dir* up, const Dir* dn, int tag_fwd,
                              int tag_bwd, const ExprP& lines,
                              const ExprP& n) {
    const ExprP stages = emax(cst(1), emin(cst(tables::kSpStages), lines));
    const ExprP s = var("s");
    const auto span = [&](const ExprP& st) {
      return sub(floordiv(mul(lines, add(st, cst(1))), stages),
                 floordiv(mul(lines, st), stages));
    };
    const auto work = [&](const ExprP& st, int flops_per) {
      b.compute(mul(mul(span(st), n), cst(flops_per * nc)));
    };
    const ExprP fwd_bytes = mul(span(s), cst(tables::kSpFwdDoubles * kD));
    const ExprP bwd_bytes = mul(span(s), cst(tables::kSpBwdDoubles * kD));
    const auto unless = [&](const Dir* d,
                            const std::function<void()>& body) {
      if (d == nullptr) {
        body();
      } else {
        b.guarded(absent(*d), body);
      }
    };
    const auto eachStage = [&](const std::function<void()>& body) {
      b.loop("s", cst(0), stages, body);
    };
    const auto ifNext = [&](const std::function<void()>& body) {
      b.guarded({Cond{add(s, cst(1)), CmpOp::Lt, stages}}, body);
    };
    const auto emitStage = [&](bool send) {
      work(s, 10);
      if (send) {
        b.isend(dn->peer, add(cst(tag_fwd), s), fwd_bytes, {"sf", s});
      }
    };
    const auto emitBack = [&] {
      work(s, 4);
      whenDir(b, up, [&] {
        b.isend(up->peer, add(cst(tag_bwd), s), bwd_bytes, {"sb", s});
      });
    };
    whenDir(b, up, [&] {
      eachStage([&] {
        b.irecv(up->peer, add(cst(tag_fwd), s), fwd_bytes, {"rf", s});
      });
    });
    unless(dn, [&] {  // last rank along the line: turn around in place
      whenDir(b, up, [&] { work(cst(0), 48); });
      eachStage([&] {
        unless(up, [&] { work(s, 48); });
        whenDir(b, up, [&] {
          ifNext([&] { work(add(s, cst(1)), 48); });
          b.wait({"rf", s});
        });
        emitStage(false);
        work(s, 14);
        emitBack();
      });
    });
    whenDir(b, dn, [&] {
      eachStage([&] {
        b.irecv(dn->peer, add(cst(tag_bwd), s), bwd_bytes, {"rb", s});
      });
      unless(up, [&] {
        eachStage([&] {
          work(s, 48);
          emitStage(true);
        });
      });
      whenDir(b, up, [&] {
        work(cst(0), 48);
        eachStage([&] {
          ifNext([&] { work(add(s, cst(1)), 48); });
          b.wait({"rf", s});
          emitStage(true);
        });
      });
      work(cst(0), 14);
      eachStage([&] {
        ifNext([&] { work(add(s, cst(1)), 14); });
        b.wait({"rb", s});
        emitBack();
      });
    });
    whenDir(b, dn, [&] { b.waitall("sf"); });
    whenDir(b, up, [&] { b.waitall("sb"); });
  };

  const auto directional = [&](const char* site, const Dir* up,
                               const Dir* dn, int tf, int tb,
                               const ExprP& lines, const ExprP& n) {
    b.site(site);
    b.compute(mul(bp, cst(2 * nc)));
    solveBatch(up, dn, tf, tb, lines, n);
    b.compute(mul(bp, cst(2 * nc)));
  };

  b.site("sp.init");
  b.compute(mul(cells, cst(8 * sz.nz * nc)));
  b.loop("step", cst(0), cst(niter), [&] {
    copyFaces();
    b.site("sp.rhs");
    b.compute(mul(bp, cst(25 * nc)));
    normOf();
    directional("sp.x_solve", &g.west, &g.east, tables::kSpTagFwdX,
                tables::kSpTagBwdX, mul(g.lny, cst(sz.nz)), g.lnx);
    directional("sp.y_solve", &g.north, &g.south, tables::kSpTagFwdY,
                tables::kSpTagBwdY, mul(g.lnx, cst(sz.nz)), g.lny);
    directional("sp.z_solve", nullptr, nullptr, 0, 0, cells, cst(sz.nz));
    normOf();
    b.site("sp.add");
    b.compute(mul(bp, cst(nc)));
  });
  normOf();
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- BT ----

SymSkeletonBuildResult buildSymBt(const SkeletonParams& p) {
  const tables::GridSizes sz = tables::btSizes(p.cls);
  const int niter = p.iterations > 0 ? p.iterations : sz.niter;
  constexpr int nc = tables::kNcomp;
  SymBuilder b("bt");
  b.nsPerFlop(p.cost.ns_per_flop);
  const Grid2 g = grid2(b, sz);
  const ExprP cells = mul(g.lnx, g.lny);
  const ExprP bp = mul(cells, cst(sz.nz));
  const ExprP xface = mul(g.lny, cst(sz.nz * nc));
  const ExprP yface = mul(g.lnx, cst(sz.nz * nc));

  const auto copyFaces = [&] {
    b.site("bt.copy_faces");
    postFaces(b, g, tables::kBtTagFace, tables::kBtTagFace,
              mul(xface, cst(kD)), mul(yface, cst(kD)));
    b.compute(mul(cst(2), add(xface, yface)));
    b.waitall();
    b.compute(mul(cst(2), add(xface, yface)));
  };
  const auto normOf = [&] {
    b.site("bt.norm");
    b.compute(mul(bp, cst(2 * nc)));
    b.mpiAllreduce(cst(1));
  };

  // One batched block-tridiagonal line solve: forward elimination waits
  // for the upstream block, backward substitution for the downstream
  // rhs.  Each request is a single slot (rf, sf, rb, sb) retired by its
  // own wait.  `up`/`dn` are null for the communication-free z direction.
  const auto solveBatch = [&](const Dir* up, const Dir* dn, int tag_fwd,
                              int tag_bwd, const ExprP& lines,
                              const ExprP& n) {
    const ExprP zero = cst(0);
    const ExprP fwd_bytes = mul(lines, cst(tables::kBtFwdDoubles * kD));
    const ExprP bwd_bytes = mul(lines, cst(tables::kBtBwdDoubles * kD));
    const auto work = [&](int flops_per) {
      b.compute(mul(mul(lines, n), cst(flops_per * nc)));
    };
    whenDir(b, up, [&] {
      b.irecv(up->peer, cst(tag_fwd), fwd_bytes, {"rf", zero});
    });
    work(40);  // lhs window
    whenDir(b, up, [&] { b.wait({"rf", zero}); });
    work(120);
    whenDir(b, dn, [&] {
      b.isend(dn->peer, cst(tag_fwd), fwd_bytes, {"sf", zero});
      b.irecv(dn->peer, cst(tag_bwd), bwd_bytes, {"rb", zero});
    });
    work(8);  // bookkeeping
    whenDir(b, dn, [&] { b.wait({"rb", zero}); });
    work(30);
    whenDir(b, up, [&] {
      b.isend(up->peer, cst(tag_bwd), bwd_bytes, {"sb", zero});
    });
    whenDir(b, dn, [&] { b.wait({"sf", zero}); });
    whenDir(b, up, [&] { b.wait({"sb", zero}); });
  };

  const auto runDirection = [&](const char* site, const Dir* up,
                                const Dir* dn, int tf, int tb,
                                const ExprP& lines, const ExprP& n) {
    b.site(site);
    b.compute(mul(bp, cst(2 * nc)));
    solveBatch(up, dn, tf, tb, lines, n);
    b.compute(mul(bp, cst(2 * nc)));
  };

  b.site("bt.init");
  b.compute(mul(bp, cst(8 * nc)));
  b.loop("step", cst(0), cst(niter), [&] {
    copyFaces();
    b.site("bt.rhs");
    b.compute(mul(bp, cst(10 * nc)));
    normOf();
    runDirection("bt.x_solve", &g.west, &g.east, tables::kBtTagFwdX,
                 tables::kBtTagBwdX, mul(g.lny, cst(sz.nz)), g.lnx);
    runDirection("bt.y_solve", &g.north, &g.south, tables::kBtTagFwdY,
                 tables::kBtTagBwdY, mul(g.lnx, cst(sz.nz)), g.lny);
    runDirection("bt.z_solve", nullptr, nullptr, 0, 0, cells, cst(sz.nz));
    normOf();
    b.site("bt.add");
    b.compute(mul(bp, cst(nc)));
  });
  normOf();
  return symFinish(std::move(b));
}

// ---------------------------------------------------------------- MG ----

SymSkeletonBuildResult buildSymMg(const SkeletonParams& p) {
  const tables::MgSizes sz = tables::mgSizes(p.cls);
  const int cycles = p.iterations > 0 ? p.iterations : sz.cycles;
  const std::string variant = p.variant.empty() ? "armci-nb" : p.variant;
  const bool is_mpi = variant == "mpi";
  const bool nonblocking = variant == "armci-nb";
  if (!is_mpi && variant != "armci" && variant != "armci-nb") {
    return symFail("mg: unknown variant '" + variant +
                   "' (want mpi|armci|armci-nb)");
  }
  SymBuilder b(is_mpi ? "mg-mpi"
                      : (nonblocking ? "mg-armci-nb" : "mg-armci"));
  b.nsPerFlop(p.cost.ns_per_flop);

  const ExprP n = cst(sz.n);
  const ExprP px = fac3x(procs());
  const ExprP py = fac3y(procs());
  const ExprP pz = fac3z(procs());
  // Level-0 admissibility.  sz.n is a power of two, so divisibility forces
  // power-of-two grid factors, which in turn makes every level down to
  // n_l = max(4, pz) admissible — see DESIGN.md 5.16 for the argument.
  b.family({Cond{mod(n, px), CmpOp::Eq, cst(0)},
            Cond{mod(n, py), CmpOp::Eq, cst(0)},
            Cond{mod(n, pz), CmpOp::Eq, cst(0)}});
  // Closed form of the kernel's level loop: levels are pushed while
  // n / 2^l stays divisible (first failure at n_l < pz) and the next grid
  // is at least 4 cells; both stops collapse to this expression.
  const ExprP nlevels =
      add(sub(clog2(n), clog2(emax(cst(4), pz))), cst(1));

  const auto lnxAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), px);
  };
  const auto lnyAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), py);
  };
  const auto lnzAt = [&](const ExprP& l) {
    return floordiv(floordiv(n, pow2(l)), pz);
  };
  const auto pointsAt = [&](const ExprP& l) {
    return mul(mul(lnxAt(l), lnyAt(l)), lnzAt(l));
  };
  const auto faceAt = [&](const ExprP& l, int d) {
    switch (d / 2) {
      case 0: return mul(lnyAt(l), lnzAt(l));
      case 1: return mul(lnxAt(l), lnzAt(l));
      default: return mul(lnxAt(l), lnyAt(l));
    }
  };
  const auto faceInclAt = [&](const ExprP& l, int d) {
    switch (d / 2) {
      case 0: return mul(lnyAt(l), lnzAt(l));
      case 1: return mul(add(lnxAt(l), cst(2)), lnzAt(l));
      default: return mul(add(lnxAt(l), cst(2)), add(lnyAt(l), cst(2)));
    }
  };

  const ExprP cx = mod(rnk(), px);
  const ExprP cy = mod(floordiv(rnk(), px), py);
  const ExprP cz = floordiv(rnk(), mul(px, py));
  const auto dirAt = [&](int d) -> Dir {
    switch (d) {
      case 0: return {{Cond{cx, CmpOp::Ge, cst(1)}}, sub(rnk(), cst(1))};
      case 1:
        return {{Cond{cx, CmpOp::Le, sub(px, cst(2))}}, add(rnk(), cst(1))};
      case 2: return {{Cond{cy, CmpOp::Ge, cst(1)}}, sub(rnk(), px)};
      case 3:
        return {{Cond{cy, CmpOp::Le, sub(py, cst(2))}}, add(rnk(), px)};
      case 4:
        return {{Cond{cz, CmpOp::Ge, cst(1)}}, sub(rnk(), mul(px, py))};
      default:
        return {{Cond{cz, CmpOp::Le, sub(pz, cst(2))}},
                add(rnk(), mul(px, py))};
    }
  };
  const auto tagAt = [&](const ExprP& l, int d) {
    return add(add(cst(tables::kMgTagExch), mul(l, cst(8))), cst(d));
  };

  const auto begin = [&](const ExprP& l) {
    if (is_mpi) {
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          // The receive buffer is the ghost-inclusive inbox, but the wire
          // message (what MATCH records carry) is the sender's packed
          // face: model the message, not the buffer.
          b.irecv(dir.peer, tagAt(l, d), mul(faceAt(l, d), cst(kD)));
        });
      }
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          b.isend(dir.peer, tagAt(l, d ^ 1), mul(faceAt(l, d), cst(kD)));
        });
      }
    } else {
      for (int d = 0; d < 6; ++d) {
        const Dir dir = dirAt(d);
        b.guarded(dir.g, [&] {
          b.put(dir.peer, mul(faceAt(l, d), cst(kD)), nonblocking);
        });
      }
    }
  };
  const auto end = [&] {
    if (is_mpi) {
      b.waitall();
    } else {
      if (nonblocking) b.fence(cst(0));
      b.barrier();  // everyone's puts are in the inboxes
      b.barrier();  // inboxes free for reuse
    }
  };
  const auto seq = [&](const ExprP& l) {
    for (int axis = 0; axis < 3; ++axis) {
      if (is_mpi) {
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.irecv(dir.peer, tagAt(l, d), mul(faceInclAt(l, d), cst(kD)));
          });
        }
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.isend(dir.peer, tagAt(l, d ^ 1),
                    mul(faceInclAt(l, d), cst(kD)));
          });
        }
        b.waitall();
      } else {
        for (int s = 0; s < 2; ++s) {
          const int d = axis * 2 + s;
          const Dir dir = dirAt(d);
          b.guarded(dir.g, [&] {
            b.put(dir.peer, mul(faceInclAt(l, d), cst(kD)), false);
          });
        }
        b.barrier();
        b.barrier();
      }
    }
  };
  const auto globalSum = [&] {
    if (is_mpi) {
      b.mpiAllreduce(cst(1));
    } else {
      b.barrier();  // Armci::allreduceSum = three barrier rounds
      b.barrier();
      b.barrier();
    }
  };
  const auto interior = [&](const ExprP& l) -> Guard {
    return {Cond{lnxAt(l), CmpOp::Ge, cst(3)},
            Cond{lnyAt(l), CmpOp::Ge, cst(3)},
            Cond{lnzAt(l), CmpOp::Ge, cst(3)}};
  };
  const auto smooth = [&](const ExprP& l) {
    b.site("mg.smooth");
    begin(l);
    b.guarded(interior(l), [&] {
      b.compute(mul(cst(10), mul(mul(sub(lnxAt(l), cst(2)),
                                     sub(lnyAt(l), cst(2))),
                                 sub(lnzAt(l), cst(2)))));
    });
    end();
    b.compute(mul(cst(12), pointsAt(l)));
  };
  const auto residualNorm = [&] {
    b.site("mg.norm");
    begin(cst(0));
    end();
    b.compute(mul(cst(9), pointsAt(cst(0))));
    b.compute(mul(cst(2), pointsAt(cst(0))));
    globalSum();
  };

  b.site("mg.init");
  b.compute(mul(cst(8), pointsAt(cst(0))));
  residualNorm();
  b.loop("c", cst(0), cst(cycles), [&] {
    // The kernel's V-cycle recursion, flattened: descend through levels
    // 0..nlevels-2, relax at the coarsest, ascend back up.
    b.loop("l", cst(0), sub(nlevels, cst(1)), [&] {
      const ExprP l = var("l");
      smooth(l);
      smooth(l);
      b.site("mg.residual");
      begin(l);
      b.guarded(interior(l), [&] {
        b.compute(mul(cst(9), mul(mul(sub(lnxAt(l), cst(2)),
                                      sub(lnyAt(l), cst(2))),
                                  sub(lnzAt(l), cst(2)))));
      });
      end();
      b.compute(mul(cst(9), pointsAt(l)));
      const ExprP c = add(l, cst(1));
      b.site("mg.restrict");
      begin(l);
      b.guarded({Cond{sub(lnxAt(c), cst(1)), CmpOp::Ge, cst(1)},
                 Cond{sub(lnyAt(c), cst(1)), CmpOp::Ge, cst(1)},
                 Cond{sub(lnzAt(c), cst(1)), CmpOp::Ge, cst(1)}},
                [&] {
                  b.compute(mul(cst(9), mul(mul(sub(lnxAt(c), cst(1)),
                                                sub(lnyAt(c), cst(1))),
                                            sub(lnzAt(c), cst(1)))));
                });
      end();
      b.compute(mul(cst(9), pointsAt(c)));
    });
    b.loop("s", cst(0), cst(tables::kMgCoarseSweeps),
           [&] { smooth(sub(nlevels, cst(1))); });
    b.rloop("u", sub(nlevels, cst(2)), cst(0), [&] {
      const ExprP l = var("u");
      b.site("mg.prolong");
      seq(add(l, cst(1)));
      b.compute(mul(cst(12), pointsAt(l)));
      smooth(l);
      smooth(l);
    });
  });
  residualNorm();
  return symFinish(std::move(b));
}

}  // namespace

SymSkeletonBuildResult buildNasSymSkeleton(const std::string& kernel,
                                           const SkeletonParams& params) {
  if (kernel == "bt") return buildSymBt(params);
  if (kernel == "cg") return buildSymCg(params);
  if (kernel == "ep") return buildSymEp(params);
  if (kernel == "ft") return buildSymFt(params);
  if (kernel == "is") return buildSymIs(params);
  if (kernel == "lu") return buildSymLu(params);
  if (kernel == "mg") return buildSymMg(params);
  if (kernel == "sp") return buildSymSp(params);
  return symFail("unknown kernel '" + kernel +
                 "' (want bt|cg|ep|ft|is|lu|mg|sp)");
}

SkeletonBuildResult buildNasSkeleton(const std::string& kernel,
                                     const SkeletonParams& params) {
  SkeletonBuildResult out;
  const SymSkeletonBuildResult sym = buildNasSymSkeleton(kernel, params);
  if (!sym.ok()) {
    out.error = sym.error;
    return out;
  }
  InstantiateResult inst = instantiate(sym.skeleton, params.nranks);
  if (!inst.ok()) {
    out.error = kernel + ": " + inst.error;
    return out;
  }
  out.skeleton = std::move(inst.skeleton);
  return out;
}

std::string rankCountError(const std::string& kernel, Class cls, int nranks,
                           int iterations, const std::string& variant) {
  SkeletonParams params;
  params.cls = cls;
  params.iterations = iterations;
  params.variant = variant;
  const SymSkeletonBuildResult sym = buildNasSymSkeleton(kernel, params);
  if (!sym.ok()) return sym.error;
  if (skel::sym::familyAdmits(sym.skeleton, nranks, nullptr)) return "";
  return kernel + " class " + className(cls) + " cannot run on " +
         std::to_string(nranks) + " ranks; supported rank counts: " +
         skel::sym::familyText(sym.skeleton);
}

const std::vector<std::string>& nasKernels() {
  static const std::vector<std::string> kKernels = {
      "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"};
  return kKernels;
}

}  // namespace ovp::nas
