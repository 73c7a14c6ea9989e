// Symbolic skeleton construction.
//
// SymBuilder mirrors skel::RankBuilder's surface, but emits ONE template
// for all ranks and all job sizes instead of one op list per concrete
// rank: loops take symbolic bounds plus a body callback, `guarded()` opens
// a rank-role case split, and every peer/tag/bytes/flops argument is an
// Expr.  The mpi* helpers expand collectives into the point-to-point
// decompositions src/mpi/collectives.cpp executes (same reserved tags,
// same op order); their loop/guard shapes are the canonical forms the
// symbolic matching and deadlock provers recognize (see verify.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "skeleton/symbolic/ir.hpp"

namespace ovp::skel::sym {

class SymBuilder {
 public:
  explicit SymBuilder(std::string name);

  /// Sets the call-site label stamped on subsequently emitted ops.
  void site(std::string s) { site_ = std::move(s); }

  /// Admissible job sizes (guard over P only) and the smallest one.
  void family(Guard g);
  void minProcs(int p);
  void nsPerFlop(double v);

  // -- ops (symbolic analogues of RankBuilder's emitters) --
  void compute(ExprP flops);
  /// Nonblocking posts; a named `req` opens the slot group[index], an
  /// unnamed one joins the anonymous group.
  void isend(ExprP dst, ExprP tag, ExprP bytes, ReqRef req = {});
  void irecv(ExprP src, ExprP tag, ExprP bytes, ReqRef req = {});
  void send(ExprP dst, ExprP tag, ExprP bytes);
  void recv(ExprP src, ExprP tag, ExprP bytes);
  /// Retires the one named slot `req`.
  void wait(ReqRef req);
  /// Retires every open request of `group`; the default (anonymous)
  /// group is every unnamed request opened since the previous waitall().
  void waitall(std::string group = {});
  void sendrecv(ExprP dst, ExprP stag, ExprP sbytes, ExprP src, ExprP rtag,
                ExprP rbytes);
  void barrier();
  void put(ExprP target, ExprP bytes, bool nb);
  void get(ExprP target, ExprP bytes, bool nb);
  void fence(ExprP target);

  // -- structure --
  /// for (v = begin; v < end; ++v)
  void loop(const std::string& v, ExprP begin, ExprP end,
            const std::function<void()>& body);
  /// for (v = begin; v >= end; --v)
  void rloop(const std::string& v, ExprP begin, ExprP end,
             const std::function<void()>& body);
  void guarded(Guard g, const std::function<void()>& body);

  // -- MPI collective expansions (src/mpi/collectives.cpp algorithms) --
  void mpiBarrier();
  void mpiBcast(ExprP n, ExprP root);
  void mpiReduce(ExprP count, ExprP root);
  void mpiAllreduce(ExprP count);
  void mpiAlltoall(ExprP bytes_per_rank);
  void mpiAlltoallvAny();
  void mpiAllgather(ExprP bytes_per_rank);
  void mpiGather(ExprP n, ExprP root);
  void mpiScatter(ExprP n, ExprP root);

  [[nodiscard]] SymSkeleton take();

 private:
  SymNode& emitOp(OpKind kind);
  /// Fresh loop-variable name for collective expansions ("k0", "k1", ...);
  /// deterministic, unique along any path.
  std::string gensym();

  SymSkeleton skel_;
  std::string site_;
  std::vector<std::vector<SymNodeP>*> stack_;  // innermost body last
  int gensym_ = 0;
};

}  // namespace ovp::skel::sym
