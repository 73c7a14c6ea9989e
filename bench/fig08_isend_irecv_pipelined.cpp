// Paper Fig. 8: Isend-Irecv, pipelined-RDMA rendezvous, 1 MB.
// Sender-side view with both sides non-blocking: still only the initial fragment overlaps.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig08_isend_irecv_pipelined",
      "Sender-side view with both sides non-blocking: still only the initial fragment overlaps.",
      {.preset = mpi::Preset::OpenMpiPipelined,
       .recver_nonblocking = true});
}
