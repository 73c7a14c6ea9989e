// Paper Fig. 9: Isend-Irecv, direct RDMA, 1 MB.
// Both sides non-blocking with RDMA Read rendezvous: the sender can reach complete overlap.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig09_isend_irecv_direct",
      "Both sides non-blocking with RDMA Read rendezvous: the sender can reach complete overlap.",
      {.preset = mpi::Preset::OpenMpiLeavePinned,
       .recver_nonblocking = true});
}
