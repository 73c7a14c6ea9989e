// Paper Fig. 5: Isend-Recv, direct RDMA (mpi_leave_pinned), 1 MB.
// The receiver RDMA-Reads the exposed send buffer on seeing the RTS: sender overlap grows to full and wait time falls with computation.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig05_isend_recv_direct",
      "The receiver RDMA-Reads the exposed send buffer on seeing the RTS: sender overlap grows to full and wait time falls with computation.",
      {.preset = mpi::Preset::OpenMpiLeavePinned});
}
