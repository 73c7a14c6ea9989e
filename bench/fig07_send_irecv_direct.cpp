// Paper Fig. 7: Send-Irecv, direct RDMA, 1 MB.
// Polling progress: the receiver only sees the RTS on entering MPI_Wait, so the RDMA Read happens inside the wait - zero overlap.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig07_send_irecv_direct",
      "Polling progress: the receiver only sees the RTS on entering MPI_Wait, so the RDMA Read happens inside the wait - zero overlap.",
      {.preset = mpi::Preset::OpenMpiLeavePinned,
       .sender_nonblocking = false,
       .recver_nonblocking = true,
       .measured_rank = 1});
}
