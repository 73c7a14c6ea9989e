// Paper Fig. 6: Send-Irecv, pipelined-RDMA rendezvous, 1 MB.
// Receiver-side view: only the RTS-borne first fragment overlaps; wait time is high and flat.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig06_send_irecv_pipelined",
      "Receiver-side view: only the RTS-borne first fragment overlaps; wait time is high and flat.",
      {.preset = mpi::Preset::OpenMpiPipelined,
       .sender_nonblocking = false,
       .recver_nonblocking = true,
       .measured_rank = 1});
}
