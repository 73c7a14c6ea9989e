// Paper Fig. 4: Isend-Recv, pipelined-RDMA rendezvous, 1 MB.
// Only the first fragment can overlap: the sender's bounds stay flat and MPI_Wait time stays high as computation grows.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(
      argc, argv, "fig04_isend_recv_pipelined",
      "Only the first fragment can overlap: the sender's bounds stay flat and MPI_Wait time stays high as computation grows.",
      {.preset = mpi::Preset::OpenMpiPipelined});
}
