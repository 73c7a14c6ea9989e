// Paper Fig. 10: NAS BT overlap characterization (Open MPI, pipelined RDMA). Long messages dominate, so overlap is bounded by the first-fragment fraction.
#include "nas_figures.hpp"

#include "nas/bt.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  runCharacterization(
      "fig10_nas_bt", "Paper Fig. 10: NAS BT overlap characterization (Open MPI, pipelined RDMA). Long messages dominate, so overlap is bounded by the first-fragment fraction.",
      "bt",
      [](const nas::NasParams& p) { return nas::runBt(p); },
      mpi::Preset::OpenMpiPipelined, {nas::Class::A, nas::Class::B}, {4, 9, 16}, argc, argv);
  return 0;
}
