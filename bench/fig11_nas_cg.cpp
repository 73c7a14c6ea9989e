// Paper Fig. 11: NAS CG overlap characterization (Open MPI). Short-message-heavy traffic overlaps well - higher than BT.
#include "nas_figures.hpp"

#include "nas/cg.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  runCharacterization(
      "fig11_nas_cg", "Paper Fig. 11: NAS CG overlap characterization (Open MPI). Short-message-heavy traffic overlaps well - higher than BT.",
      "cg",
      [](const nas::NasParams& p) { return nas::runCg(p); },
      mpi::Preset::OpenMpiPipelined, {nas::Class::A, nas::Class::B}, {4, 8, 16}, argc, argv);
  return 0;
}
