// Paper Fig. 12: NAS LU overlap characterization (MVAPICH2). Pipelined wavefront of small messages: high overlap potential.
#include "nas_figures.hpp"

#include "nas/lu.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  runCharacterization(
      "fig12_nas_lu", "Paper Fig. 12: NAS LU overlap characterization (MVAPICH2). Pipelined wavefront of small messages: high overlap potential.",
      "lu",
      [](const nas::NasParams& p) { return nas::runLu(p); },
      mpi::Preset::Mvapich2, {nas::Class::A, nas::Class::B}, {4, 8, 16}, argc, argv);
  return 0;
}
