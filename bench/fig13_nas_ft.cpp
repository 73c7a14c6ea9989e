// Paper Fig. 13: NAS FT overlap characterization (MVAPICH2). Alltoall long messages cannot overlap: low bounds throughout.
#include "nas_figures.hpp"

#include "nas/ft.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  runCharacterization(
      "fig13_nas_ft", "Paper Fig. 13: NAS FT overlap characterization (MVAPICH2). Alltoall long messages cannot overlap: low bounds throughout.",
      "ft",
      [](const nas::NasParams& p) { return nas::runFt(p); },
      mpi::Preset::Mvapich2, {nas::Class::A, nas::Class::B}, {4, 8, 16}, argc, argv);
  return 0;
}
