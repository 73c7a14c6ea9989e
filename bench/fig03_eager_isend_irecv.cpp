// Paper Fig. 3: Isend-Irecv with the eager protocol, 10 KB messages.
//
// Reports both sides, like the figure's six series: the sender's bounds
// rise with inserted computation (more scope to hide the transfer); the
// receiver's are pinned at [0, 100%] because the send initiation is
// invisible to a polling receiver (the framework's case 3); wait times
// drop to the floor once overlap saturates.
#include "microbench.hpp"

using namespace ovp;
using namespace ovp::bench;

int main(int argc, char** argv) {
  return microbenchMain(argc, argv, "fig03_eager_isend_irecv",
                        "Eager Isend-Irecv, 10 KB: overlap bounds and wait "
                        "time vs computation, both sides.",
                        {.message = 10 * 1024,
                         .recver_nonblocking = true,
                         .compute_points = eagerComputeSweep()},
                        /*both_sides=*/true);
}
