// SCQ as a bounded MPMC queue of 64-bit values: the two-ring
// construction (two_ring.hpp) over the plain SCQ ring.
#pragma once

#include "wcq/scq_ring.hpp"
#include "wcq/two_ring.hpp"

namespace wcq {

using ScqQueue = TwoRingQueue<ScqRing>;

}  // namespace wcq
