// Umbrella header: the entire public API of the capsp library.
//
//   #include "capsp.hpp"
//
// pulls in the graph substrate, the pre-processing pipeline, the
// distributed algorithms, the oracles, and the machine simulator.  Most
// applications only need:
//   * graph/generators.hpp or graph/io.hpp  — get a Graph
//   * core/sparse_apsp.hpp                  — run the algorithm
//   * core/path_oracle.hpp                  — query paths/analytics
#pragma once

#include "baseline/dc_apsp.hpp"          // IWYU pragma: export
#include "baseline/dc_cyclic.hpp"        // IWYU pragma: export
#include "baseline/dist_matrix.hpp"      // IWYU pragma: export
#include "baseline/fw2d.hpp"             // IWYU pragma: export
#include "baseline/reference.hpp"        // IWYU pragma: export
#include "core/closure.hpp"              // IWYU pragma: export
#include "core/layout.hpp"               // IWYU pragma: export
#include "core/path_oracle.hpp"          // IWYU pragma: export
#include "core/regions.hpp"              // IWYU pragma: export
#include "core/sparse_apsp.hpp"          // IWYU pragma: export
#include "core/superfw.hpp"              // IWYU pragma: export
#include "core/validate.hpp"             // IWYU pragma: export
#include "graph/algorithms.hpp"          // IWYU pragma: export
#include "graph/generators.hpp"          // IWYU pragma: export
#include "graph/graph.hpp"               // IWYU pragma: export
#include "graph/io.hpp"                  // IWYU pragma: export
#include "machine/collectives.hpp"       // IWYU pragma: export
#include "machine/cost_model.hpp"        // IWYU pragma: export
#include "machine/machine.hpp"           // IWYU pragma: export
#include "partition/bisect.hpp"          // IWYU pragma: export
#include "partition/distributed_nd.hpp"  // IWYU pragma: export
#include "partition/nested_dissection.hpp"  // IWYU pragma: export
#include "partition/separator.hpp"       // IWYU pragma: export
#include "semiring/block.hpp"            // IWYU pragma: export
#include "semiring/dist.hpp"             // IWYU pragma: export
#include "semiring/graph_matrix.hpp"     // IWYU pragma: export
#include "semiring/semirings.hpp"        // IWYU pragma: export
#include "tree/etree.hpp"                // IWYU pragma: export
#include "util/rng.hpp"                  // IWYU pragma: export
