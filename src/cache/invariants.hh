/**
 * @file
 * Machine-checked structural invariants of the cache hierarchy.
 *
 * These encode the paper's non-inclusive model as executable rules the
 * runtime InvariantChecker sweeps between events:
 *
 *  - L1 inclusion: every valid L1 line is backed by its core's MLC.
 *  - Single owner: a line is valid in at most one core's MLC
 *    (migratory coherence, paper Sec. V).
 *  - MLC/LLC exclusivity: a line valid in some MLC is not also valid
 *    in the LLC ("tag moves to the directory", Fig. 2).
 *  - Directory consistency, both directions: every valid MLC line is
 *    tracked with the right sharer bit, and every directory sharer bit
 *    corresponds to a real MLC copy.
 *  - DDIO way confinement: every line placed by a DDIO
 *    write-allocation still sits inside the configured DDIO ways.
 *  - LRU ages: in every LRU-managed array, each set's recency ages
 *    are a permutation of 0..assoc-1 (see LruPolicy).
 */

#ifndef IDIO_CACHE_INVARIANTS_HH
#define IDIO_CACHE_INVARIANTS_HH

#include "sim/checker/invariant_checker.hh"

namespace cache
{

class MemoryHierarchy;

/**
 * Register all cache-hierarchy invariants over @p hier on @p checker.
 * @p hier must outlive the checker's last sweep.
 */
void registerCacheInvariants(sim::InvariantChecker &checker,
                             MemoryHierarchy &hier);

} // namespace cache

#endif // IDIO_CACHE_INVARIANTS_HH
