// Umbrella header — the public surface of the Proteus library.
//
//   #include "proteus.h"
//
// pulls in everything a typical embedder needs: the Proteus facade (its
// `replicas` option is the §III-E replicated form), the cache server with
// its memcached text protocol, the placement algorithms, the Bloom digest
// machinery, and the experiment driver. Individual headers remain
// includable for finer-grained builds.
#pragma once

#include "bloom/bloom_filter.h"            // IWYU pragma: export
#include "bloom/config.h"                  // IWYU pragma: export
#include "bloom/counting_bloom_filter.h"   // IWYU pragma: export
#include "cache/cache_server.h"            // IWYU pragma: export
#include "cache/mattson.h"                 // IWYU pragma: export
#include "cache/text_protocol.h"           // IWYU pragma: export
#include "client/memcache_client.h"        // IWYU pragma: export
#include "cluster/report.h"                // IWYU pragma: export
#include "cluster/scenario.h"              // IWYU pragma: export
#include "core/proteus.h"                  // IWYU pragma: export
#include "hashring/migration_plan.h"       // IWYU pragma: export
#include "hashring/proteus_placement.h"    // IWYU pragma: export
#include "hashring/routing_table.h"        // IWYU pragma: export
#include "hashring/weighted_placement.h"   // IWYU pragma: export
#include "net/memcache_daemon.h"           // IWYU pragma: export
#include "workload/popularity.h"           // IWYU pragma: export
#include "workload/trace.h"                // IWYU pragma: export
#include "workload/wiki_trace.h"           // IWYU pragma: export

namespace proteus {

// Library version, also reported by the memcached protocol session.
inline constexpr const char* kVersion = "1.0.0";

}  // namespace proteus
