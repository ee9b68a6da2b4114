#include "cache/query_cache.h"

#include <cstdio>

namespace prometheus::cache {

std::vector<std::pair<std::string, std::string>> QueryCacheStats::Fields()
    const {
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%", result.hit_rate_percent);
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("enabled", enabled ? "true" : "false");
  out.emplace_back("result_hits", std::to_string(result.hits));
  out.emplace_back("result_misses", std::to_string(result.misses));
  out.emplace_back("result_hit_rate", rate);
  out.emplace_back("result_entries", std::to_string(result.entries));
  out.emplace_back("result_bytes", std::to_string(result.bytes) + "/" +
                                       std::to_string(result.max_bytes));
  out.emplace_back("result_shards", std::to_string(result.shards));
  out.emplace_back("result_inserts", std::to_string(result.inserts));
  out.emplace_back("result_evictions", std::to_string(result.evictions));
  out.emplace_back("result_invalidations",
                   std::to_string(result.invalidations));
  out.emplace_back("result_oversize", std::to_string(result.oversize));
  out.emplace_back("plan_hits", std::to_string(plan.hits));
  out.emplace_back("plan_misses", std::to_string(plan.misses));
  out.emplace_back("plan_entries", std::to_string(plan.entries));
  out.emplace_back("plan_inserts", std::to_string(plan.inserts));
  out.emplace_back("plan_evictions", std::to_string(plan.evictions));
  out.emplace_back("plan_invalidations", std::to_string(plan.invalidations));
  out.emplace_back("schema_generation", std::to_string(plan.schema_generation));
  return out;
}

}  // namespace prometheus::cache
