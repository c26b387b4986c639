// Versioned multi-tenant table registry.
//
// "Millions of users" means thousands of live DeepN table configs, not the
// single service-wide pair ServiceConfig carries. The registry maps tenant
// names to immutable configuration snapshots: the tenant's base quant-table
// pair plus the rest of its encoder options. A kDeepnEncode request that
// names a tenant encodes under that tenant's base pair IJG-scaled by the
// request's quality (50 = the base tables verbatim), exactly as the
// service-wide pair behaves for tenantless requests.
//
// Versioning is the concurrency story: put() replaces the whole entry with
// a fresh shared_ptr<const TenantEntry> stamped from a registry-global
// monotonic counter, and find() hands that shared_ptr out. An in-flight
// request pins the snapshot it resolved at submission — a concurrent
// re-registration can never mutate tables under a request half-way through
// an encode. The version number is observability (which generation
// served this?), deliberately NOT part of the config digest: digests key on
// *content*, so re-registering identical tables keeps the result cache
// warm and two tenants with identical configs share cache entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "jpeg/encoder.hpp"

namespace dnj::serve {

/// One tenant's immutable configuration snapshot. Never mutated after
/// publication — replaced wholesale by TableRegistry::put().
struct TenantEntry {
  std::string name;
  std::uint64_t version = 0;  ///< registry-global monotonic publication stamp

  /// The tenant's encoder configuration with custom tables always
  /// materialized: a registration without custom tables gets the Annex K
  /// pair (so request quality then behaves exactly like standard IJG
  /// quality), and `quality` is normalized to 50 — it plays no part in a
  /// custom-table encode, and normalizing it lets two registrations of the
  /// same computation share one digest (and so result-cache entries).
  jpeg::EncoderConfig base;

  /// digest_config(base): the content key everything downstream derives
  /// from — the result-cache key of this tenant's requests.
  std::uint64_t base_digest = 0;

  /// The tenant's requested result-cache byte quota (0 = none). Recorded
  /// and reported only: the service never reads it. The per-tenant cap the
  /// result cache enforces is ServiceConfig::tenant_quota_bytes, one value
  /// for every tenant.
  std::size_t quota_bytes = 0;
};

/// Thread-safe name -> TenantEntry map. One registry may back any number
/// of services (pass the same shared_ptr via ServiceConfig::registry) so
/// they all serve one coherent tenant set.
class TableRegistry {
 public:
  TableRegistry() = default;
  TableRegistry(const TableRegistry&) = delete;
  TableRegistry& operator=(const TableRegistry&) = delete;

  /// Creates or replaces `name`, returning the published version. `base`
  /// is normalized as documented on TenantEntry::base; `quota_bytes` is
  /// recorded, not enforced (see TenantEntry::quota_bytes).
  std::uint64_t put(const std::string& name, jpeg::EncoderConfig base,
                    std::size_t quota_bytes = 0);

  /// Removes `name`. Returns false when it was not registered. In-flight
  /// requests that already resolved the entry keep their pinned snapshot.
  bool remove(const std::string& name);

  /// The current snapshot for `name`, or null. The returned pointer stays
  /// valid (and immutable) for as long as the caller holds it, regardless
  /// of concurrent put()/remove().
  std::shared_ptr<const TenantEntry> find(const std::string& name) const;

  /// Registered tenant names, sorted (deterministic for stats and tests).
  std::vector<std::string> names() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const TenantEntry>> entries_;
  std::uint64_t next_version_ = 1;
};

}  // namespace dnj::serve
