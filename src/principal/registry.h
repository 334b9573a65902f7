// The principal registry: creation of users and groups, nested group
// membership, and cached transitive membership closures.
//
// Authentication proper is out of the paper's scope (§1); the registry
// provides a deliberately simple credential check so examples and tests can
// model a login step without pretending to be a real authentication protocol.
//
// Thread safety: all methods may be called concurrently. Membership
// mutations take the registry lock exclusively and bump membership_epoch_
// before releasing it. The check path obtains closures through Closure(),
// which hands out shared ownership so a concurrently invalidated closure
// stays alive for in-flight evaluations.

#ifndef XSEC_SRC_PRINCIPAL_REGISTRY_H_
#define XSEC_SRC_PRINCIPAL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/status.h"
#include "src/principal/principal.h"

namespace xsec {

class PrincipalRegistry {
 public:
  PrincipalRegistry();

  // Creation. Names are unique across users and groups.
  StatusOr<PrincipalId> CreateUser(std::string_view name);
  StatusOr<PrincipalId> CreateGroup(std::string_view name);

  // Membership. `member` may be a user or a group (groups nest, as in AFS
  // and NT). Cycles among groups are rejected so the closure is well-founded.
  Status AddMember(PrincipalId group, PrincipalId member);
  Status RemoveMember(PrincipalId group, PrincipalId member);

  // Lookup.
  StatusOr<PrincipalId> FindByName(std::string_view name) const;
  const Principal* Get(PrincipalId id) const;
  size_t principal_count() const;

  // The transitive closure of `user`: a bitset over principal ids containing
  // the user itself plus every group it belongs to, directly or through
  // nesting. Cached; invalidated on any membership change. The shared_ptr
  // keeps the closure valid even if a concurrent membership mutation
  // invalidates the cache mid-evaluation.
  std::shared_ptr<const DynamicBitset> Closure(PrincipalId user) const;

  // Direct members of a group.
  StatusOr<std::vector<PrincipalId>> MembersOf(PrincipalId group) const;

  // Monotonic counter bumped on every membership mutation. The reference
  // monitor's decision cache validates entries against this. Published with
  // release ordering after the mutation it stamps.
  uint64_t membership_epoch() const { return membership_epoch_.load(std::memory_order_acquire); }

  // -- Simulated authentication ---------------------------------------------
  // Associates a credential with a user; Authenticate() checks it. This is a
  // stand-in for the authentication machinery the paper scopes out.
  Status SetCredential(PrincipalId user, std::string_view credential);
  StatusOr<PrincipalId> Authenticate(std::string_view name, std::string_view credential) const;

 private:
  struct Record {
    Principal principal;
    std::vector<PrincipalId> member_of;   // direct parent groups
    std::vector<PrincipalId> members;     // direct members (groups only)
    std::string credential;               // users only; empty = no login
  };

  // Callers hold mu_.
  bool WouldCreateCycleLocked(PrincipalId group, PrincipalId member) const;
  StatusOr<PrincipalId> Create(std::string_view name, PrincipalKind kind);

  mutable std::shared_mutex mu_;  // guards principals_ and by_name_
  // Deque, not vector: record addresses stay stable across Create, so Get()'s
  // returned pointers never dangle.
  std::deque<Record> principals_;
  // Keys are views into the records' own (deque-stable, never-renamed) name
  // strings: at a million principals the index carries no second copy of
  // every name, and lookups by string_view never allocate.
  std::unordered_map<std::string_view, uint32_t> by_name_;
  std::atomic<uint64_t> membership_epoch_{0};

  // Closure cache, rebuilt lazily after membership changes. Guarded by its
  // own mutex; computing a missing closure takes mu_ (shared) *inside*
  // closure_mu_, and mutators never take closure_mu_, so the order is safe.
  mutable std::mutex closure_mu_;
  mutable std::unordered_map<uint32_t, std::shared_ptr<const DynamicBitset>> closure_cache_;
  mutable uint64_t closure_cache_epoch_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_PRINCIPAL_REGISTRY_H_
