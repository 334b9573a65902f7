#include "src/dac/acl.h"

#include <algorithm>
#include <mutex>

#include "src/base/strings.h"

namespace xsec {

Acl::EntryList* Acl::MutableEntries() {
  if (entries_ == nullptr) {
    auto fresh = std::make_shared<EntryList>();
    EntryList* raw = fresh.get();
    entries_ = std::move(fresh);
    return raw;
  }
  // Clone only when the list is aliased (interned or copied); a uniquely
  // owned list is edited in place.
  if (entries_.use_count() > 1) {
    auto clone = std::make_shared<EntryList>(*entries_);
    EntryList* raw = clone.get();
    entries_ = std::move(clone);
    return raw;
  }
  return const_cast<EntryList*>(entries_.get());
}

void Acl::AddEntry(const AclEntry& entry) {
  EntryList* entries = MutableEntries();
  for (AclEntry& existing : *entries) {
    if (existing.type == entry.type && existing.who == entry.who) {
      existing.modes |= entry.modes;
      return;
    }
  }
  entries->push_back(entry);
}

size_t Acl::RemoveEntriesFor(PrincipalId who) {
  if (entries_ == nullptr) {
    return 0;
  }
  bool any = false;
  for (const AclEntry& e : *entries_) {
    any |= e.who == who;
  }
  if (!any) {
    return 0;  // no clone when nothing would change
  }
  EntryList* entries = MutableEntries();
  size_t before = entries->size();
  entries->erase(std::remove_if(entries->begin(), entries->end(),
                                [who](const AclEntry& e) { return e.who == who; }),
                 entries->end());
  return before - entries->size();
}

AclVerdict Acl::Evaluate(const DynamicBitset& closure, AccessModeSet requested) const {
  if (requested.empty()) {
    return AclVerdict::kGranted;
  }
  AccessModeSet allowed;
  for (const AclEntry& entry : entries()) {
    if (!closure.Test(entry.who.value)) {
      continue;
    }
    if (entry.type == AclEntryType::kDeny) {
      if (entry.modes.Intersects(requested)) {
        return AclVerdict::kDeniedByEntry;
      }
    } else {
      allowed |= entry.modes;
    }
  }
  return allowed.ContainsAll(requested) ? AclVerdict::kGranted : AclVerdict::kNoMatchingGrant;
}

AccessModeSet Acl::EffectiveModes(const DynamicBitset& closure) const {
  AccessModeSet allowed;
  AccessModeSet denied;
  for (const AclEntry& entry : entries()) {
    if (!closure.Test(entry.who.value)) {
      continue;
    }
    if (entry.type == AclEntryType::kDeny) {
      denied |= entry.modes;
    } else {
      allowed |= entry.modes;
    }
  }
  return allowed - denied;
}

std::string Acl::ToString() const {
  std::string out;
  for (const AclEntry& entry : entries()) {
    if (!out.empty()) {
      out += "; ";
    }
    out += entry.type == AclEntryType::kAllow ? "allow" : "deny";
    out += StrFormat(" p%u %s", entry.who.value, entry.modes.ToString().c_str());
  }
  return out.empty() ? "(empty)" : out;
}

namespace {

uint64_t HashEntries(const Acl::EntryList& entries) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const AclEntry& e : entries) {
    mix(static_cast<uint64_t>(e.type));
    mix(e.who.value);
    mix(e.modes.bits());
  }
  return h;
}

}  // namespace

AclStore::AclRef AclStore::Create(Acl acl) { return Create(std::move(acl), kUnknownShard); }

AclStore::AclRef AclStore::Create(Acl acl, ShardId shard) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Intern the entry list: identical ACLs (the overwhelmingly common case in
  // a generated million-node policy) collapse to one immutable vector shared
  // by every slot that carries them, whatever their shards.
  if (!acl.empty()) {
    uint64_t hash = HashEntries(acl.entries());
    auto [it, end] = intern_pool_.equal_range(hash);
    bool hit = false;
    for (; it != end; ++it) {
      if (*it->second == acl.entries()) {
        acl = Acl(it->second);
        hit = true;
        break;
      }
    }
    if (hit) {
      intern_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::shared_ptr<const Acl::EntryList> canon = acl.shared_entries();
      intern_pool_.emplace(hash, std::move(canon));
      intern_unique_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  AclRef ref = static_cast<AclRef>(acls_.size());
  // No stamp moves: the fresh ref is not yet reachable from any node, so no
  // cached decision can depend on it.
  acls_.push_back(Slot{std::move(acl), shard});
  return ref;
}

const Acl* AclStore::Get(AclRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return nullptr;
  }
  return &acls_[ref].acl;
}

AclVerdict AclStore::Evaluate(AclRef ref, const DynamicBitset& closure,
                              AccessModeSet requested) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return requested.empty() ? AclVerdict::kGranted : AclVerdict::kNoMatchingGrant;
  }
  return acls_[ref].acl.Evaluate(closure, requested);
}

bool AclStore::CopyAcl(AclRef ref, Acl* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return false;
  }
  *out = acls_[ref].acl;
  return true;
}

Status AclStore::Replace(AclRef ref, Acl acl) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  acls_[ref].acl = std::move(acl);
  stamps_.Bump(acls_[ref].shard);
  return OkStatus();
}

Status AclStore::AddEntry(AclRef ref, const AclEntry& entry) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  // Edit a copy and publish it whole: a stored entry list is never changed
  // in place. CopyAcl hands out shared copies that are read after the lock
  // is released, and the relaxed use_count() Acl's copy-on-write consults
  // cannot order those reads before an in-place edit.
  Acl edited = acls_[ref].acl;
  edited.AddEntry(entry);
  acls_[ref].acl = std::move(edited);
  stamps_.Bump(acls_[ref].shard);
  return OkStatus();
}

Status AclStore::RemoveEntriesFor(AclRef ref, PrincipalId who) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  Acl edited = acls_[ref].acl;  // never in place; see AddEntry
  edited.RemoveEntriesFor(who);
  acls_[ref].acl = std::move(edited);
  stamps_.Bump(acls_[ref].shard);
  return OkStatus();
}

size_t AclStore::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return acls_.size();
}

}  // namespace xsec
