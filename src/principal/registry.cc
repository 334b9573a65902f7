#include "src/principal/registry.h"

#include <algorithm>
#include <deque>

#include "src/base/strings.h"

namespace xsec {

PrincipalRegistry::PrincipalRegistry() = default;

StatusOr<PrincipalId> PrincipalRegistry::Create(std::string_view name, PrincipalKind kind) {
  if (name.empty()) {
    return InvalidArgumentError("principal name must be nonempty");
  }
  for (unsigned char c : name) {
    // Names appear in the whitespace-delimited, '#'-commented policy format
    // and in audit lines; keep them unambiguous.
    if (c <= ' ' || c == 0x7f || c == '#') {
      return InvalidArgumentError(
          "principal name must not contain whitespace, controls, or '#'");
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (by_name_.count(name) != 0) {
    return AlreadyExistsError(StrFormat("principal '%s' already exists", std::string(name).c_str()));
  }
  PrincipalId id{static_cast<uint32_t>(principals_.size())};
  Record rec;
  rec.principal = Principal{id, kind, std::string(name)};
  principals_.push_back(std::move(rec));
  // Key the index by a view into the record's own name: the record address
  // is deque-stable and the name is never mutated after creation.
  by_name_.emplace(std::string_view(principals_.back().principal.name), id.value);
  return id;
}

StatusOr<PrincipalId> PrincipalRegistry::CreateUser(std::string_view name) {
  return Create(name, PrincipalKind::kUser);
}

StatusOr<PrincipalId> PrincipalRegistry::CreateGroup(std::string_view name) {
  return Create(name, PrincipalKind::kGroup);
}

bool PrincipalRegistry::WouldCreateCycleLocked(PrincipalId group, PrincipalId member) const {
  if (member == group) {
    return true;
  }
  const Record& m = principals_[member.value];
  if (m.principal.kind != PrincipalKind::kGroup) {
    return false;
  }
  // BFS down from `member`: if `group` is reachable through members, adding
  // the edge group -> member closes a cycle.
  std::deque<PrincipalId> queue{member};
  DynamicBitset seen(principals_.size());
  seen.Set(member.value);
  while (!queue.empty()) {
    PrincipalId cur = queue.front();
    queue.pop_front();
    for (PrincipalId child : principals_[cur.value].members) {
      if (child == group) {
        return true;
      }
      if (!seen.Test(child.value)) {
        seen.Set(child.value);
        if (principals_[child.value].principal.kind == PrincipalKind::kGroup) {
          queue.push_back(child);
        }
      }
    }
  }
  return false;
}

Status PrincipalRegistry::AddMember(PrincipalId group, PrincipalId member) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (group.value >= principals_.size() || member.value >= principals_.size()) {
    return NotFoundError("no such principal");
  }
  Record& g = principals_[group.value];
  if (g.principal.kind != PrincipalKind::kGroup) {
    return InvalidArgumentError(
        StrFormat("'%s' is not a group", g.principal.name.c_str()));
  }
  if (std::find(g.members.begin(), g.members.end(), member) != g.members.end()) {
    return AlreadyExistsError("already a member");
  }
  if (WouldCreateCycleLocked(group, member)) {
    return FailedPreconditionError(
        StrFormat("adding '%s' to '%s' would create a membership cycle",
                  principals_[member.value].principal.name.c_str(), g.principal.name.c_str()));
  }
  g.members.push_back(member);
  principals_[member.value].member_of.push_back(group);
  // Mutate, then publish (release): a reader that observes the new epoch and
  // then computes a closure sees the new edge.
  membership_epoch_.fetch_add(1, std::memory_order_release);
  return OkStatus();
}

Status PrincipalRegistry::RemoveMember(PrincipalId group, PrincipalId member) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (group.value >= principals_.size() || member.value >= principals_.size()) {
    return NotFoundError("no such principal");
  }
  Record& g = principals_[group.value];
  auto it = std::find(g.members.begin(), g.members.end(), member);
  if (it == g.members.end()) {
    return NotFoundError("not a member");
  }
  g.members.erase(it);
  Record& m = principals_[member.value];
  m.member_of.erase(std::find(m.member_of.begin(), m.member_of.end(), group));
  membership_epoch_.fetch_add(1, std::memory_order_release);
  return OkStatus();
}

StatusOr<PrincipalId> PrincipalRegistry::FindByName(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return NotFoundError(StrFormat("no principal named '%s'", std::string(name).c_str()));
  }
  return PrincipalId{it->second};
}

const Principal* PrincipalRegistry::Get(PrincipalId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id.value >= principals_.size()) {
    return nullptr;
  }
  // The returned Principal's fields are immutable after creation and the
  // deque keeps its address stable, so this pointer stays readable even
  // under concurrent Create/AddMember.
  return &principals_[id.value].principal;
}

size_t PrincipalRegistry::principal_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return principals_.size();
}

std::shared_ptr<const DynamicBitset> PrincipalRegistry::Closure(PrincipalId user) const {
  uint64_t epoch = membership_epoch_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> cache_lock(closure_mu_);
  if (closure_cache_epoch_ != epoch) {
    // Old shared_ptrs stay alive in the hands of in-flight evaluations.
    closure_cache_.clear();
    closure_cache_epoch_ = epoch;
  }
  auto it = closure_cache_.find(user.value);
  if (it != closure_cache_.end()) {
    return it->second;
  }
  DynamicBitset closure;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    closure.Resize(principals_.size());
    if (user.value < principals_.size()) {
      std::deque<PrincipalId> queue{user};
      closure.Set(user.value);
      while (!queue.empty()) {
        PrincipalId cur = queue.front();
        queue.pop_front();
        for (PrincipalId parent : principals_[cur.value].member_of) {
          if (!closure.Test(parent.value)) {
            closure.Set(parent.value);
            queue.push_back(parent);
          }
        }
      }
    }
  }
  auto sp = std::make_shared<const DynamicBitset>(std::move(closure));
  closure_cache_.emplace(user.value, sp);
  return sp;
}

StatusOr<std::vector<PrincipalId>> PrincipalRegistry::MembersOf(PrincipalId group) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (group.value >= principals_.size()) {
    return NotFoundError("no such principal");
  }
  const Record& g = principals_[group.value];
  if (g.principal.kind != PrincipalKind::kGroup) {
    return InvalidArgumentError("not a group");
  }
  return g.members;
}

Status PrincipalRegistry::SetCredential(PrincipalId user, std::string_view credential) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (user.value >= principals_.size()) {
    return NotFoundError("no such principal");
  }
  Record& rec = principals_[user.value];
  if (rec.principal.kind != PrincipalKind::kUser) {
    return InvalidArgumentError("credentials belong to users, not groups");
  }
  rec.credential = std::string(credential);
  return OkStatus();
}

StatusOr<PrincipalId> PrincipalRegistry::Authenticate(std::string_view name,
                                                      std::string_view credential) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return NotFoundError(StrFormat("no principal named '%s'", std::string(name).c_str()));
  }
  const Record& rec = principals_[it->second];
  if (rec.principal.kind != PrincipalKind::kUser) {
    return InvalidArgumentError("groups cannot log in");
  }
  if (rec.credential.empty() || rec.credential != credential) {
    return PermissionDeniedError("bad credential");
  }
  return PrincipalId{it->second};
}

}  // namespace xsec
