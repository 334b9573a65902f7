#include "src/naming/namespace.h"

#include <mutex>

#include "src/base/strings.h"

namespace xsec {

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDirectory:
      return "directory";
    case NodeKind::kService:
      return "service";
    case NodeKind::kInterface:
      return "interface";
    case NodeKind::kObject:
      return "object";
    case NodeKind::kProcedure:
      return "procedure";
    case NodeKind::kFile:
      return "file";
  }
  return "unknown";
}

bool KindAllowsChildren(NodeKind kind) {
  return kind != NodeKind::kProcedure && kind != NodeKind::kFile;
}

NameSpace::NameSpace() {
  Node root;
  root.id = NodeId{0};
  root.parent = NodeId{0};
  root.kind = NodeKind::kDirectory;
  root.name = "";
  // Every node can inherit the root's ACL/label, so root metadata mutations
  // must invalidate every shard as well as the root's own domain.
  root.shard = kAllShards;
  nodes_.push_back(std::move(root));
  PublishShardLocked(0, kAllShards);
}

Node* NameSpace::GetMutableLocked(NodeId id) {
  if (id.value >= nodes_.size() || !nodes_[id.value].alive) {
    return nullptr;
  }
  return &nodes_[id.value];
}

const Node* NameSpace::GetLocked(NodeId id) const {
  if (id.value >= nodes_.size() || !nodes_[id.value].alive) {
    return nullptr;
  }
  return &nodes_[id.value];
}

const Node* NameSpace::Get(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetLocked(id);
}

void NameSpace::PublishShardLocked(uint32_t index, ShardId shard) {
  size_t chunk = index >> kShardChunkBits;
  if (chunk >= kShardMaxChunks) {
    return;  // beyond capacity: ShardOf reports kAggregateShard (never cached)
  }
  ShardChunk* c = shard_chunks_[chunk].load(std::memory_order_relaxed);
  if (c == nullptr) {
    auto owned = std::make_unique<ShardChunk>();
    c = owned.get();
    shard_chunk_owner_.push_back(std::move(owned));
    shard_chunks_[chunk].store(c, std::memory_order_release);
  }
  c->shard[index & (kShardChunkSize - 1)].store(shard, std::memory_order_relaxed);
  // The element store above happens-before any reader that observes the new
  // published count.
  shard_ids_published_.store(index + 1, std::memory_order_release);
}

ShardId NameSpace::ShardOf(NodeId id) const {
  if (!id.valid() || id.value >= shard_ids_published_.load(std::memory_order_acquire)) {
    return kAggregateShard;
  }
  size_t chunk = id.value >> kShardChunkBits;
  if (chunk >= kShardMaxChunks) {
    return kAggregateShard;
  }
  const ShardChunk* c = shard_chunks_[chunk].load(std::memory_order_acquire);
  if (c == nullptr) {
    return kAggregateShard;
  }
  return c->shard[id.value & (kShardChunkSize - 1)].load(std::memory_order_relaxed);
}

StatusOr<NodeId> NameSpace::BindLocked(NodeId parent, std::string_view name, NodeKind kind,
                                       PrincipalId owner) {
  Node* p = GetMutableLocked(parent);
  if (p == nullptr) {
    return NotFoundError("parent node does not exist");
  }
  if (!KindAllowsChildren(p->kind)) {
    return FailedPreconditionError(
        StrFormat("node '%s' is a %s and cannot have children", PathOfLocked(parent).c_str(),
                  std::string(NodeKindName(p->kind)).c_str()));
  }
  if (!IsValidComponent(name)) {
    return InvalidArgumentError(StrFormat("invalid name '%s'", std::string(name).c_str()));
  }
  if (p->children.find(name) != p->children.end()) {
    return AlreadyExistsError(
        StrFormat("'%s' already exists under '%s'", std::string(name).c_str(),
                  PathOfLocked(parent).c_str()));
  }
  NodeId id{static_cast<uint32_t>(nodes_.size())};
  Node child;
  child.id = id;
  child.parent = parent;
  child.kind = kind;
  child.name = std::string(name);
  child.owner = owner;
  // Shard assignment (immutable from here on): top-level containers start a
  // subtree of their own, keyed by name; top-level leaves have no subtree,
  // so they follow their owner (the flat-namespace fallback); deeper nodes
  // inherit the subtree's shard.
  if (parent == root()) {
    child.shard = KindAllowsChildren(kind) ? ShardOfName(name) : ShardOfPrincipal(owner.value);
  } else {
    child.shard = p->shard;
  }
  ShardId child_shard = child.shard;
  nodes_.push_back(std::move(child));
  PublishShardLocked(id.value, child_shard);
  p->children.emplace(std::string(name), id);
  // No stamp moves: a bind changes no decision the cache can hold. Before
  // PublishShardLocked the id had no domain, so no check on it was cached,
  // and no decision about any other node depends on a children map.
  return id;
}

StatusOr<NodeId> NameSpace::Bind(NodeId parent, std::string_view name, NodeKind kind,
                                 PrincipalId owner) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return BindLocked(parent, name, kind, owner);
}

StatusOr<NodeId> NameSpace::BindPath(std::string_view path, NodeKind kind, PrincipalId owner) {
  auto components = ParsePath(path);
  if (!components.ok()) {
    return components.status();
  }
  if (components->empty()) {
    return InvalidArgumentError("cannot bind the root");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  NodeId cur = root();
  for (size_t i = 0; i + 1 < components->size(); ++i) {
    auto child = ChildLocked(cur, (*components)[i]);
    if (child.ok()) {
      cur = *child;
      continue;
    }
    // Auto-created intermediates take the *enclosing* directory's owner, not
    // the caller's. Giving them the final node's owner would silently grant
    // the caller the owner-administrate fallback on every path prefix it
    // named — a privilege the caller never held on those directories.
    auto made = BindLocked(cur, (*components)[i], NodeKind::kDirectory, nodes_[cur.value].owner);
    if (!made.ok()) {
      return made.status();
    }
    cur = *made;
  }
  return BindLocked(cur, components->back(), kind, owner);
}

Status NameSpace::Unbind(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(node);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  if (node == root()) {
    return FailedPreconditionError("cannot unbind the root");
  }
  if (!n->children.empty()) {
    return FailedPreconditionError(
        StrFormat("'%s' still has %zu children", PathOfLocked(node).c_str(), n->children.size()));
  }
  Node& parent = nodes_[n->parent.value];
  parent.children.erase(n->name);
  n->alive = false;
  // A dead id's cached decisions must go stale (a cached allow would outlive
  // the node), and they all live in the node's own validity domain. Bumping
  // the parent's domain as well would re-create the invalidation storm for
  // top-level unbinds, whose parent is the root.
  stamps_.Bump(n->shard);
  return OkStatus();
}

StatusOr<NodeId> NameSpace::ChildLocked(NodeId parent, std::string_view name) const {
  const Node* p = GetLocked(parent);
  if (p == nullptr) {
    return NotFoundError("parent node does not exist");
  }
  auto it = p->children.find(name);
  if (it == p->children.end()) {
    return NotFoundError(StrFormat("'%s' has no child '%s'", PathOfLocked(parent).c_str(),
                                   std::string(name).c_str()));
  }
  return it->second;
}

StatusOr<NodeId> NameSpace::Child(NodeId parent, std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ChildLocked(parent, name);
}

StatusOr<NodeId> NameSpace::Lookup(std::string_view path) const {
  return LookupWithAncestors(path, nullptr);
}

StatusOr<NodeId> NameSpace::LookupWithAncestors(std::string_view path,
                                                AncestorBuffer* ancestors) const {
  Status valid = ValidatePath(path);
  if (!valid.ok()) {
    return valid;
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  NodeId cur = root();
  const Node* node = &nodes_[cur.value];
  std::string_view component;
  while (NextComponent(&path, &component)) {
    if (ancestors != nullptr) {
      ancestors->push_back(cur);
    }
    auto it = node->children.find(component);
    if (it == node->children.end()) {
      return ChildLocked(cur, component).status();
    }
    // Children maps hold only live nodes: Unbind erases the entry.
    cur = it->second;
    node = &nodes_[cur.value];
  }
  return cur;
}

StatusOr<std::vector<NodeId>> NameSpace::List(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Node* n = GetLocked(node);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  std::vector<NodeId> out;
  out.reserve(n->children.size());
  for (const auto& [name, id] : n->children) {
    out.push_back(id);
  }
  return out;
}

bool NameSpace::SnapshotSecurity(NodeId id, SecuritySnapshot* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Node* n = GetLocked(id);
  if (n == nullptr) {
    return false;
  }
  out->owner = n->owner;
  out->kind = n->kind;
  out->own_acl_ref = n->acl_ref;
  out->own_label_ref = n->label_ref;
  out->shard = n->shard;
  out->effective_acl_ref = kNoRef;
  out->effective_label_ref = kNoRef;
  out->effective_acl_node = NodeId{};
  // Ancestors of a live node are always alive (only leaves can be unbound),
  // so the walk needs no liveness checks.
  const Node* cur = n;
  while (true) {
    if (out->effective_acl_ref == kNoRef && cur->acl_ref != kNoRef) {
      out->effective_acl_ref = cur->acl_ref;
      out->effective_acl_node = cur->id;
    }
    if (out->effective_label_ref == kNoRef && cur->label_ref != kNoRef) {
      out->effective_label_ref = cur->label_ref;
    }
    if ((out->effective_acl_ref != kNoRef && out->effective_label_ref != kNoRef) ||
        cur->id == root()) {
      break;
    }
    cur = &nodes_[cur->parent.value];
  }
  return true;
}

std::string NameSpace::PathOfLocked(NodeId id) const {
  const Node* n = GetLocked(id);
  if (n == nullptr) {
    return "<dead>";
  }
  if (id == root()) {
    return "/";
  }
  // Two walks up the parent chain: one sizes the path, one fills it in
  // from the end, so the path costs one allocation at most.
  size_t length = 0;
  for (const Node* cur = n; cur->id != root(); cur = &nodes_[cur->parent.value]) {
    length += 1 + cur->name.size();
  }
  std::string out(length, '/');
  for (const Node* cur = n; cur->id != root(); cur = &nodes_[cur->parent.value]) {
    length -= cur->name.size();
    out.replace(length, cur->name.size(), cur->name);
    --length;  // the '/' before it
  }
  return out;
}

std::string NameSpace::PathOf(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return PathOfLocked(id);
}

size_t NameSpace::node_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return nodes_.size();
}

Status NameSpace::SetAclRef(NodeId id, uint32_t acl_ref) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->acl_ref = acl_ref;
  stamps_.Bump(n->shard);
  return OkStatus();
}

Status NameSpace::SetLabelRef(NodeId id, uint32_t label_ref) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->label_ref = label_ref;
  stamps_.Bump(n->shard);
  return OkStatus();
}

Status NameSpace::SetOwner(NodeId id, PrincipalId owner) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->owner = owner;
  stamps_.Bump(n->shard);
  return OkStatus();
}

}  // namespace xsec
