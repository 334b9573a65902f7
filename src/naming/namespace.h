// The single, universal, hierarchical name space (paper §2.3).
//
// Every protected thing in the system — services, interfaces, objects,
// procedures/methods, directories, files — is a node in one tree. Leaves are
// procedures and files; non-leaves are directories, services, interfaces and
// objects. The reference monitor attaches protection state (an ACL reference
// and a MAC label reference) to every node, which is what lets one central
// facility enforce all protection: "this similarity in structure allows for
// the use of a single, universal name space … and thus enables a central name
// server to enforce all protection."
//
// This class is only the tree; it stores the security references as opaque
// handles and never interprets them. Interpretation is the reference
// monitor's job (src/monitor/), keeping the mechanism in exactly one place.
//
// Thread safety: all public methods may be called concurrently. Mutators
// take the tree lock exclusively; readers share it. Methods that return
// values (ids, paths, SecuritySnapshot) are safe under concurrent mutation.
// Get() returns a pointer whose *address* is stable for the life of the
// NameSpace (nodes are never destroyed), but whose fields may change under a
// concurrent mutator; callers that dereference it across operations must
// either hold external synchronization or tolerate torn metadata — the
// monitor's check path uses SnapshotSecurity() instead.

#ifndef XSEC_SRC_NAMING_NAMESPACE_H_
#define XSEC_SRC_NAMING_NAMESPACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/inline_vector.h"
#include "src/base/shard.h"
#include "src/base/status.h"
#include "src/naming/path.h"
#include "src/principal/principal.h"

namespace xsec {

enum class NodeKind : uint8_t {
  kDirectory = 0,  // pure grouping (also: Java package, SPIN domain)
  kService,        // a loadable system service
  kInterface,      // a group of procedures; the unit extensions extend
  kObject,         // an instance (e.g. a thread, an mbuf pool)
  kProcedure,      // leaf: a callable method/procedure
  kFile,           // leaf: file contents live in the memfs service
};

std::string_view NodeKindName(NodeKind kind);

// True for kinds that may have children.
bool KindAllowsChildren(NodeKind kind);

struct NodeId {
  uint32_t value = kInvalid;

  static constexpr uint32_t kInvalid = 0xffffffff;

  bool valid() const { return value != kInvalid; }

  friend bool operator==(NodeId a, NodeId b) { return a.value == b.value; }
  friend bool operator!=(NodeId a, NodeId b) { return a.value != b.value; }
  friend bool operator<(NodeId a, NodeId b) { return a.value < b.value; }
};

// Opaque references into the security layers. kNoRef means "not set":
// an unset ACL falls back to the nearest ancestor's ACL; an unset label
// falls back to the nearest labeled ancestor (the monitor implements both).
inline constexpr uint32_t kNoRef = 0xffffffff;

struct Node {
  NodeId id;
  NodeId parent;
  NodeKind kind = NodeKind::kDirectory;
  std::string name;          // component name; "" for the root
  bool alive = true;         // false once unbound (ids are never reused)

  // Monitor shard (validity domain). Assigned at Bind and immutable after:
  // top-level containers hash by name, top-level leaves by owner (flat-
  // namespace fallback), deeper nodes inherit their parent's. The root is
  // kAllShards: mutating its metadata invalidates every shard and the
  // root's own domain, since every node can inherit its ACL/label.
  ShardId shard = kAggregateShard;

  PrincipalId owner;         // creating principal; administrate fallback
  uint32_t acl_ref = kNoRef;
  uint32_t label_ref = kNoRef;

  // Children sorted by name for deterministic listing.
  std::map<std::string, NodeId, std::less<>> children;
};

// Ancestor chains deeper than this spill to the heap; 12 levels covers every
// path the services and benches create, so mediated lookups stay
// allocation-free (the F1 cached-check budget counts on it).
inline constexpr size_t kAncestorInlineDepth = 12;
using AncestorBuffer = InlineVector<NodeId, kAncestorInlineDepth>;

class NameSpace {
 public:
  NameSpace();

  NodeId root() const { return NodeId{0}; }

  // Creates a child of `parent`. Fails if the parent is a leaf kind, is dead,
  // or already has a child with that name.
  StatusOr<NodeId> Bind(NodeId parent, std::string_view name, NodeKind kind, PrincipalId owner);

  // Creates every missing intermediate directory, then the final node with
  // `kind`. Existing intermediates are reused regardless of their kind as
  // long as they allow children.
  StatusOr<NodeId> BindPath(std::string_view path, NodeKind kind, PrincipalId owner);

  // Removes a node. Fails on the root or on a node with live children.
  Status Unbind(NodeId node);

  // Pure name resolution; no access checks (the monitor layers those on).
  StatusOr<NodeId> Lookup(std::string_view path) const;

  // Resolution that also reports the ancestor chain (root first, excluding
  // the target). The monitor checks traversal rights on each ancestor. The
  // whole walk runs under one shared-lock acquisition over views into
  // `path`, and the buffer is inline up to kAncestorInlineDepth, so typical
  // lookups do not allocate. On NotFound the buffer holds the chain down to
  // the node that lacks the next component; on an invalid path it is
  // untouched.
  StatusOr<NodeId> LookupWithAncestors(std::string_view path,
                                       AncestorBuffer* ancestors) const;

  // Single-step child lookup.
  StatusOr<NodeId> Child(NodeId parent, std::string_view name) const;

  // Children of a node, sorted by name.
  StatusOr<std::vector<NodeId>> List(NodeId node) const;

  const Node* Get(NodeId id) const;

  // Everything the reference monitor needs to decide an access, copied out
  // under one shared-lock acquisition so the ancestor walk is atomic with
  // respect to concurrent tree mutation. The effective refs are the first
  // non-kNoRef acl_ref / label_ref on the path node → root (ACL/label
  // inheritance); the own refs are the node's own fields.
  struct SecuritySnapshot {
    PrincipalId owner;
    NodeKind kind = NodeKind::kDirectory;
    uint32_t own_acl_ref = kNoRef;
    uint32_t own_label_ref = kNoRef;
    uint32_t effective_acl_ref = kNoRef;
    uint32_t effective_label_ref = kNoRef;
    // The node whose own ACL is the effective one; invalid when no node on
    // the path to the root carries an ACL.
    NodeId effective_acl_node;
    // Validity domain of any decision derived from this snapshot. Concrete
    // for ordinary nodes; kAllShards for the root.
    ShardId shard = kAggregateShard;
  };
  // False iff the node does not exist (or is dead).
  bool SnapshotSecurity(NodeId id, SecuritySnapshot* out) const;

  // Reconstructs the absolute path of a live node.
  std::string PathOf(NodeId id) const;

  // Security-metadata mutators (called by the monitor; bump the node's
  // domain stamp). The ref setters never retag the ref. One node per ref
  // (docs/MODEL.md §15): a ref the monitor created carries its node's shard
  // tag, so its edits bump only that shard, and trusted code must not bind
  // it to any other node. Untagged refs (AclStore::Create(acl),
  // LabelAuthority::StoreLabel) bump every domain and may be bound anywhere.
  Status SetAclRef(NodeId id, uint32_t acl_ref);
  Status SetLabelRef(NodeId id, uint32_t label_ref);
  Status SetOwner(NodeId id, PrincipalId owner);

  size_t node_count() const;

  // The generation of one validity domain (a concrete shard, or kAllShards
  // for the root's): bumped only by mutations whose domain is (or includes)
  // it. Published with release ordering *after* the mutation is complete, so
  // a reader that observes a given generation and then reads the tree sees
  // at least that mutation (see docs/MODEL.md, "Concurrency model"). A
  // root-metadata mutation bumps every shard and the root's domain; an
  // Unbind or metadata change elsewhere bumps only the node's shard. A Bind
  // bumps nothing: no cached decision names an unpublished id.
  uint64_t shard_generation(ShardId domain) const { return stamps_.Read(domain); }

  // Monitor shard of a node id, readable without taking the tree lock (the
  // assignment is immutable once the id is published). Unknown / not-yet-
  // published ids — including NotFound targets — and ids past the map's
  // capacity report kAggregateShard, the domain the monitor never caches.
  // The root reports kAllShards.
  ShardId ShardOf(NodeId id) const;

 private:
  // Unlocked internals; callers hold mu_ (shared for const, exclusive for
  // mutation).
  const Node* GetLocked(NodeId id) const;
  Node* GetMutableLocked(NodeId id);
  StatusOr<NodeId> ChildLocked(NodeId parent, std::string_view name) const;
  StatusOr<NodeId> BindLocked(NodeId parent, std::string_view name, NodeKind kind,
                              PrincipalId owner);
  std::string PathOfLocked(NodeId id) const;
  void PublishShardLocked(uint32_t index, ShardId shard);

  mutable std::shared_mutex mu_;
  // Deque, not vector: node addresses stay stable across Bind, so Get()'s
  // returned pointers never dangle.
  std::deque<Node> nodes_;
  ShardStamps stamps_;

  // Lock-free id→shard map for the cached-check hot path: fixed-size chunks
  // published with release stores. Writers append under mu_; readers never
  // take a lock. Ids beyond the published count (or beyond capacity, ~16M
  // nodes) fall back to the aggregate domain, which stays sound because the
  // monitor decides that domain's checks uncached.
  static constexpr size_t kShardChunkBits = 12;
  static constexpr size_t kShardChunkSize = size_t{1} << kShardChunkBits;
  static constexpr size_t kShardMaxChunks = 4096;
  struct ShardChunk {
    std::array<std::atomic<uint32_t>, kShardChunkSize> shard;
  };
  std::array<std::atomic<ShardChunk*>, kShardMaxChunks> shard_chunks_{};
  std::atomic<size_t> shard_ids_published_{0};
  std::vector<std::unique_ptr<ShardChunk>> shard_chunk_owner_;  // under mu_
};

}  // namespace xsec

#endif  // XSEC_SRC_NAMING_NAMESPACE_H_
