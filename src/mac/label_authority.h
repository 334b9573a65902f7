// The label authority: the system-wide definitions of trust levels and
// categories, plus storage for the labels attached to name-space nodes.
//
// The paper's §2.2 example defines three levels ("others" < "organization" <
// "local") and four categories ("myself", "department-1", "department-2",
// "outside"); examples/applet_orgs.cpp reproduces it verbatim.
//
// Thread safety: all methods may be called concurrently; mutators take the
// authority's lock exclusively, and those that can change a decision bump
// their domain's epoch before releasing it.
// Stored labels are immutable SecurityClass objects held by shared_ptr:
// ReplaceLabel swaps in a fresh object, so LabelHandle() hands the check path
// shared ownership of a consistent label with no copy on the hot path. The
// reference-returning accessors (GetLabel, ClearanceOf, level_names, ...)
// are for single-threaded setup, tests, and serialization.

#ifndef XSEC_SRC_MAC_LABEL_AUTHORITY_H_
#define XSEC_SRC_MAC_LABEL_AUTHORITY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/shard.h"
#include "src/base/status.h"
#include "src/mac/security_class.h"

namespace xsec {

class LabelAuthority {
 public:
  LabelAuthority();

  // Defines the linearly ordered levels, ascending trust. May be called once;
  // before it is called a single implicit level 0 exists.
  Status DefineLevels(const std::vector<std::string>& ascending_names);

  // Defines one category; returns its id (bit index).
  StatusOr<size_t> DefineCategory(std::string_view name);

  StatusOr<TrustLevel> LevelByName(std::string_view name) const;
  StatusOr<size_t> CategoryByName(std::string_view name) const;
  size_t level_count() const;
  size_t category_count() const;

  // Enumeration for policy serialization (ascending / id order). Not safe
  // against concurrent DefineLevels/DefineCategory.
  const std::vector<std::string>& level_names() const { return level_names_; }
  const std::vector<std::string>& category_names() const { return category_names_; }
  // True once DefineLevels has replaced the implicit single level.
  bool levels_defined() const;

  // Builds a class from names: MakeClass("organization", {"department-1"}).
  StatusOr<SecurityClass> MakeClass(std::string_view level_name,
                                    const std::vector<std::string>& category_names) const;

  // Lattice extrema under the current definitions.
  SecurityClass Bottom() const;
  SecurityClass Top() const;

  // "organization:{department-1,department-2}".
  std::string ClassToString(const SecurityClass& cls) const;

  // -- Label storage for name-space nodes -----------------------------------
  // Nodes reference labels by opaque ref (Node::label_ref).
  using LabelRef = uint32_t;
  // Stores a label tagged `shard` (see below), returning its reference.
  LabelRef StoreLabel(const SecurityClass& cls, ShardId shard = kUnknownShard);
  const SecurityClass* GetLabel(LabelRef ref) const;
  // Shared ownership of the stored label; stays valid across a concurrent
  // ReplaceLabel. Null on a bad ref. This is the check path's accessor.
  std::shared_ptr<const SecurityClass> LabelHandle(LabelRef ref) const;
  Status ReplaceLabel(LabelRef ref, const SecurityClass& cls);

  // Shard tagging mirrors AclStore (docs/MODEL.md §15): the tag is fixed
  // at StoreLabel — the monitor passes the referencing node's shard
  // (kAllShards for the root), other callers leave it kUnknownShard.
  // ReplaceLabel on a concretely tagged slot bumps only that shard's epoch;
  // any other tag bumps every shard and the root's domain. Level/category
  // definitions and clearances are system-wide MAC state, so they bump
  // every domain. Storing a label bumps nothing.

  // The label epoch of one validity domain (a concrete shard, or kAllShards
  // for the root's). Published with release ordering after the mutation it
  // stamps.
  uint64_t shard_epoch(ShardId domain) const { return stamps_.Read(domain); }

  // -- Per-principal clearances ------------------------------------------------
  // The paper has threads "function at the same security class as the
  // associated principal"; the clearance is that per-principal bound. A
  // principal with a clearance may only obtain subjects at classes the
  // clearance dominates (SecureSystem::LoginChecked enforces this). No
  // clearance = unrestricted. Keyed by principal id; the label authority
  // owns all class assignments, so the binding lives here.
  void SetClearance(uint32_t principal_id, SecurityClass clearance);
  void ClearClearance(uint32_t principal_id);
  // Null if no clearance is set for this principal. The pointee may be
  // replaced by a concurrent SetClearance; use only at login/setup time.
  const SecurityClass* ClearanceOf(uint32_t principal_id) const;
  // Enumeration for policy serialization. Not safe against concurrent
  // clearance mutation.
  const std::unordered_map<uint32_t, SecurityClass>& clearances() const { return clearances_; }

 private:
  // Unlocked internals; callers hold mu_.
  StatusOr<TrustLevel> LevelByNameLocked(std::string_view name) const;
  StatusOr<size_t> CategoryByNameLocked(std::string_view name) const;

  mutable std::shared_mutex mu_;
  std::vector<std::string> level_names_;
  std::unordered_map<std::string, TrustLevel> level_by_name_;
  std::vector<std::string> category_names_;
  std::unordered_map<std::string, size_t> category_by_name_;
  // Deque of immutable labels: addresses of the shared_ptr slots are stable
  // and the pointed-to classes are never mutated in place.
  std::deque<std::shared_ptr<const SecurityClass>> labels_;
  std::deque<ShardId> label_shards_;  // parallel to labels_; under mu_
  std::unordered_map<uint32_t, SecurityClass> clearances_;
  ShardStamps stamps_;
};

}  // namespace xsec

#endif  // XSEC_SRC_MAC_LABEL_AUTHORITY_H_
