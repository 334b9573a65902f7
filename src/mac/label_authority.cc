#include "src/mac/label_authority.h"

#include <mutex>

#include "src/base/strings.h"

namespace xsec {

std::string SecurityClass::ToString() const {
  return StrFormat("(%u,%s)", static_cast<unsigned>(level_), categories_.ToString().c_str());
}

LabelAuthority::LabelAuthority() {
  // A single implicit level exists so unlabeled systems degenerate to
  // "MAC off": every class is (0, {}) and everything dominates everything.
  level_names_.push_back("unclassified");
  level_by_name_.emplace("unclassified", 0);
}

Status LabelAuthority::DefineLevels(const std::vector<std::string>& ascending_names) {
  if (ascending_names.empty()) {
    return InvalidArgumentError("at least one level is required");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (level_names_.size() > 1) {
    return FailedPreconditionError("levels are already defined");
  }
  std::unordered_map<std::string, TrustLevel> by_name;
  for (size_t i = 0; i < ascending_names.size(); ++i) {
    if (ascending_names[i].empty()) {
      return InvalidArgumentError("level names must be nonempty");
    }
    auto [it, inserted] = by_name.emplace(ascending_names[i], static_cast<TrustLevel>(i));
    if (!inserted) {
      return InvalidArgumentError(
          StrFormat("duplicate level name '%s'", ascending_names[i].c_str()));
    }
  }
  level_names_ = ascending_names;
  level_by_name_ = std::move(by_name);
  stamps_.Bump(kAllShards);
  return OkStatus();
}

StatusOr<size_t> LabelAuthority::DefineCategory(std::string_view name) {
  if (name.empty()) {
    return InvalidArgumentError("category name must be nonempty");
  }
  std::string key(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (category_by_name_.count(key) != 0) {
    return AlreadyExistsError(StrFormat("category '%s' already exists", key.c_str()));
  }
  size_t id = category_names_.size();
  category_names_.push_back(key);
  category_by_name_.emplace(std::move(key), id);
  stamps_.Bump(kAllShards);
  return id;
}

StatusOr<TrustLevel> LabelAuthority::LevelByNameLocked(std::string_view name) const {
  auto it = level_by_name_.find(std::string(name));
  if (it == level_by_name_.end()) {
    return NotFoundError(StrFormat("no trust level named '%s'", std::string(name).c_str()));
  }
  return it->second;
}

StatusOr<size_t> LabelAuthority::CategoryByNameLocked(std::string_view name) const {
  auto it = category_by_name_.find(std::string(name));
  if (it == category_by_name_.end()) {
    return NotFoundError(StrFormat("no category named '%s'", std::string(name).c_str()));
  }
  return it->second;
}

StatusOr<TrustLevel> LabelAuthority::LevelByName(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return LevelByNameLocked(name);
}

StatusOr<size_t> LabelAuthority::CategoryByName(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CategoryByNameLocked(name);
}

size_t LabelAuthority::level_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return level_names_.size();
}

size_t LabelAuthority::category_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return category_names_.size();
}

bool LabelAuthority::levels_defined() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return level_names_.size() > 1 || level_names_[0] != "unclassified";
}

StatusOr<SecurityClass> LabelAuthority::MakeClass(
    std::string_view level_name, const std::vector<std::string>& category_names) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto level = LevelByNameLocked(level_name);
  if (!level.ok()) {
    return level.status();
  }
  CategorySet cats(category_names_.size());
  for (const std::string& cat : category_names) {
    auto id = CategoryByNameLocked(cat);
    if (!id.ok()) {
      return id.status();
    }
    cats.Set(*id);
  }
  return SecurityClass(*level, std::move(cats));
}

SecurityClass LabelAuthority::Bottom() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return SecurityClass(0, CategorySet(category_names_.size()));
}

SecurityClass LabelAuthority::Top() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  CategorySet all(category_names_.size());
  all.SetAll();
  return SecurityClass(static_cast<TrustLevel>(level_names_.size() - 1), std::move(all));
}

std::string LabelAuthority::ClassToString(const SecurityClass& cls) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string level = cls.level() < level_names_.size()
                          ? level_names_[cls.level()]
                          : StrFormat("level-%u", static_cast<unsigned>(cls.level()));
  std::string cats;
  for (size_t id : cls.categories().ToIndices()) {
    if (!cats.empty()) {
      cats += ",";
    }
    cats += id < category_names_.size() ? category_names_[id] : StrFormat("cat-%zu", id);
  }
  return StrFormat("%s:{%s}", level.c_str(), cats.c_str());
}

LabelAuthority::LabelRef LabelAuthority::StoreLabel(const SecurityClass& cls, ShardId shard) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  LabelRef ref = static_cast<LabelRef>(labels_.size());
  labels_.push_back(std::make_shared<const SecurityClass>(cls));
  label_shards_.push_back(shard);
  // No epoch moves: an unreferenced ref cannot be behind any cached decision.
  return ref;
}

const SecurityClass* LabelAuthority::GetLabel(LabelRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= labels_.size()) {
    return nullptr;
  }
  // Valid until the label at `ref` is replaced; single-threaded use only.
  return labels_[ref].get();
}

std::shared_ptr<const SecurityClass> LabelAuthority::LabelHandle(LabelRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= labels_.size()) {
    return nullptr;
  }
  return labels_[ref];
}

void LabelAuthority::SetClearance(uint32_t principal_id, SecurityClass clearance) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  clearances_[principal_id] = std::move(clearance);
  stamps_.Bump(kAllShards);
}

void LabelAuthority::ClearClearance(uint32_t principal_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  clearances_.erase(principal_id);
  stamps_.Bump(kAllShards);
}

const SecurityClass* LabelAuthority::ClearanceOf(uint32_t principal_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = clearances_.find(principal_id);
  return it == clearances_.end() ? nullptr : &it->second;
}

Status LabelAuthority::ReplaceLabel(LabelRef ref, const SecurityClass& cls) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= labels_.size()) {
    return NotFoundError("no such label");
  }
  // Swap in a fresh immutable object; handles issued before this call keep
  // the old label alive for their in-flight evaluations.
  labels_[ref] = std::make_shared<const SecurityClass>(cls);
  stamps_.Bump(label_shards_[ref]);
  return OkStatus();
}

}  // namespace xsec
