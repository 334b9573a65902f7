#include "src/policy/policy_io.h"

#include <unistd.h>

#include <cstdio>
#include <set>

#include "src/base/failpoint.h"
#include "src/base/strings.h"

namespace xsec {
namespace {

StatusOr<NodeKind> KindByName(std::string_view name) {
  for (NodeKind kind : {NodeKind::kDirectory, NodeKind::kService, NodeKind::kInterface,
                        NodeKind::kObject, NodeKind::kProcedure, NodeKind::kFile}) {
    if (name == NodeKindName(kind)) {
      return kind;
    }
  }
  return InvalidArgumentError(StrFormat("unknown node kind '%s'", std::string(name).c_str()));
}

// The serialized form must load back: every token we emit has to be a name
// LoadPolicy can resolve. A kernel can legally hold state with no such name
// — a label whose level index exceeds the defined levels, a category bit
// beyond the defined categories, a node owned by a principal id that is not
// in the registry. Emitting a synthetic fallback token ("level-5", "cat-9",
// "p42") would produce a policy file that errors on reload, so serialization
// fails loudly instead, naming the offending object.
StatusOr<std::string> PrincipalName(Kernel& kernel, PrincipalId id, const char* context) {
  const Principal* p = kernel.principals().Get(id);
  if (p == nullptr) {
    return FailedPreconditionError(
        StrFormat("%s references principal id %u, which is not in the registry; "
                  "the policy would not load back",
                  context, id.value));
  }
  return p->name;
}

// Appends " <level> [<cat>...]" for `cls` to *line.
Status AppendClassTokens(Kernel& kernel, const SecurityClass& cls, const char* context,
                         std::string* line) {
  const auto& level_names = kernel.labels().level_names();
  if (cls.level() >= level_names.size()) {
    return FailedPreconditionError(
        StrFormat("%s uses level %u but only %zu level(s) are defined; "
                  "the policy would not load back",
                  context, static_cast<unsigned>(cls.level()), level_names.size()));
  }
  *line += " " + level_names[cls.level()];
  const auto& category_names = kernel.labels().category_names();
  for (size_t cat : cls.categories().ToIndices()) {
    if (cat >= category_names.size()) {
      return FailedPreconditionError(
          StrFormat("%s uses category %zu but only %zu categories are defined; "
                    "the policy would not load back",
                    context, cat, category_names.size()));
    }
    *line += " " + category_names[cat];
  }
  return OkStatus();
}

Status SerializeNodePolicy(Kernel& kernel, NodeId id, std::string* out) {
  const Node* node = kernel.name_space().Get(id);
  std::string path = kernel.name_space().PathOf(id);
  if (id != kernel.name_space().root()) {
    auto owner = PrincipalName(kernel, node->owner,
                               StrFormat("node '%s'", path.c_str()).c_str());
    if (!owner.ok()) {
      return owner.status();
    }
    *out += StrFormat("node %s %s %s\n", path.c_str(),
                      std::string(NodeKindName(node->kind)).c_str(), owner->c_str());
  }
  if (node->label_ref != kNoRef) {
    const SecurityClass* cls = kernel.labels().GetLabel(node->label_ref);
    std::string line = StrFormat("label %s", path.c_str());
    XSEC_RETURN_IF_ERROR(AppendClassTokens(
        kernel, *cls, StrFormat("label on '%s'", path.c_str()).c_str(), &line));
    *out += line + "\n";
  }
  if (node->acl_ref != kNoRef) {
    const Acl* acl = kernel.acls().Get(node->acl_ref);
    if (acl->empty()) {
      // An empty own ACL is meaningful: it overrides any inherited ACL and
      // denies everything, so it must survive serialization explicitly.
      *out += StrFormat("acl %s none\n", path.c_str());
    }
    for (const AclEntry& entry : acl->entries()) {
      auto who = PrincipalName(kernel, entry.who,
                               StrFormat("acl on '%s'", path.c_str()).c_str());
      if (!who.ok()) {
        return who.status();
      }
      *out += StrFormat("acl %s %s %s %s\n", path.c_str(),
                        entry.type == AclEntryType::kAllow ? "allow" : "deny", who->c_str(),
                        entry.modes.ToString().c_str());
    }
  }
  auto children = kernel.name_space().List(id);
  if (children.ok()) {
    for (NodeId child : *children) {
      XSEC_RETURN_IF_ERROR(SerializeNodePolicy(kernel, child, out));
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::string> SerializePolicy(Kernel& kernel) {
  std::string out = "xsec-policy v1\n";

  if (kernel.labels().levels_defined()) {
    out += "levels";
    for (const std::string& level : kernel.labels().level_names()) {
      out += " " + level;
    }
    out += "\n";
  }
  for (const std::string& category : kernel.labels().category_names()) {
    out += "category " + category + "\n";
  }

  PrincipalRegistry& registry = kernel.principals();
  for (uint32_t i = 0; i < registry.principal_count(); ++i) {
    const Principal* p = registry.Get(PrincipalId{i});
    out += std::string(p->kind == PrincipalKind::kUser ? "user " : "group ") + p->name + "\n";
  }
  for (uint32_t i = 0; i < registry.principal_count(); ++i) {
    const Principal* p = registry.Get(PrincipalId{i});
    if (p->kind != PrincipalKind::kGroup) {
      continue;
    }
    auto members = registry.MembersOf(PrincipalId{i});
    for (PrincipalId member : *members) {
      auto name = PrincipalName(kernel, member,
                                StrFormat("group '%s'", p->name.c_str()).c_str());
      if (!name.ok()) {
        return name.status();
      }
      out += StrFormat("member %s %s\n", p->name.c_str(), name->c_str());
    }
  }
  // Clearances, in principal-id order for determinism.
  for (uint32_t i = 0; i < registry.principal_count(); ++i) {
    const SecurityClass* clearance = kernel.labels().ClearanceOf(i);
    if (clearance == nullptr) {
      continue;
    }
    auto name = PrincipalName(kernel, PrincipalId{i}, "clearance");
    if (!name.ok()) {
      return name.status();
    }
    std::string line = "clearance " + *name;
    XSEC_RETURN_IF_ERROR(AppendClassTokens(
        kernel, *clearance,
        StrFormat("clearance of '%s'", name->c_str()).c_str(), &line));
    out += line + "\n";
  }
  if (kernel.monitor().security_officer().valid()) {
    auto name = PrincipalName(kernel, kernel.monitor().security_officer(), "officer");
    if (!name.ok()) {
      return name.status();
    }
    out += "officer " + *name + "\n";
  }

  XSEC_RETURN_IF_ERROR(SerializeNodePolicy(kernel, kernel.name_space().root(), &out));
  return out;
}

Status LoadPolicy(std::string_view text, Kernel* kernel) {
  // Each directive applies through the store mutator that moves the stamps
  // of what it changes, so the cached decisions it can change go stale as
  // it applies (docs/MODEL.md §8).
  auto fail = [](size_t line_number, std::string message) {
    return InvalidArgumentError(
        StrFormat("policy line %zu: %s", line_number, message.c_str()));
  };

  auto principal_by_name = [kernel](const std::string& name) -> StatusOr<PrincipalId> {
    return kernel->principals().FindByName(name);
  };

  std::vector<std::string> lines = StrSplit(text, '\n');
  bool saw_header = false;
  // Paths whose first `acl` directive has been seen (that directive resets
  // the node's ACL; later ones append).
  std::set<std::string> acl_reset;

  for (size_t i = 0; i < lines.size(); ++i) {
    size_t line_number = i + 1;
    std::string line = lines[i];
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::vector<std::string> tokens = StrSplit(line, ' ', /*skip_empty=*/true);
    if (tokens.empty()) {
      continue;
    }
    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "xsec-policy" || tokens[1] != "v1") {
        return fail(line_number, "expected header 'xsec-policy v1'");
      }
      saw_header = true;
      continue;
    }
    const std::string& directive = tokens[0];

    if (directive == "levels") {
      std::vector<std::string> names(tokens.begin() + 1, tokens.end());
      if (names.empty()) {
        return fail(line_number, "levels needs at least one name");
      }
      if (kernel->labels().levels_defined()) {
        if (kernel->labels().level_names() != names) {
          return fail(line_number, "levels are already defined differently");
        }
        continue;
      }
      Status status = kernel->labels().DefineLevels(names);
      if (!status.ok()) {
        return fail(line_number, status.ToString());
      }
    } else if (directive == "category") {
      if (tokens.size() != 2) {
        return fail(line_number, "category needs exactly one name");
      }
      auto id = kernel->labels().DefineCategory(tokens[1]);
      if (!id.ok() && id.status().code() != StatusCode::kAlreadyExists) {
        return fail(line_number, id.status().ToString());
      }
    } else if (directive == "user" || directive == "group") {
      if (tokens.size() != 2) {
        return fail(line_number, directive + " needs exactly one name");
      }
      auto id = directive == "user" ? kernel->principals().CreateUser(tokens[1])
                                    : kernel->principals().CreateGroup(tokens[1]);
      if (!id.ok() && id.status().code() != StatusCode::kAlreadyExists) {
        return fail(line_number, id.status().ToString());
      }
    } else if (directive == "member") {
      if (tokens.size() != 3) {
        return fail(line_number, "member needs <group> <member>");
      }
      auto group = principal_by_name(tokens[1]);
      auto member = principal_by_name(tokens[2]);
      if (!group.ok() || !member.ok()) {
        return fail(line_number, "unknown principal in member directive");
      }
      Status status = kernel->principals().AddMember(*group, *member);
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
        return fail(line_number, status.ToString());
      }
    } else if (directive == "clearance") {
      if (tokens.size() < 3) {
        return fail(line_number, "clearance needs <user> <level> [<cat>...]");
      }
      auto user = principal_by_name(tokens[1]);
      if (!user.ok()) {
        return fail(line_number, "unknown principal in clearance directive");
      }
      std::vector<std::string> cats(tokens.begin() + 3, tokens.end());
      auto cls = kernel->labels().MakeClass(tokens[2], cats);
      if (!cls.ok()) {
        return fail(line_number, cls.status().ToString());
      }
      kernel->labels().SetClearance(user->value, *cls);
    } else if (directive == "officer") {
      if (tokens.size() != 2) {
        return fail(line_number, "officer needs exactly one name");
      }
      auto id = principal_by_name(tokens[1]);
      if (!id.ok()) {
        return fail(line_number, "unknown principal in officer directive");
      }
      kernel->monitor().set_security_officer(*id);
    } else if (directive == "node") {
      if (tokens.size() != 4) {
        return fail(line_number, "node needs <path> <kind> <owner>");
      }
      auto kind = KindByName(tokens[2]);
      if (!kind.ok()) {
        return fail(line_number, kind.status().ToString());
      }
      auto owner = principal_by_name(tokens[3]);
      if (!owner.ok()) {
        return fail(line_number, "unknown owner in node directive");
      }
      auto existing = kernel->name_space().Lookup(tokens[1]);
      if (existing.ok()) {
        // Re-using a pre-existing node (a service registered at boot, say) is
        // fine, but only if it is the kind the policy says it is. Silently
        // keeping a mismatched kind would give the loaded policy a different
        // shape than the one that was serialized.
        const Node* n = kernel->name_space().Get(*existing);
        if (n->kind != *kind) {
          return fail(line_number,
                      StrFormat("node '%s' already exists as %s, policy says %s",
                                tokens[1].c_str(), std::string(NodeKindName(n->kind)).c_str(),
                                std::string(NodeKindName(*kind)).c_str()));
        }
        (void)kernel->name_space().SetOwner(*existing, *owner);
      } else {
        auto node = kernel->name_space().BindPath(tokens[1], *kind, *owner);
        if (!node.ok()) {
          return fail(line_number, node.status().ToString());
        }
      }
    } else if (directive == "label") {
      if (tokens.size() < 3) {
        return fail(line_number, "label needs <path> <level> [<cat>...]");
      }
      auto node = kernel->name_space().Lookup(tokens[1]);
      if (!node.ok()) {
        return fail(line_number, "label names an unknown node");
      }
      std::vector<std::string> cats(tokens.begin() + 3, tokens.end());
      auto cls = kernel->labels().MakeClass(tokens[2], cats);
      if (!cls.ok()) {
        return fail(line_number, cls.status().ToString());
      }
      const Node* n = kernel->name_space().Get(*node);
      if (n->label_ref != kNoRef) {
        (void)kernel->labels().ReplaceLabel(n->label_ref, *cls);
      } else {
        (void)kernel->name_space().SetLabelRef(*node, kernel->labels().StoreLabel(*cls));
      }
    } else if (directive == "acl") {
      if (tokens.size() != 5 && !(tokens.size() == 3 && tokens[2] == "none")) {
        return fail(line_number, "acl needs <path> allow|deny <principal> <modes>, or none");
      }
      auto node = kernel->name_space().Lookup(tokens[1]);
      if (!node.ok()) {
        return fail(line_number, "acl names an unknown node");
      }
      if (tokens.size() == 3) {
        // "acl <path> none": install an explicit empty own ACL.
        const Node* n = kernel->name_space().Get(*node);
        acl_reset.insert(tokens[1]);
        if (n->acl_ref != kNoRef) {
          (void)kernel->acls().Replace(n->acl_ref, Acl());
        } else {
          (void)kernel->name_space().SetAclRef(*node, kernel->acls().Create(Acl()));
        }
        continue;
      }
      AclEntryType type;
      if (tokens[2] == "allow") {
        type = AclEntryType::kAllow;
      } else if (tokens[2] == "deny") {
        type = AclEntryType::kDeny;
      } else {
        return fail(line_number, "acl polarity must be allow or deny");
      }
      auto who = principal_by_name(tokens[3]);
      if (!who.ok()) {
        return fail(line_number, "unknown principal in acl directive");
      }
      auto modes = AccessModeSet::Parse(tokens[4]);
      if (!modes.ok()) {
        return fail(line_number, modes.status().ToString());
      }
      const Node* n = kernel->name_space().Get(*node);
      AclEntry entry{type, *who, *modes};
      if (acl_reset.insert(tokens[1]).second) {
        // First acl directive for this path: replace the node's own ACL.
        Acl fresh;
        fresh.AddEntry(entry);
        if (n->acl_ref != kNoRef) {
          (void)kernel->acls().Replace(n->acl_ref, std::move(fresh));
        } else {
          (void)kernel->name_space().SetAclRef(*node, kernel->acls().Create(std::move(fresh)));
        }
      } else {
        (void)kernel->acls().AddEntry(n->acl_ref, entry);
      }
    } else {
      return fail(line_number, StrFormat("unknown directive '%s'", directive.c_str()));
    }
  }
  if (!saw_header) {
    return InvalidArgumentError("empty policy: missing 'xsec-policy v1' header");
  }
  return OkStatus();
}

namespace {

constexpr std::string_view kChecksumPrefix = "# xsec-checksum ";

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string ChecksumTrailer(std::string_view body) {
  return StrFormat("%s%016llx\n", std::string(kChecksumPrefix).c_str(),
                   static_cast<unsigned long long>(Fnv1a64(body)));
}

// True iff `text` ends with a checksum trailer that matches the bytes before
// it. A torn write loses the trailer (it is written last), so this is the
// integrity test LoadPolicyFile uses to tell an intact file from wreckage.
bool ChecksumValid(std::string_view text) {
  size_t line_start = text.rfind('\n', text.size() >= 2 ? text.size() - 2 : 0);
  line_start = line_start == std::string_view::npos ? 0 : line_start + 1;
  std::string_view last_line = text.substr(line_start);
  if (!StartsWith(last_line, kChecksumPrefix)) {
    return false;
  }
  return std::string(last_line) == ChecksumTrailer(text.substr(0, line_start));
}

StatusOr<std::string> SlurpFile(const std::string& path) {
  XSEC_FAILPOINT("policy.io.read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

}  // namespace

Status SavePolicyFile(Kernel& kernel, const std::string& path) {
  auto text = SerializePolicy(kernel);
  if (!text.ok()) {
    return text.status();
  }
  std::string body = *text + ChecksumTrailer(*text);
  const std::string tmp = path + ".tmp";
  const std::string bak = path + ".bak";

  XSEC_FAILPOINT("policy.io.open");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open '%s' for writing", tmp.c_str()));
  }
  // The failpoint splits the write in two so an injected failure leaves a
  // genuinely torn temp file (first half flushed, trailer missing) — the
  // shape a real mid-write crash produces.
  size_t half = body.size() / 2;
  bool ok = std::fwrite(body.data(), 1, half, f) == half;
  std::fflush(f);
  if (XSEC_FAILPOINT_FIRED("policy.io.write")) {
    std::fclose(f);
    return InternalError(StrFormat("write of '%s' failed mid-stream", tmp.c_str()));
  }
  ok = ok && std::fwrite(body.data() + half, 1, body.size() - half, f) == body.size() - half;
  std::fflush(f);
  // fsync before the rename: the atomic-rename guarantee is only as good as
  // the temp file's bytes being on disk first.
  ok = ok && fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    return InternalError(StrFormat("write of '%s' failed", tmp.c_str()));
  }
  // Keep the previous version as the fallback the loader recovers from if
  // we die between the two renames. Failure is fine on the first save.
  (void)std::rename(path.c_str(), bak.c_str());
  if (XSEC_FAILPOINT_FIRED("policy.io.commit")) {
    return InternalError(
        StrFormat("crashed before committing '%s' (previous policy at '%s')", path.c_str(),
                  bak.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError(StrFormat("cannot rename '%s' into place", tmp.c_str()));
  }
  return OkStatus();
}

Status LoadPolicyFile(const std::string& path, Kernel* kernel, std::string* loaded_from) {
  for (const std::string& candidate : {path, path + ".bak"}) {
    auto text = SlurpFile(candidate);
    if (!text.ok()) {
      continue;  // missing/unreadable: try the fallback
    }
    if (!ChecksumValid(*text)) {
      continue;  // torn or tampered: try the fallback
    }
    // The trailer is a '#' comment, so LoadPolicy parses the file as-is. A
    // checksum-valid file that fails to load is a real error, not a reason
    // to silently fall back to older policy.
    XSEC_RETURN_IF_ERROR(LoadPolicy(*text, kernel));
    if (loaded_from != nullptr) {
      *loaded_from = candidate;
    }
    return OkStatus();
  }
  return NotFoundError(
      StrFormat("no intact policy at '%s' or '%s.bak'", path.c_str(), path.c_str()));
}

}  // namespace xsec
