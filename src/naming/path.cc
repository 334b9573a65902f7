#include "src/naming/path.h"

#include "src/base/strings.h"

namespace xsec {

bool IsValidComponent(std::string_view name) {
  if (name.empty() || name == "." || name == "..") {
    return false;
  }
  for (unsigned char c : name) {
    // No separators, whitespace, control characters, or '#': names must
    // survive the whitespace-delimited, '#'-commented policy format and
    // audit lines unambiguously.
    if (c == '/' || c <= ' ' || c == 0x7f || c == '#') {
      return false;
    }
  }
  return true;
}

Status ValidatePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError(
        StrFormat("path must be absolute: '%s'", std::string(path).c_str()));
  }
  if (path == "/") {
    return OkStatus();
  }
  size_t start = 1;
  while (start <= path.size()) {
    size_t pos = path.find('/', start);
    std::string_view piece = pos == std::string_view::npos ? path.substr(start)
                                                           : path.substr(start, pos - start);
    if (!IsValidComponent(piece)) {
      return InvalidArgumentError(
          StrFormat("path '%s' has an invalid component", std::string(path).c_str()));
    }
    if (pos == std::string_view::npos) {
      break;
    }
    start = pos + 1;
    if (start == path.size()) {
      return InvalidArgumentError(
          StrFormat("path '%s' has a trailing slash", std::string(path).c_str()));
    }
  }
  return OkStatus();
}

bool NextComponent(std::string_view* rest, std::string_view* component) {
  if (rest->size() <= 1) {
    return false;
  }
  rest->remove_prefix(1);
  size_t pos = rest->find('/');
  *component = rest->substr(0, pos);
  rest->remove_prefix(pos == std::string_view::npos ? rest->size() : pos);
  return true;
}

StatusOr<std::vector<std::string>> ParsePath(std::string_view path) {
  Status valid = ValidatePath(path);
  if (!valid.ok()) {
    return valid;
  }
  std::vector<std::string> components;
  std::string_view component;
  while (NextComponent(&path, &component)) {
    components.emplace_back(component);
  }
  return components;
}

std::string JoinPath(std::string_view parent, std::string_view child) {
  std::string out(parent);
  if (out.empty() || out.back() != '/') {
    out += '/';
  }
  out += child;
  return out;
}

std::string ParentPath(std::string_view path) {
  if (path == "/" || path.empty()) {
    return "/";
  }
  size_t pos = path.rfind('/');
  if (pos == 0) {
    return "/";
  }
  return std::string(path.substr(0, pos));
}

std::string_view Basename(std::string_view path) {
  if (path == "/" || path.empty()) {
    return {};
  }
  size_t pos = path.rfind('/');
  return path.substr(pos + 1);
}

}  // namespace xsec
