// Path handling for the universal name space.
//
// Paths are absolute, '/'-separated, and canonical: no empty components, no
// "." / "..", no trailing slash (except the root itself). Keeping paths
// canonical at the boundary means the name server never has to re-normalize
// on the hot lookup path (experiment F4).

#ifndef XSEC_SRC_NAMING_PATH_H_
#define XSEC_SRC_NAMING_PATH_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace xsec {

// Splits an absolute path into components; validates canonicality.
// "/" yields an empty vector. "/svc/fs/read" yields {"svc","fs","read"}.
StatusOr<std::vector<std::string>> ParsePath(std::string_view path);

// ParsePath's validation alone, with its error messages; allocates only to
// build an error.
Status ValidatePath(std::string_view path);

// Splits the first component off a path ValidatePath accepted, or off what
// an earlier call left of one: "/svc/fs" yields "svc" and leaves "/fs".
// False once nothing is left ("/" or ""). Never allocates, so resolution
// can walk a path as views into the caller's string.
bool NextComponent(std::string_view* rest, std::string_view* component);

// True iff `name` is a legal single component: nonempty, no '/', not "." or "..".
bool IsValidComponent(std::string_view name);

// Joins a parent path and a child component ("/svc" + "fs" -> "/svc/fs").
std::string JoinPath(std::string_view parent, std::string_view child);

// The parent of a canonical absolute path ("/svc/fs" -> "/svc"; "/a" -> "/").
// The root's parent is the root.
std::string ParentPath(std::string_view path);

// The last component ("/svc/fs" -> "fs"); empty for the root.
std::string_view Basename(std::string_view path);

}  // namespace xsec

#endif  // XSEC_SRC_NAMING_PATH_H_
