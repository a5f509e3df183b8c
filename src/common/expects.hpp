// Contract-checking macros in the spirit of the C++ Core Guidelines
// (I.6 Expects / I.8 Ensures). Violations throw so tests can assert on
// them; they are never compiled out because the library is used in a
// simulation harness where silent corruption would invalidate results.
#pragma once

#include <stdexcept>
#include <string>

namespace ekm {

/// Thrown when a precondition (EKM_EXPECTS) is violated.
class precondition_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a postcondition or internal invariant (EKM_ENSURES) fails.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Last path component of __FILE__, so messages do not carry build paths.
[[nodiscard]] inline const char* file_basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

/// "<msg> (<kind> failed: <cond> at <file>:<line>)", or the parenthesized
/// part alone when msg is empty: the caller's message leads, and the
/// "<kind> failed: <cond>" fragment stays contiguous for log matchers.
[[nodiscard]] inline std::string contract_message(const char* kind,
                                                  const char* cond,
                                                  const char* file, int line,
                                                  const std::string& msg) {
  std::string where = std::string(kind) + " failed: " + cond + " at " +
                      file_basename(file) + ":" + std::to_string(line);
  return msg.empty() ? where : msg + " (" + where + ")";
}

[[noreturn]] inline void fail_expects(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  throw precondition_error(
      contract_message("precondition", cond, file, line, msg));
}

[[noreturn]] inline void fail_ensures(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  throw invariant_error(contract_message("invariant", cond, file, line, msg));
}

}  // namespace detail
}  // namespace ekm

#define EKM_EXPECTS(cond)                                              \
  do {                                                                 \
    if (!(cond)) ::ekm::detail::fail_expects(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define EKM_EXPECTS_MSG(cond, msg)                                       \
  do {                                                                   \
    if (!(cond)) ::ekm::detail::fail_expects(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define EKM_ENSURES(cond)                                              \
  do {                                                                 \
    if (!(cond)) ::ekm::detail::fail_ensures(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define EKM_ENSURES_MSG(cond, msg)                                       \
  do {                                                                   \
    if (!(cond)) ::ekm::detail::fail_ensures(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)
