// Error type shared across the GRAFICS library.
//
// The library reports unrecoverable misuse (bad dimensions, malformed input
// files, violated preconditions) by throwing `grafics::Error`, which carries a
// human-readable message. Recoverable conditions are expressed in return
// types (e.g. std::optional) instead.
#pragma once

#include <stdexcept>
#include <string>

namespace grafics {

/// Exception thrown on precondition violations and malformed input.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// The throw behind the literal-message Require, kept out of line and cold:
/// an inline throw is a large body, and compilers decline to inline a
/// Require that carries one — and with it the hot function that calls it.
[[noreturn, gnu::noinline, gnu::cold]] inline void ThrowError(
    const char* message) {
  throw Error(message);
}

/// Throws grafics::Error with `message` when `condition` is false.
inline void Require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

/// Literal-message overload: defers std::string construction to the throw
/// path, keeping Require free of heap allocations on hot paths.
inline void Require(bool condition, const char* message) {
  if (!condition) [[unlikely]] ThrowError(message);
}

}  // namespace grafics
