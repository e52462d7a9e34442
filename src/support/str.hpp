// Small string helpers shared by printers and report writers.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace pp {

/// Join the elements of `items` with `sep`, converting each with `fn`.
template <typename Range, typename Fn>
std::string join(const Range& items, const std::string& sep, Fn fn) {
  std::ostringstream os;
  bool first = true;
  for (const auto& it : items) {
    if (!first) os << sep;
    first = false;
    os << fn(it);
  }
  return os.str();
}

/// Join a range of strings/streamables with `sep`.
template <typename Range>
std::string join(const Range& items, const std::string& sep) {
  return join(items, sep, [](const auto& x) {
    std::ostringstream os;
    os << x;
    return os.str();
  });
}

/// Render a fraction as a percentage string like "85%".
std::string percent(double num, double den);

}  // namespace pp
