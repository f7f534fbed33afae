#pragma once
// Line-scanning helpers shared by the program and pattern text parsers,
// so both refuse a malformed line the same way.

#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/status.hpp"

namespace logsim::io::detail {

inline Status fail(int line, std::string message) {
  return Status::invalid_input(std::move(message)).at_line(line);
}

/// Appends the integers left on `line` past the stream's position to
/// `out`, up to an optional '#' comment, and consumes the line.  False on
/// any other token or a value that does not fit: nothing is narrowed or
/// dropped.
inline bool read_rest(std::istringstream& ls, const std::string& line,
                      std::vector<std::int64_t>& out) {
  const std::streamoff at = ls.tellg();  // -1 once the line is used up
  ls.setstate(std::ios::eofbit);
  const char* p =
      line.data() + (at < 0 ? line.size() : static_cast<std::size_t>(at));
  const char* const end = line.data() + line.size();
  const auto space = [&](const char* c) {
    return c == end || std::isspace(static_cast<unsigned char>(*c)) != 0;
  };
  for (;;) {
    while (p != end && space(p)) ++p;
    if (p == end || *p == '#') return true;
    std::int64_t value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{} || !space(next)) return false;
    out.push_back(value);
    p = next;
  }
}

/// Oversize guard: parsers reject the whole payload before touching it,
/// loaders reject the file before reading it into memory.
inline Status check_payload_size(std::size_t size, std::size_t max_bytes) {
  if (size <= max_bytes) return Status{};
  return Status::invalid_input("payload of " + std::to_string(size) +
                               " bytes exceeds the max-message size of " +
                               std::to_string(max_bytes) + " bytes");
}

}  // namespace logsim::io::detail
