#include "io/pattern_io.hpp"

#include <cstdint>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <vector>

#include "fault/failpoint.hpp"
#include "io/line_scan.hpp"

namespace logsim::io {

using detail::check_payload_size;
using detail::fail;
using detail::read_rest;

Result<pattern::CommPattern> parse_pattern(const std::string& text,
                                           const PatternParseOptions& options) {
  if (Status st = check_payload_size(text.size(), options.max_bytes); !st.ok()) {
    return st;
  }
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  std::optional<pattern::CommPattern> pat;
  std::vector<std::int64_t> rest;  // a line's trailing fields, reused

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls{line};
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;

    if (keyword == "procs") {
      if (pat.has_value()) {
        return fail(line_no, "duplicate 'procs' declaration");
      }
      int procs = 0;
      if (!(ls >> procs) || procs < 1) {
        return fail(line_no, "'procs' needs a positive integer");
      }
      if (procs > options.max_procs) {
        return fail(line_no, "'procs' " + std::to_string(procs) +
                                 " exceeds the limit of " +
                                 std::to_string(options.max_procs));
      }
      rest.clear();
      if (!read_rest(ls, line, rest) || !rest.empty()) {
        return fail(line_no, "trailing junk after 'procs' declaration");
      }
      pat.emplace(procs);
    } else if (keyword == "msg") {
      if (!pat.has_value()) {
        return fail(line_no, "'msg' before 'procs' declaration");
      }
      long long src = -1, dst = -1, bytes = -1;
      rest.clear();
      // The optional tag must fit an int64; anything else after it is junk.
      if (!(ls >> src >> dst >> bytes) || !read_rest(ls, line, rest) ||
          rest.size() > 1) {
        return fail(line_no, "'msg' needs: src dst bytes [tag]");
      }
      const std::int64_t tag = rest.empty() ? 0 : rest.front();
      if (src < 0 || src >= pat->procs() || dst < 0 || dst >= pat->procs()) {
        return fail(line_no,
                    "message endpoint out of range: " + std::to_string(src) +
                        " -> " + std::to_string(dst) + " with procs " +
                        std::to_string(pat->procs()));
      }
      if (!options.allow_self_messages && src == dst) {
        return fail(line_no,
                    "self-message " + std::to_string(src) + " -> " +
                        std::to_string(dst) + " rejected by strict mode");
      }
      if (bytes < 0) {
        return fail(line_no, "negative message size");
      }
      pat->add(static_cast<ProcId>(src), static_cast<ProcId>(dst),
               Bytes{static_cast<std::uint64_t>(bytes)}, tag);
    } else {
      return fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!pat.has_value()) {
    return fail(line_no, "missing 'procs' declaration");
  }
  return std::move(*pat);
}

Result<pattern::CommPattern> load_pattern(const std::string& path,
                                          const PatternParseOptions& options) {
  try {
    if (Status st = fault::failpoint("io.load"); !st.ok()) {
      return st.with_context("while loading '" + path + "'");
    }
    std::ifstream in{path};
    if (!in) {
      return Status::invalid_input("cannot open '" + path + "'");
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size >= 0) {
      if (Status st = check_payload_size(static_cast<std::size_t>(size),
                                         options.max_bytes);
          !st.ok()) {
        return st.with_context("while loading '" + path + "'");
      }
    }
    in.seekg(0, std::ios::beg);
    std::stringstream ss;
    ss << in.rdbuf();
    Result<pattern::CommPattern> parsed = parse_pattern(ss.str(), options);
    if (!parsed.ok()) {
      return Status{parsed.status()}.with_context("while loading '" + path +
                                                  "'");
    }
    return parsed;
  } catch (const std::bad_alloc&) {
    return Status::transient("out of memory while loading '" + path + "'");
  }
}

std::string to_text(const pattern::CommPattern& pattern) {
  std::ostringstream os;
  os << "procs " << pattern.procs() << '\n';
  for (const auto& m : pattern.messages()) {
    os << "msg " << m.src << ' ' << m.dst << ' ' << m.bytes.count();
    if (m.tag != 0) os << ' ' << m.tag;
    os << '\n';
  }
  return os.str();
}

}  // namespace logsim::io
