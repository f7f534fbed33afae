#include "io/program_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <variant>
#include <vector>

#include "fault/failpoint.hpp"
#include "io/line_scan.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::io {

using detail::check_payload_size;
using detail::fail;
using detail::read_rest;

Result<ProgramBundle> parse_program(const std::string& text,
                                    const ProgramParseOptions& options) {
  if (Status st = check_payload_size(text.size(), options.max_bytes); !st.ok()) {
    return st;
  }
  std::istringstream in{text};
  std::string line;
  int line_no = 0;

  int procs = 0;
  core::CostTable costs;
  std::optional<core::StepProgram> program;
  // Open section state.
  std::optional<core::ComputeStep> open_compute;
  std::optional<pattern::CommPattern> open_comm;
  // op id -> line of the first item referencing it, for the end-of-parse
  // calibration check (an uncalibrated op used to surface only as a debug
  // assert -- or empty-vector UB -- inside CostTable::cost()).
  std::map<core::OpId, int> op_first_use;
  std::vector<std::int64_t> rest;  // a line's trailing fields, reused

  auto close_section = [&] {
    if (open_compute.has_value()) {
      program->add_compute(std::move(*open_compute));
      open_compute.reset();
    }
    if (open_comm.has_value()) {
      program->add_comm(std::move(*open_comm));
      open_comm.reset();
    }
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls{line};
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;

    if (keyword == "procs") {
      if (program.has_value()) return fail(line_no, "duplicate 'procs'");
      if (!(ls >> procs) || procs < 1) {
        return fail(line_no, "'procs' needs a positive integer");
      }
      if (procs > options.max_procs) {
        return fail(line_no, "'procs' " + std::to_string(procs) +
                                 " exceeds the limit of " +
                                 std::to_string(options.max_procs));
      }
      program.emplace(procs);
    } else if (keyword == "op") {
      std::string name;
      if (!(ls >> name)) return fail(line_no, "'op' needs a name");
      costs.register_op(name);
    } else if (keyword == "cost") {
      int op = -1, block = 0;
      double us = -1.0;
      if (!(ls >> op >> block >> us) || op < 0 || op >= costs.op_count() ||
          block < 1 || us < 0.0 || !std::isfinite(us)) {
        return fail(line_no, "'cost' needs: valid-op block us");
      }
      costs.set_cost(op, block, Time{us});
    } else if (keyword == "compute") {
      if (!program.has_value()) return fail(line_no, "section before 'procs'");
      close_section();
      open_compute.emplace();
    } else if (keyword == "comm") {
      if (!program.has_value()) return fail(line_no, "section before 'procs'");
      close_section();
      open_comm.emplace(procs);
    } else if (keyword == "item") {
      if (!open_compute.has_value()) {
        return fail(line_no, "'item' outside a compute section");
      }
      long long proc = -1, op = -1, block = 0;
      if (!(ls >> proc >> op >> block) || proc < 0 || proc >= procs ||
          op < 0 || op >= costs.op_count() || block < 1 ||
          block > std::numeric_limits<int>::max()) {
        return fail(line_no, "'item' needs: proc op block [touched...]");
      }
      rest.clear();
      if (!read_rest(ls, line, rest)) {
        return fail(line_no, "'item' needs: proc op block [touched...]");
      }
      op_first_use.emplace(static_cast<core::OpId>(op), line_no);
      open_compute->add({static_cast<ProcId>(proc), static_cast<core::OpId>(op),
                         static_cast<int>(block)},
                        rest);
    } else if (keyword == "msg") {
      if (!open_comm.has_value()) {
        return fail(line_no, "'msg' outside a comm section");
      }
      long long src = -1, dst = -1, bytes = -1, tag = 0;
      if (!(ls >> src >> dst >> bytes) || src < 0 || src >= procs || dst < 0 ||
          dst >= procs || bytes < 0) {
        return fail(line_no, "'msg' needs: src dst bytes [tag]");
      }
      rest.clear();
      if (!read_rest(ls, line, rest) || rest.size() > 1) {
        return fail(line_no, "'msg' needs: src dst bytes [tag]");
      }
      if (!rest.empty()) tag = rest.front();
      open_comm->add(static_cast<ProcId>(src), static_cast<ProcId>(dst),
                     Bytes{static_cast<std::uint64_t>(bytes)}, tag);
    } else {
      return fail(line_no, "unknown keyword '" + keyword + "'");
    }
    rest.clear();
    if (!read_rest(ls, line, rest) || !rest.empty()) {
      return fail(line_no, "unexpected tokens after '" + keyword +
                               "' (only a '#' comment may follow)");
    }
  }
  if (!program.has_value()) return fail(line_no, "missing 'procs'");
  close_section();

  for (const auto& [op, first_line] : op_first_use) {
    if (!costs.has_calibration(op)) {
      return fail(first_line, "op '" + costs.name(op) +
                                  "' is used by an item but has no 'cost' "
                                  "calibration points");
    }
  }

  return ProgramBundle{std::move(*program), std::move(costs)};
}

Result<ProgramBundle> load_program(const std::string& path,
                                   const ProgramParseOptions& options) {
  try {
    if (Status st = fault::failpoint("io.load"); !st.ok()) {
      return st.with_context("while loading '" + path + "'");
    }
    std::ifstream in{path};
    if (!in) return Status::invalid_input("cannot open '" + path + "'");
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
    Result<ProgramBundle> parsed = parse_program(ss.str(), options);
    if (!parsed.ok()) {
      return Status{parsed.status()}.with_context("while loading '" + path +
                                                  "'");
    }
    return parsed;
  } catch (const std::bad_alloc&) {
    return Status::transient("out of memory while loading '" + path + "'");
  }
}

std::string to_text(const core::StepProgram& program,
                    const core::CostTable& costs) {
  std::ostringstream os;
  os << "procs " << program.procs() << '\n';
  for (int op = 0; op < costs.op_count(); ++op) {
    os << "op " << costs.name(op) << '\n';
  }
  for (int op = 0; op < costs.op_count(); ++op) {
    for (int b : costs.block_sizes(op)) {
      os << "cost " << op << ' ' << b << ' ' << costs.cost(op, b).us() << '\n';
    }
  }
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* cs = std::get_if<core::ComputeStep>(&program.step(s))) {
      os << "compute\n";
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        const core::WorkItem& item = cs->items[i];
        os << "item " << item.proc << ' ' << item.op << ' '
           << item.block_size;
        for (auto uid : cs->touched(i)) os << ' ' << uid;
        os << '\n';
      }
    } else {
      os << "comm\n";
      for (const auto& m :
           std::get<core::CommStep>(program.step(s)).pattern.messages()) {
        os << "msg " << m.src << ' ' << m.dst << ' ' << m.bytes.count();
        if (m.tag != 0) os << ' ' << m.tag;
        os << '\n';
      }
    }
  }
  return os.str();
}

}  // namespace logsim::io
