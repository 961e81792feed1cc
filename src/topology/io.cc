#include "topology/io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lg::topo {

void write_caida(const AsGraph& graph, std::ostream& out) {
  out << "# AS relationships (CAIDA serial-1 format)\n";
  out << "# <provider>|<customer>|-1  or  <peer>|<peer>|0\n";
  for (const auto& link : graph.links()) {
    const auto rel = graph.relationship(link.a, link.b);
    if (!rel) continue;  // unreachable: links() only returns real links
    switch (*rel) {
      case Rel::kCustomer:  // b is a's customer: a provides
        out << link.a << "|" << link.b << "|-1\n";
        break;
      case Rel::kProvider:  // b provides to a
        out << link.b << "|" << link.a << "|-1\n";
        break;
      case Rel::kPeer:
        out << link.a << "|" << link.b << "|0\n";
        break;
    }
  }
}

std::string to_caida(const AsGraph& graph) {
  std::ostringstream os;
  write_caida(graph, os);
  return os.str();
}

namespace {

// '|'-separated fields with empty tokens preserved (so `1||-1` reports an
// empty field instead of a misleading count) and per-field whitespace —
// including the '\r' left by CRLF dumps — trimmed.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '|') {
      std::size_t lo = start;
      std::size_t hi = i;
      while (lo < hi && std::isspace(static_cast<unsigned char>(line[lo]))) {
        ++lo;
      }
      while (hi > lo &&
             std::isspace(static_cast<unsigned char>(line[hi - 1]))) {
        --hi;
      }
      out.push_back(line.substr(lo, hi - lo));
      start = i + 1;
    }
  }
  return out;
}

AsId parse_as(const std::string& field, std::size_t line_no,
              std::size_t field_no) {
  if (field.empty()) {
    throw std::invalid_argument("line " + std::to_string(line_no) +
                                ": empty AS field " +
                                std::to_string(field_no + 1));
  }
  std::uint64_t value = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": non-numeric AS '" + field + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xFFFFFFFFULL) {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": AS number out of range");
    }
  }
  if (value == 0) {
    throw std::invalid_argument("line " + std::to_string(line_no) +
                                ": AS 0 is reserved");
  }
  return static_cast<AsId>(value);
}

}  // namespace

AsGraph read_caida(std::istream& in) {
  struct Link {
    AsId a, b;
    Rel rel_of_b_to_a;
    std::size_t line_no;
  };
  std::vector<Link> links;
  std::vector<AsId> ids;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Skip blank lines (including CRLF-only) and comments, tolerating
    // leading whitespace before the '#'.
    std::size_t first = 0;
    while (first < line.size() &&
           std::isspace(static_cast<unsigned char>(line[first]))) {
      ++first;
    }
    if (first == line.size() || line[first] == '#') continue;
    const auto fields = split_fields(line);
    // serial-2 dumps carry a fourth "source" field; accept and ignore it.
    if (fields.size() != 3 && fields.size() != 4) {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": expected a|b|rel, got '" + line + "'");
    }
    const AsId a = parse_as(fields[0], line_no, 0);
    const AsId b = parse_as(fields[1], line_no, 1);
    if (a == b) {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": self link on AS " + std::to_string(a));
    }
    Rel rel_of_b_to_a;  // what b is from a's perspective
    if (fields[2] == "-1") {
      rel_of_b_to_a = Rel::kCustomer;  // a provides to b => b is a's customer
    } else if (fields[2] == "0") {
      rel_of_b_to_a = Rel::kPeer;
    } else if (fields[2].empty()) {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": empty relationship field");
    } else {
      throw std::invalid_argument("line " + std::to_string(line_no) +
                                  ": unknown relationship '" + fields[2] +
                                  "'");
    }
    links.push_back({a, b, rel_of_b_to_a, line_no});
    ids.push_back(a);
    ids.push_back(b);
  }
  // ASes first, in ascending order, so every add_as appends; then the links
  // in file order, which fixes each AS's neighbor order.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  AsGraph graph;
  for (const AsId id : ids) graph.add_as(id);
  for (const Link& l : links) {
    if (graph.has_link(l.a, l.b)) {
      throw std::invalid_argument("line " + std::to_string(l.line_no) +
                                  ": duplicate link " + std::to_string(l.a) +
                                  "-" + std::to_string(l.b));
    }
    graph.add_link(l.a, l.b, l.rel_of_b_to_a);
  }
  graph.reclassify_tiers();
  return graph;
}

AsGraph from_caida(const std::string& text) {
  std::istringstream is(text);
  return read_caida(is);
}

void save_caida_file(const AsGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_caida(graph, out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

AsGraph load_caida_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open: " + path);
  return read_caida(in);
}

}  // namespace lg::topo
