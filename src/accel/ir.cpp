#include "accel/ir.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

namespace gnna::accel::ir {
namespace {

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

/// Quote a name for the IR: wrap in double quotes, escape `"` and `\`.
std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Render a double so strtod reads back the identical bit pattern
/// (%.17g is exact for IEEE-754 binary64).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* kind_name(PhaseKind k) {
  switch (k) {
    case PhaseKind::kGatherAggregate:
      return "gather_aggregate";
    case PhaseKind::kProject:
      return "project";
    case PhaseKind::kEdgeDnaAggregate:
      return "edge_dna_aggregate";
  }
  return "?";
}

// How many expected_contribs values go on one line. Purely cosmetic (keeps
// .gnna files diffable), but part of the canonical form.
constexpr std::size_t kContribsPerLine = 16;

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

/// One whitespace-separated token of an IR line; quoted strings are a
/// single token with quotes stripped and escapes resolved.
struct Token {
  std::string text;
  bool quoted = false;
};

class LineLexer {
 public:
  LineLexer(const std::string& source, std::size_t line_no)
      : source_(source), line_(line_no) {}

  [[noreturn]] void fail(const std::string& reason) const {
    throw IrParseError(source_, line_, reason);
  }

  std::vector<Token> tokens(std::string_view line) const {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < line.size()) {
      if (std::isspace(static_cast<unsigned char>(line[i])) != 0) {
        ++i;
        continue;
      }
      if (line[i] == '#') break;  // comment to end of line
      Token t;
      if (line[i] == '"') {
        t.quoted = true;
        ++i;
        bool closed = false;
        while (i < line.size()) {
          char c = line[i++];
          if (c == '\\') {
            if (i >= line.size()) fail("dangling escape in quoted string");
            char e = line[i++];
            if (e != '"' && e != '\\') {
              fail(std::string("unknown escape '\\") + e +
                   "' in quoted string");
            }
            t.text.push_back(e);
          } else if (c == '"') {
            closed = true;
            break;
          } else {
            t.text.push_back(c);
          }
        }
        if (!closed) fail("unterminated quoted string");
      } else {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])) == 0 &&
               line[i] != '#') {
          t.text.push_back(line[i++]);
        }
      }
      out.push_back(std::move(t));
    }
    return out;
  }

  std::uint64_t parse_u64(const Token& t, const char* what) const {
    if (t.quoted || t.text.empty()) {
      fail(std::string("expected unsigned integer for ") + what);
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(t.text.c_str(), &end, 10);
    if (errno != 0 || end == t.text.c_str() || *end != '\0' ||
        t.text[0] == '-') {
      fail("bad unsigned integer '" + t.text + "' for " + what);
    }
    return v;
  }

  double parse_f64(const Token& t, const char* what) const {
    if (t.quoted || t.text.empty()) {
      fail(std::string("expected number for ") + what);
    }
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(t.text.c_str(), &end);
    if (errno != 0 || end == t.text.c_str() || *end != '\0') {
      fail("bad number '" + t.text + "' for " + what);
    }
    return v;
  }

  bool parse_bool(const Token& t, const char* what) const {
    if (!t.quoted && (t.text == "0" || t.text == "1")) return t.text == "1";
    fail(std::string("expected 0 or 1 for ") + what);
  }

  /// Split "key=value" and check the key; returns the value as a Token.
  Token kv(const Token& t, const char* key) const {
    auto eq = t.text.find('=');
    if (t.quoted || eq == std::string::npos) {
      fail(std::string("expected ") + key + "=<value>, got '" + t.text + "'");
    }
    if (t.text.compare(0, eq, key) != 0) {
      fail(std::string("expected key '") + key + "', got '" +
           t.text.substr(0, eq) + "'");
    }
    Token v;
    v.text = t.text.substr(eq + 1);
    return v;
  }

 private:
  const std::string& source_;
  std::size_t line_;
};

/// Cursor over the lines of an IR document, skipping blanks and comments.
class LineCursor {
 public:
  LineCursor(std::string_view text, std::string source)
      : text_(text), source_(std::move(source)) {}

  /// Advance to the next non-blank, non-comment line. Returns false at EOF.
  bool next() {
    while (pos_ < text_.size()) {
      auto nl = text_.find('\n', pos_);
      std::size_t end = (nl == std::string_view::npos) ? text_.size() : nl;
      line_ = text_.substr(pos_, end - pos_);
      line_no_ = ++lines_read_;
      pos_ = (nl == std::string_view::npos) ? text_.size() : nl + 1;
      bool blank = true;
      for (char c : line_) {
        if (c == '#') break;
        if (std::isspace(static_cast<unsigned char>(c)) == 0) {
          blank = false;
          break;
        }
      }
      if (!blank) return true;
    }
    return false;
  }

  [[nodiscard]] std::string_view line() const { return line_; }
  [[nodiscard]] std::size_t line_no() const { return line_no_; }
  [[nodiscard]] LineLexer lexer() const { return {source_, line_no_}; }
  [[nodiscard]] const std::string& source() const { return source_; }

 private:
  std::string_view text_;
  std::string source_;
  std::size_t pos_ = 0;
  std::size_t lines_read_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
};

std::uint32_t narrow_u32(const LineLexer& lex, std::uint64_t v,
                         const char* what) {
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    lex.fail(std::string(what) + " value " + std::to_string(v) +
             " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

/// Parse "region=R width=W" into a BufferRef.
BufferRef parse_bufref(const LineLexer& lex, const std::vector<Token>& toks,
                       std::size_t first) {
  if (toks.size() != first + 2) {
    lex.fail("expected region=<id> width=<words>");
  }
  BufferRef b;
  b.region = narrow_u32(lex, lex.parse_u64(lex.kv(toks[first], "region"),
                                           "region"),
                        "region");
  b.width_words = narrow_u32(
      lex, lex.parse_u64(lex.kv(toks[first + 1], "width"), "width"), "width");
  return b;
}

dataflow::MatmulShape parse_shape(const LineLexer& lex,
                                  const std::vector<Token>& toks) {
  if (toks.size() != 5) {
    lex.fail("expected m=<u64> k=<u64> n=<u64> density=<f64>");
  }
  dataflow::MatmulShape s;
  s.m = lex.parse_u64(lex.kv(toks[1], "m"), "m");
  s.k = lex.parse_u64(lex.kv(toks[2], "k"), "k");
  s.n = lex.parse_u64(lex.kv(toks[3], "n"), "n");
  s.weight_density = lex.parse_f64(lex.kv(toks[4], "density"), "density");
  if (!dataflow::within_mac_cap(s)) {
    lex.fail("shape m*k*n exceeds " +
             std::to_string(dataflow::kMaxShapeMacs) + " (2^48)");
  }
  if (!(s.weight_density >= 0.0 && s.weight_density <= 1.0)) {
    lex.fail("density must be a number in [0, 1], got '" +
             lex.kv(toks[4], "density").text + "'");
  }
  return s;
}

PhaseKind parse_kind(const LineLexer& lex, const Token& t) {
  if (!t.quoted) {
    if (t.text == "gather_aggregate") return PhaseKind::kGatherAggregate;
    if (t.text == "project") return PhaseKind::kProject;
    if (t.text == "edge_dna_aggregate") return PhaseKind::kEdgeDnaAggregate;
  }
  lex.fail("unknown phase kind '" + t.text +
           "' (want gather_aggregate|project|edge_dna_aggregate)");
}

ReduceOp parse_reduce(const LineLexer& lex, const Token& t) {
  if (!t.quoted) {
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin,
                              ReduceOp::kMean}) {
      if (t.text == reduce_op_name(op)) return op;
    }
  }
  lex.fail("unknown reduce op '" + t.text + "' (want sum|max|min|mean)");
}

/// Parse the body of one `phase N "name" {` block up to its closing `}`.
PhaseSpec parse_phase_body(LineCursor& cur, std::string name) {
  PhaseSpec ph;
  ph.name = std::move(name);
  // Single-line fields may appear once each; fields the file omits keep
  // PhaseSpec's defaults (hand-written programs stay terse; compiler
  // output always emits every one).
  const std::span<const PhaseField> fields = phase_fields();
  std::vector<bool> seen(fields.size(), false);

  while (true) {
    if (!cur.next()) {
      throw IrParseError(cur.source(), cur.line_no(),
                         "unexpected end of file inside phase block");
    }
    LineLexer lex = cur.lexer();
    auto toks = lex.tokens(cur.line());
    const std::string& key = toks[0].text;
    if (!toks[0].quoted && key == "}") {
      if (toks.size() != 1) lex.fail("trailing tokens after '}'");
      return ph;
    }
    if (toks[0].quoted) {
      lex.fail("expected a phase field name, got quoted string");
    }
    std::size_t f = 0;
    while (f < fields.size() && key != fields[f].name) ++f;
    if (f < fields.size()) {
      if (seen[f]) lex.fail("duplicate phase field '" + key + "'");
      seen[f] = true;
      std::visit(
          [&](auto member) {
            auto& value = ph.*member;
            using T = std::remove_reference_t<decltype(value)>;
            if constexpr (std::is_same_v<T, BufferRef>) {
              value = parse_bufref(lex, toks, 1);
            } else {
              if (toks.size() != 2) {
                lex.fail("field '" + key + "' expects 1 value(s)");
              }
              if constexpr (std::is_same_v<T, PhaseKind>) {
                value = parse_kind(lex, toks[1]);
              } else if constexpr (std::is_same_v<T, ReduceOp>) {
                value = parse_reduce(lex, toks[1]);
              } else if constexpr (std::is_same_v<T, bool>) {
                value = lex.parse_bool(toks[1], key.c_str());
              } else if constexpr (std::is_same_v<T, std::uint32_t>) {
                value = narrow_u32(lex, lex.parse_u64(toks[1], key.c_str()),
                                   key.c_str());
              } else {
                value = lex.parse_u64(toks[1], key.c_str());
              }
            }
          },
          fields[f].member);
    } else if (key == "dna_shape") {
      ph.dna_shapes.push_back(parse_shape(lex, toks));
    } else if (key == "dna2_shape") {
      ph.dna2_shapes.push_back(parse_shape(lex, toks));
    } else if (key == "extra_input") {
      ph.extra_inputs.push_back(parse_bufref(lex, toks, 1));
    } else if (key == "expected_contribs") {
      if (toks.size() < 2) lex.fail("expected_contribs needs values");
      for (std::size_t i = 1; i < toks.size(); ++i) {
        ph.expected_contribs.push_back(
            lex.parse_u64(toks[i], "expected_contribs"));
      }
    } else {
      lex.fail("unknown phase field '" + key + "'");
    }
  }
}

}  // namespace

std::span<const PhaseField> phase_fields() {
  static constexpr PhaseField kFields[] = {
      {"kind", &PhaseSpec::kind},
      {"gather", &PhaseSpec::gather, true},
      {"include_self", &PhaseSpec::include_self},
      {"weighted_edges", &PhaseSpec::weighted_edges},
      {"walk_len", &PhaseSpec::walk_len},
      {"extra_inputs_per_edge", &PhaseSpec::extra_inputs_per_edge},
      {"gpe_words_per_entry", &PhaseSpec::gpe_words_per_entry},
      {"dna_out_words", &PhaseSpec::dna_out_words},
      {"agg_width_words", &PhaseSpec::agg_width_words},
      {"agg_op", &PhaseSpec::agg_op},
      {"dna2_out_words", &PhaseSpec::dna2_out_words},
      {"dna2_gpe_words", &PhaseSpec::dna2_gpe_words},
      {"per_graph", &PhaseSpec::per_graph},
      {"output", &PhaseSpec::output, true},
      {"weight_bytes", &PhaseSpec::weight_bytes},
      {"weight_region", &PhaseSpec::weight_region, true},
  };
  return kFields;
}

std::string serialize(const CompiledProgram& prog) {
  std::ostringstream os;
  os << "gnna-ir " << kIrVersion << "\n";
  os << "program " << quote(prog.name) << "\n";
  for (std::size_t i = 0; i < prog.memmap.num_regions(); ++i) {
    const Region& r = prog.memmap.region(static_cast<RegionId>(i));
    os << "region " << i << " " << quote(r.name) << " base=" << r.base
       << " bytes=" << r.bytes << " preloaded=" << (r.preloaded ? 1 : 0)
       << "\n";
  }
  for (std::size_t i = 0; i < prog.graphs.size(); ++i) {
    const GraphLayout& g = prog.graphs[i];
    os << "graph " << i << " rowptr=" << g.row_ptr << " colidx=" << g.col_idx
       << " nodes=" << g.num_nodes << " edges=" << g.num_edges
       << " node_offset=" << g.node_offset << " edge_offset=" << g.edge_offset
       << "\n";
  }
  for (std::size_t i = 0; i < prog.phases.size(); ++i) {
    const PhaseSpec& ph = prog.phases[i];
    os << "phase " << i << " " << quote(ph.name) << " {\n";
    for (const PhaseField& f : phase_fields()) {
      os << "  " << f.name << " ";
      std::visit(
          [&](auto member) {
            const auto& value = ph.*member;
            using T = std::remove_cvref_t<decltype(value)>;
            if constexpr (std::is_same_v<T, BufferRef>) {
              os << "region=" << value.region << " width=" << value.width_words;
            } else if constexpr (std::is_same_v<T, PhaseKind>) {
              os << kind_name(value);
            } else if constexpr (std::is_same_v<T, ReduceOp>) {
              os << reduce_op_name(value);
            } else if constexpr (std::is_same_v<T, bool>) {
              os << (value ? 1 : 0);
            } else {
              os << value;
            }
          },
          f.member);
      os << "\n";
    }
    for (const auto& s : ph.dna_shapes) {
      os << "  dna_shape m=" << s.m << " k=" << s.k << " n=" << s.n
         << " density=" << fmt_double(s.weight_density) << "\n";
    }
    for (const auto& s : ph.dna2_shapes) {
      os << "  dna2_shape m=" << s.m << " k=" << s.k << " n=" << s.n
         << " density=" << fmt_double(s.weight_density) << "\n";
    }
    for (const auto& b : ph.extra_inputs) {
      os << "  extra_input region=" << b.region << " width=" << b.width_words
         << "\n";
    }
    for (std::size_t j = 0; j < ph.expected_contribs.size();
         j += kContribsPerLine) {
      os << "  expected_contribs";
      std::size_t stop =
          std::min(j + kContribsPerLine, ph.expected_contribs.size());
      for (std::size_t k = j; k < stop; ++k) {
        os << " " << ph.expected_contribs[k];
      }
      os << "\n";
    }
    os << "}\n";
  }
  os << "end\n";
  return os.str();
}

CompiledProgram parse(std::string_view text, const std::string& source) {
  LineCursor cur(text, source);

  // Header line.
  if (!cur.next()) {
    throw IrParseError(source, 1, "empty input (want 'gnna-ir 1' header)");
  }
  {
    LineLexer lex = cur.lexer();
    auto toks = lex.tokens(cur.line());
    if (toks.size() != 2 || toks[0].quoted || toks[0].text != "gnna-ir") {
      lex.fail("expected header 'gnna-ir <version>'");
    }
    std::uint64_t ver = lex.parse_u64(toks[1], "version");
    if (ver != static_cast<std::uint64_t>(kIrVersion)) {
      lex.fail("unsupported gnna-ir version " + std::to_string(ver) +
               " (this build reads version " + std::to_string(kIrVersion) +
               ")");
    }
  }

  CompiledProgram prog;
  bool saw_program = false;
  bool saw_end = false;
  while (cur.next()) {
    LineLexer lex = cur.lexer();
    auto toks = lex.tokens(cur.line());
    const std::string& key = toks[0].text;
    if (toks[0].quoted) {
      lex.fail("expected a directive, got quoted string");
    }
    if (saw_end) {
      lex.fail("content after 'end'");
    }
    if (key == "program") {
      if (saw_program) lex.fail("duplicate 'program' line");
      if (toks.size() != 2 || !toks[1].quoted) {
        lex.fail("expected program \"<name>\"");
      }
      saw_program = true;
      prog.name = toks[1].text;
    } else if (key == "region") {
      if (toks.size() != 6 || !toks[2].quoted) {
        lex.fail(
            "expected region <id> \"<name>\" base=<u64> bytes=<u64> "
            "preloaded=<0|1>");
      }
      std::uint64_t id = lex.parse_u64(toks[1], "region id");
      if (id != prog.memmap.num_regions()) {
        lex.fail("region ids must be sequential: expected " +
                 std::to_string(prog.memmap.num_regions()) + ", got " +
                 std::to_string(id));
      }
      Addr base = lex.parse_u64(lex.kv(toks[3], "base"), "base");
      std::uint64_t bytes = lex.parse_u64(lex.kv(toks[4], "bytes"), "bytes");
      bool preloaded = lex.parse_bool(lex.kv(toks[5], "preloaded"),
                                      "preloaded");
      try {
        // add_region_at replays the region exactly (base untouched) and
        // advances the allocation cursor to max over aligned ends, which
        // reproduces the original MemoryMap::total_bytes().
        prog.memmap.add_region_at(toks[2].text, base, bytes, preloaded);
      } catch (const std::overflow_error& e) {
        lex.fail(e.what());
      }
    } else if (key == "graph") {
      if (toks.size() != 8) {
        lex.fail(
            "expected graph <id> rowptr=<region> colidx=<region> "
            "nodes=<u32> edges=<u32> node_offset=<u32> edge_offset=<u32>");
      }
      std::uint64_t id = lex.parse_u64(toks[1], "graph id");
      if (id != prog.graphs.size()) {
        lex.fail("graph ids must be sequential: expected " +
                 std::to_string(prog.graphs.size()) + ", got " +
                 std::to_string(id));
      }
      GraphLayout g;
      g.row_ptr = narrow_u32(
          lex, lex.parse_u64(lex.kv(toks[2], "rowptr"), "rowptr"), "rowptr");
      g.col_idx = narrow_u32(
          lex, lex.parse_u64(lex.kv(toks[3], "colidx"), "colidx"), "colidx");
      g.num_nodes = narrow_u32(
          lex, lex.parse_u64(lex.kv(toks[4], "nodes"), "nodes"), "nodes");
      g.num_edges = narrow_u32(
          lex, lex.parse_u64(lex.kv(toks[5], "edges"), "edges"), "edges");
      g.node_offset =
          narrow_u32(lex,
                     lex.parse_u64(lex.kv(toks[6], "node_offset"),
                                   "node_offset"),
                     "node_offset");
      g.edge_offset = narrow_u32(
          lex,
          lex.parse_u64(lex.kv(toks[7], "edge_offset"), "edge_offset"),
          "edge_offset");
      prog.graphs.push_back(g);
    } else if (key == "phase") {
      if (toks.size() != 4 || !toks[2].quoted || toks[3].quoted ||
          toks[3].text != "{") {
        lex.fail("expected phase <id> \"<name>\" {");
      }
      std::uint64_t id = lex.parse_u64(toks[1], "phase id");
      if (id != prog.phases.size()) {
        lex.fail("phase ids must be sequential: expected " +
                 std::to_string(prog.phases.size()) + ", got " +
                 std::to_string(id));
      }
      prog.phases.push_back(parse_phase_body(cur, toks[2].text));
    } else if (key == "end") {
      if (toks.size() != 1) lex.fail("trailing tokens after 'end'");
      saw_end = true;
    } else {
      lex.fail("unknown directive '" + key + "'");
    }
  }
  if (!saw_end) {
    throw IrParseError(source, cur.line_no(),
                       "missing 'end' terminator (truncated file?)");
  }
  if (!saw_program) {
    throw IrParseError(source, cur.line_no(), "missing 'program' line");
  }
  return prog;
}

std::uint64_t hash_text(std::string_view text) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t content_hash(const CompiledProgram& prog) {
  return hash_text(serialize(prog));
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

CompiledProgram load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open program file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), path);
}

void save_file(const CompiledProgram& prog, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open output file: " + path);
  }
  out << serialize(prog);
  out.flush();
  if (!out) {
    throw std::runtime_error("error writing program file: " + path);
  }
}

}  // namespace gnna::accel::ir
