// GNNA-IR: the versioned, human-readable text format for compiled
// accelerator programs.
//
// A CompiledProgram is the unit Algorithm 1 of the paper iterates; GNNA-IR
// makes it a first-class portable artifact — programs can be saved
// (`gnnasim --emit-program`), diffed, hand-written, linted standalone
// (`gnnaverify foo.gnna`), loaded back for simulation (`program=` manifest
// key) and cached by content hash (src/sim session layer). The grammar and
// versioning rules live in DESIGN.md §12.
//
// Canonical form: `serialize()` emits a deterministic, line-oriented text
// (fixed field order, lists only when non-empty) and `parse()` accepts
// exactly that plus benign whitespace variation, so
// `serialize(parse(serialize(p))) == serialize(p)` byte-for-byte — the
// round-trip property the ctests and the CI verify-programs job pin for
// every shipped benchmark.
//
// Versioning: the header line `gnna-ir <version>` gates parsing. Additive
// grammar changes (new optional field lines) keep the version; any change
// that alters the meaning or canonical rendering of an existing line bumps
// it, and `parse` rejects versions it does not understand rather than
// guessing.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>

#include "accel/program.hpp"

namespace gnna::accel::ir {

/// Current GNNA-IR text format version (the `gnna-ir N` header line).
inline constexpr int kIrVersion = 1;

/// Conventional file extension for serialized programs.
inline constexpr const char* kIrExtension = ".gnna";

/// Thrown by parse()/load_file() with a message of the form
/// "<source>:<line>: <reason>" so editors and CI logs can jump to the
/// offending line.
class IrParseError : public std::runtime_error {
 public:
  IrParseError(const std::string& source, std::size_t line,
               const std::string& reason)
      : std::runtime_error(source + ":" + std::to_string(line) + ": " +
                           reason),
        line_(line) {}

  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// A PhaseSpec field written as one `<name> <value>` line of a phase
/// block. phase_fields() lists them in canonical order; serialize, parse
/// and validate::validate_transform all iterate that one list.
struct PhaseField {
  const char* name;
  std::variant<PhaseKind PhaseSpec::*, BufferRef PhaseSpec::*,
               bool PhaseSpec::*, std::uint32_t PhaseSpec::*,
               std::uint64_t PhaseSpec::*, ReduceOp PhaseSpec::*>
      member;
  /// The value is or holds a region id, which a translation validator
  /// matches under region renaming rather than by equality.
  bool names_region = false;
};

/// Every single-line PhaseSpec field, in the order serialize() emits them.
[[nodiscard]] std::span<const PhaseField> phase_fields();

/// Serialize `prog` to canonical GNNA-IR v1 text.
[[nodiscard]] std::string serialize(const CompiledProgram& prog);

/// Parse GNNA-IR text into a CompiledProgram. `source` names the input in
/// error messages (a file path, or "<string>"). Throws IrParseError on any
/// syntactic violation; semantic checks (overlapping regions, dangling
/// region ids, malformed graph tables, ...) are accel::verify's job.
[[nodiscard]] CompiledProgram parse(std::string_view text,
                                    const std::string& source = "<string>");

/// FNV-1a 64-bit hash of arbitrary text.
[[nodiscard]] std::uint64_t hash_text(std::string_view text);

/// Stable content hash of a program: hash_text(serialize(prog)). Two
/// programs hash equal iff their canonical IR is byte-identical, which is
/// what the session program cache dedupes on.
[[nodiscard]] std::uint64_t content_hash(const CompiledProgram& prog);

/// A hash as the 16 hex digits the tools and the stats JSON print.
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

/// Read and parse a .gnna file. Throws std::runtime_error if the file
/// cannot be opened, IrParseError on bad content.
[[nodiscard]] CompiledProgram load_file(const std::string& path);

/// Serialize `prog` and write it to `path` (overwriting). Throws
/// std::runtime_error on I/O failure.
void save_file(const CompiledProgram& prog, const std::string& path);

}  // namespace gnna::accel::ir
