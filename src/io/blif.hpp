#pragma once

#include <iosfwd>
#include <string>

#include "aig/aig.hpp"

namespace lls {

/// Reads a combinational BLIF model (.model/.inputs/.outputs/.names/.end)
/// into an AIG. Latches and subcircuits are rejected with an exception;
/// both on-set ("... 1") and off-set ("... 0") covers are supported.
Aig read_blif(std::istream& in);
Aig read_blif_file(const std::string& path);

/// Writes an AIG as a BLIF model (one two-input .names per AND node).
void write_blif(std::ostream& out, const Aig& aig, const std::string& model_name = "lls");
void write_blif_file(const std::string& path, const Aig& aig,
                     const std::string& model_name = "lls");

/// Writes an AIG in the ASCII AIGER format (aag).
void write_aiger(std::ostream& out, const Aig& aig);
void write_aiger_file(const std::string& path, const Aig& aig);

/// Reads an ASCII AIGER ("aag") combinational model. Latches and the
/// binary format ("aig") are rejected; the symbol table (when present)
/// supplies PO names.
Aig read_aiger(std::istream& in);

}  // namespace lls
