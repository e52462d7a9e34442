// Seeded IR mutator for verifier mutation testing: injects exactly one
// defect of a chosen class into a module. Deterministic in (module, class,
// seed) — the RNG is a splitmix64 stream, no wall-clock anywhere — and
// total: defects are *injected* (synthesized) when no existing site can be
// corrupted, so every class applies to every structurally valid module.
#pragma once

#include <array>
#include <string>

#include "ir/ir.hpp"
#include "statican/statican.hpp"
#include "verify/verifier.hpp"

namespace pp::verify {

enum class DefectClass : std::uint8_t {
  kDanglingBranch,      ///< branch target past the last block
  kMissingTerminator,   ///< block no longer ends in a terminator
  kUseBeforeDef,        ///< read of a register with no def on any path
  kBadCallArity,        ///< call with the wrong argument count
  kOutOfRangeRegister,  ///< register operand past num_regs
  kDuplicateFunctionName,  ///< a second function with an existing name
  kFunctionIdMismatch,  ///< a function id that is not its position
  kEmptyBlock,          ///< a block emptied of its instructions
};

inline constexpr std::array<DefectClass, 8> kAllDefectClasses = {
    DefectClass::kDanglingBranch,     DefectClass::kMissingTerminator,
    DefectClass::kUseBeforeDef,       DefectClass::kBadCallArity,
    DefectClass::kOutOfRangeRegister, DefectClass::kDuplicateFunctionName,
    DefectClass::kFunctionIdMismatch, DefectClass::kEmptyBlock};

const char* defect_class_name(DefectClass c);

/// The verifier issue code a defect of this class must produce.
IssueCode expected_issue(DefectClass c);

/// Where and what was mutated (for test diagnostics).
struct Mutation {
  DefectClass cls{};
  int func = -1;
  int block = -1;
  int instr = -1;
  std::string description;
};

/// Apply one seeded defect of class `cls` to `m` in place. Requires a
/// module with at least one function with at least one block.
Mutation mutate(ir::Module& m, DefectClass cls, u64 seed);

/// Semantics-preserving access-class mutations, the exact analysis's
/// false-negative guard: flip a kStaticExact access site down the
/// classification lattice without changing what the program computes, then
/// assert the classifier downgrades it.
enum class AccessMutation : std::uint8_t {
  /// Launder the block's branch condition through loaded data: the block
  /// gains reason 'B' (data-dependent conditional) and the access drops to
  /// kWeaklyDynamic. The laundered condition evaluates to the original
  /// value, so control flow is unchanged.
  kWeaklyDynamic,
  /// Route the access address through loaded data (addr + (x - x)): the
  /// address is no longer statically affine and the access drops to
  /// kDynamicRequired. The detour adds zero, so the address is unchanged.
  kDynamicRequired,
};

inline constexpr std::array<AccessMutation, 2> kAllAccessMutations = {
    AccessMutation::kWeaklyDynamic, AccessMutation::kDynamicRequired};

const char* access_mutation_name(AccessMutation c);

/// The exact class the mutated site must land on.
statican::AccessClass expected_access_class(AccessMutation c);

/// Where the access mutation landed. func == -1: the module has no
/// kStaticExact site whose block shape supports this mutation.
struct AccessMutationResult {
  AccessMutation cls{};
  int func = -1;
  int block = -1;
  int instr = -1;  ///< index of the mutated access AFTER insertions
  std::string description;
};

/// Apply one seeded, semantics-preserving access-class mutation in place.
AccessMutationResult mutate_access(ir::Module& m, AccessMutation cls,
                                   u64 seed);

}  // namespace pp::verify
