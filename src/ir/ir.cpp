#include "ir/ir.hpp"

#include <sstream>
#include <cstdio>

namespace pp::ir {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kRem: return "rem";
    case Op::kAddI: return "addi";
    case Op::kMulI: return "muli";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kCmpEq: return "cmpeq";
    case Op::kCmpNe: return "cmpne";
    case Op::kCmpLt: return "cmplt";
    case Op::kCmpLe: return "cmple";
    case Op::kCmpGt: return "cmpgt";
    case Op::kCmpGe: return "cmpge";
    case Op::kFAdd: return "fadd";
    case Op::kFSub: return "fsub";
    case Op::kFMul: return "fmul";
    case Op::kFDiv: return "fdiv";
    case Op::kFConst: return "fconst";
    case Op::kI2F: return "i2f";
    case Op::kF2I: return "f2i";
    case Op::kLoad: return "load";
    case Op::kStore: return "store";
    case Op::kBr: return "br";
    case Op::kBrCond: return "brcond";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
  }
  return "?";
}

bool op_is_terminator(Op op) {
  return op == Op::kBr || op == Op::kBrCond || op == Op::kRet;
}

bool op_is_fp(Op op) {
  switch (op) {
    case Op::kFAdd:
    case Op::kFSub:
    case Op::kFMul:
    case Op::kFDiv:
      return true;
    default:
      return false;
  }
}

bool op_is_memory(Op op) { return op == Op::kLoad || op == Op::kStore; }

Function& Module::add_function(const std::string& name, int num_args,
                               const std::string& source_file) {
  Function f;
  f.id = static_cast<int>(functions.size());
  f.name = name;
  f.num_args = num_args;
  f.num_regs = num_args;  // args arrive in r0..r(num_args-1)
  f.source_file = source_file;
  functions.push_back(std::move(f));
  return functions.back();
}

i64 Module::add_global(const std::string& name, i64 size_bytes) {
  PP_CHECK(size_bytes > 0, "global must have positive size");
  i64 addr = data_segment_size;
  i64 aligned = (size_bytes + 7) / 8 * 8;
  globals.push_back({name, addr, aligned, {}});
  data_segment_size += aligned;
  return addr;
}

i64 Module::add_global_init(const std::string& name, std::vector<i64> words) {
  i64 addr = add_global(name, static_cast<i64>(words.size()) * 8);
  globals.back().init_words = std::move(words);
  return addr;
}

Function* Module::find_function(const std::string& name) {
  for (auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const Function* Module::find_function(const std::string& name) const {
  return const_cast<Module*>(this)->find_function(name);
}

const Global* Module::find_global(const std::string& name) const {
  for (const auto& g : globals)
    if (g.name == name) return &g;
  return nullptr;
}

namespace {

std::string reg_str(Reg r) { return "r" + std::to_string(r); }

std::string instr_str(const Module* m, const Instr& in) {
  std::ostringstream os;
  os << op_name(in.op);
  switch (in.op) {
    case Op::kConst:
      os << " " << reg_str(in.dst) << ", " << in.imm;
      break;
    case Op::kFConst: {
      double d;
      static_assert(sizeof d == sizeof in.imm);
      __builtin_memcpy(&d, &in.imm, sizeof d);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);  // exact round-trip
      os << " " << reg_str(in.dst) << ", " << buf;
      break;
    }
    case Op::kMov:
    case Op::kI2F:
    case Op::kF2I:
      os << " " << reg_str(in.dst) << ", " << reg_str(in.a);
      break;
    case Op::kAddI:
    case Op::kMulI:
      os << " " << reg_str(in.dst) << ", " << reg_str(in.a) << ", " << in.imm;
      break;
    case Op::kLoad:
      os << " " << reg_str(in.dst) << ", [" << reg_str(in.a);
      if (in.imm) os << " + " << in.imm;
      os << "]";
      break;
    case Op::kStore:
      os << " [" << reg_str(in.a);
      if (in.imm) os << " + " << in.imm;
      os << "], " << reg_str(in.b);
      break;
    case Op::kBr:
      os << " bb" << in.imm;
      break;
    case Op::kBrCond:
      os << " " << reg_str(in.a) << ", bb" << in.imm << ", bb" << in.imm2;
      break;
    case Op::kCall: {
      if (in.dst != kNoReg) os << " " << reg_str(in.dst) << " =";
      std::string callee =
          m ? m->functions[static_cast<std::size_t>(in.imm)].name
            : "f" + std::to_string(in.imm);
      os << " " << callee << "(";
      for (std::size_t i = 0; i < in.args.size(); ++i) {
        if (i) os << ", ";
        os << reg_str(in.args[i]);
      }
      os << ")";
      break;
    }
    case Op::kRet:
      if (in.a != kNoReg) os << " " << reg_str(in.a);
      break;
    default:
      os << " " << reg_str(in.dst) << ", " << reg_str(in.a) << ", "
         << reg_str(in.b);
      break;
  }
  if (in.line) os << "   ; line " << in.line;
  return os.str();
}

void print_function(std::ostringstream& os, const Module* m,
                    const Function& f) {
  os << "func " << f.name << "(" << f.num_args << " args, " << f.num_regs
     << " regs)";
  if (!f.source_file.empty()) os << "  ; " << f.source_file;
  os << "\n";
  for (const auto& bb : f.blocks) {
    os << "bb" << bb.id;
    if (!bb.label.empty()) os << " (" << bb.label << ")";
    os << ":\n";
    for (const auto& in : bb.instrs) os << "  " << instr_str(m, in) << "\n";
  }
}

}  // namespace

std::string print(const Function& f) {
  std::ostringstream os;
  print_function(os, nullptr, f);
  return os.str();
}

std::string print(const Module& m) {
  std::ostringstream os;
  for (const auto& g : m.globals)
    os << "global " << g.name << " @" << g.address << " size " << g.size_bytes
       << "\n";
  for (const auto& f : m.functions) {
    print_function(os, &m, f);
    os << "\n";
  }
  return os.str();
}

}  // namespace pp::ir
