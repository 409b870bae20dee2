#include "vm/interpreter.h"

#include <algorithm>

#include "support/error.h"
#include "support/str.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

// True for the instructions that end a run: the ones that can change the
// privilege state, control flow or the pending-signal queue.
bool ends_run(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::Syscall: case ir::Opcode::PrivRaise:
    case ir::Opcode::PrivLower: case ir::Opcode::PrivRemove:
    case ir::Opcode::Call: case ir::Opcode::CallInd: case ir::Opcode::Ret:
    case ir::Opcode::Exit: case ir::Opcode::Br: case ir::Opcode::CondBr:
    case ir::Opcode::Unreachable:
      return true;
    default:
      return false;
  }
}

std::int64_t as_int(const ir::RtValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  return ir::rt_as_int(v);  // throws the type error
}

}  // namespace

Interpreter::Interpreter(os::Kernel& kernel, const ir::Module& module,
                         os::Pid pid)
    : kernel_(&kernel), module_(&module), pid_(pid) {
  link();
}

Interpreter::Slot Interpreter::link_operand(const ir::Operand& op) {
  switch (op.kind()) {
    case ir::Operand::Kind::Reg:
      return op.reg_index();
    case ir::Operand::Kind::Int:
      consts_.emplace_back(op.int_value());
      break;
    case ir::Operand::Kind::Str:
      consts_.emplace_back(op.str_value());
      break;
    case ir::Operand::Kind::Func:
      consts_.emplace_back(ir::FuncRef{op.str_value()});
      break;
    case ir::Operand::Kind::Caps:
      consts_.emplace_back(static_cast<std::int64_t>(op.caps_value().raw()));
      break;
  }
  return ~static_cast<Slot>(consts_.size() - 1);
}

void Interpreter::link() {
  const std::vector<ir::Function>& funcs = module_->functions();
  fns_.reserve(funcs.size());
  for (const ir::Function& fn : funcs) {
    fns_.push_back(Function{&fn, static_cast<std::uint32_t>(blocks_.size()),
                            static_cast<std::uint32_t>(fn.num_registers())});
    for (const ir::BasicBlock& bb : fn.blocks()) {
      const auto size = static_cast<std::uint32_t>(bb.instructions.size());
      const auto pos = static_cast<std::uint32_t>(op_at_.size());
      op_at_.resize(pos + size + 1);
      run_end_.resize(pos + size + 1);
      std::uint32_t end = size;
      for (std::uint32_t i = size; i-- > 0;) {
        if (ends_run(bb.instructions[i].op)) end = i + 1;
        run_end_[pos + i] = end;
      }
      for (std::uint32_t i = 0; i < size; ++i) {
        const ir::Instruction& inst = bb.instructions[i];
        op_at_[pos + i] = static_cast<std::uint32_t>(ops_.size());
        if (inst.op == ir::Opcode::Nop) continue;
        Op op{.code = inst.op, .dest = inst.dest, .ip = i, .inst = &inst};
        op.first_arg = static_cast<std::uint32_t>(args_.size());
        op.num_args = static_cast<std::uint32_t>(inst.operands.size());
        for (const ir::Operand& o : inst.operands)
          args_.push_back(link_operand(o));
        if (op.num_args > 0) op.a = args_[op.first_arg];
        if (op.num_args > 1) op.b = args_[op.first_arg + 1];
        if (inst.op == ir::Opcode::Ret && op.num_args == 0)
          op.a = link_operand(ir::Operand::imm(0));
        if (inst.op == ir::Opcode::FuncAddr)
          op.a = link_operand(ir::Operand::func(inst.operands[0].str_value()));
        for (std::size_t t = 0; t < 2 && t < inst.targets.size(); ++t)
          op.target[t] = inst.targets[t];
        if (inst.op == ir::Opcode::Call && module_->has_function(inst.symbol))
          op.callee = static_cast<int>(function_index(inst.symbol));
        ops_.push_back(op);
      }
      op_at_[pos + size] = static_cast<std::uint32_t>(ops_.size());
      blocks_.push_back(Block{pos, size,
                              size == 0 || !ends_run(bb.instructions.back().op)});
    }
  }
}

std::uint32_t Interpreter::function_index(const std::string& name) const {
  // Module::function throws "no function @name" for an unknown callee.
  return static_cast<std::uint32_t>(&module_->function(name) -
                                    module_->functions().data());
}

std::size_t Interpreter::push_frame(std::uint32_t fn, std::size_t num_args,
                                    int dest_in_caller) {
  const Function& callee = fns_[fn];
  PA_CHECK(static_cast<int>(num_args) == callee.src->num_params(),
           str::cat("call to @", callee.src->name(), " with ", num_args,
                    " args, expected ", callee.src->num_params()));
  const std::size_t base = regs_.size();
  regs_.resize(base + callee.num_regs);  // RtValue{} is integer 0
  stack_.push_back(Frame{fn, 0, 0, base, dest_in_caller});
  return base;
}

void Interpreter::deliver_pending_signal() {
  std::vector<int>& pending = proc_->pending_signals;
  if (pending.empty()) return;
  const int signo = pending.front();
  pending.erase(pending.begin());
  auto it = proc_->signal_handlers.find(signo);
  if (it == proc_->signal_handlers.end()) return;
  // Handler runs like a call with the signal number; its return value is
  // discarded.
  const std::size_t base = push_frame(function_index(it->second), 1, ir::kNoReg);
  regs_[base] = std::int64_t{signo};
}

void Interpreter::start(const std::string& entry,
                        std::vector<ir::RtValue> args) {
  proc_ = &kernel_->process(pid_);
  stack_.clear();
  regs_.clear();
  exited_ = false;
  exit_code_ = 0;
  const std::size_t base = push_frame(function_index(entry), args.size(),
                                      ir::kNoReg);
  for (std::size_t i = 0; i < args.size(); ++i)
    regs_[base + i] = std::move(args[i]);
}

long Interpreter::run(const std::string& entry,
                      std::vector<ir::RtValue> args) {
  start(entry, std::move(args));
  execute(UINT64_MAX);
  return exit_code();
}

long Interpreter::exit_code() const {
  // A killed process stops with frames left and never ran ret/exit; the
  // kernel recorded its 128+signo.
  const bool killed = !stack_.empty() && !exited_ && !proc_->alive();
  return killed ? kernel_->process(pid_).exit_code : exit_code_;
}

void Interpreter::finalize() {
  if (kernel_->process(pid_).alive())
    kernel_->sys_exit(pid_, static_cast<int>(exit_code_));
}

void Interpreter::charge(const Frame& f, std::uint64_t n) {
  if (tracer_ && n > 0)
    tracer_->on_run(*proc_, *fns_[f.fn].src, f.block, f.ip, n);
  executed_ += n;
}

// Executes one instruction that cannot end a run.
inline void Interpreter::straight_line(const Op& op, std::size_t base) {
  ir::RtValue& out = regs_[base + static_cast<std::size_t>(op.dest)];
  switch (op.code) {
    case ir::Opcode::Mov:
    case ir::Opcode::FuncAddr:
      out = value(base, op.a);
      return;
    case ir::Opcode::CmpEq:
      out = std::int64_t{value(base, op.a) == value(base, op.b)};
      return;
    case ir::Opcode::CmpNe:
      out = std::int64_t{value(base, op.a) != value(base, op.b)};
      return;
    case ir::Opcode::Not:
      out = std::int64_t{as_int(value(base, op.a)) == 0};
      return;
    default:
      break;
  }
  // Arithmetic and ordered comparisons work on integers only.
  const std::int64_t a = as_int(value(base, op.a));
  const std::int64_t b = as_int(value(base, op.b));
  std::int64_t r = 0;
  switch (op.code) {
    case ir::Opcode::Add: r = a + b; break;
    case ir::Opcode::Sub: r = a - b; break;
    case ir::Opcode::Mul: r = a * b; break;
    case ir::Opcode::Div:
      PA_CHECK(b != 0, "division by zero");
      r = a / b;
      break;
    case ir::Opcode::CmpLt: r = a < b; break;
    case ir::Opcode::CmpLe: r = a <= b; break;
    case ir::Opcode::CmpGt: r = a > b; break;
    case ir::Opcode::CmpGe: r = a >= b; break;
    case ir::Opcode::And: r = (a != 0) && (b != 0); break;
    case ir::Opcode::Or: r = (a != 0) || (b != 0); break;
    default: PA_UNREACHABLE("straight-line opcode");
  }
  out = r;
}

// Executes the instruction that ends a run.
void Interpreter::boundary(const Op& op) {
  Frame& f = stack_.back();
  const std::size_t base = f.base;
  switch (op.code) {
    case ir::Opcode::Br:
      f.block = op.target[0];
      f.ip = 0;
      return;
    case ir::Opcode::CondBr:
      f.block = op.target[as_int(value(base, op.a)) != 0 ? 0 : 1];
      f.ip = 0;
      return;
    case ir::Opcode::Ret: {
      ir::RtValue rv = value(base, op.a);
      const int dest = f.dest_in_caller;
      stack_.pop_back();
      regs_.resize(base);
      if (stack_.empty()) {
        exit_code_ = as_int(rv);
      } else if (dest != ir::kNoReg) {
        regs_[stack_.back().base + static_cast<std::size_t>(dest)] =
            std::move(rv);
      }
      return;
    }
    case ir::Opcode::Exit:
      exit_code_ = as_int(value(base, op.a));
      exited_ = true;
      return;
    case ir::Opcode::Unreachable:
      fail(str::cat("executed unreachable in @", fns_[f.fn].src->name()));
    case ir::Opcode::Call:
    case ir::Opcode::CallInd: {
      std::uint32_t first = op.first_arg;
      std::uint32_t num_args = op.num_args;
      std::uint32_t callee = 0;
      if (op.code == ir::Opcode::Call) {
        callee = op.callee >= 0 ? static_cast<std::uint32_t>(op.callee)
                                : function_index(op.inst->symbol);
      } else {
        const auto* fr = std::get_if<ir::FuncRef>(&value(base, op.a));
        PA_CHECK(fr != nullptr, "callind through non-function value");
        callee = function_index(fr->name);
        ++first;
        --num_args;
      }
      f.ip = op.ip + 1;  // return lands after the call
      const std::size_t callee_base = push_frame(callee, num_args, op.dest);
      for (std::uint32_t i = 0; i < num_args; ++i)
        regs_[callee_base + i] = value(base, args_[first + i]);
      return;
    }
    case ir::Opcode::Syscall: {
      std::vector<ir::RtValue> args;
      args.reserve(op.num_args);
      for (std::uint32_t i = 0; i < op.num_args; ++i)
        args.push_back(value(base, args_[op.first_arg + i]));
      const std::int64_t r =
          dispatch_syscall(*kernel_, pid_, op.inst->symbol, args);
      if (op.dest != ir::kNoReg)
        regs_[base + static_cast<std::size_t>(op.dest)] = r;
      f.ip = op.ip + 1;
      return;
    }
    case ir::Opcode::PrivRaise: {
      const caps::CapSet set = op.inst->operands[0].caps_value();
      PA_CHECK(kernel_->priv_raise(pid_, set).ok(),
               str::cat("priv_raise of non-permitted capability in @",
                        fns_[f.fn].src->name(), " (", set.to_string(), ")"));
      f.ip = op.ip + 1;
      return;
    }
    case ir::Opcode::PrivLower:
      kernel_->priv_lower(pid_, op.inst->operands[0].caps_value());
      f.ip = op.ip + 1;
      return;
    case ir::Opcode::PrivRemove:
      kernel_->priv_remove(pid_, op.inst->operands[0].caps_value());
      f.ip = op.ip + 1;
      return;
    default:
      PA_UNREACHABLE("run-ending opcode");
  }
}

bool Interpreter::execute(std::uint64_t slice) {
  while (!finished()) {
    if (slice == 0) return true;
    Frame& f = stack_.back();
    const Block& blk = blocks_[fns_[f.fn].first_block +
                               static_cast<std::uint32_t>(f.block)];
    PA_CHECK(f.ip < blk.size,
             str::cat("fell off block ", fns_[f.fn].src->block(f.block).label,
                      " in @", fns_[f.fn].src->name()));
    // The run from here, clipped to the slice; a queued signal is
    // delivered after the next instruction, so it clips the run to one.
    const std::uint32_t at = blk.pos + f.ip;
    const std::uint32_t end = run_end_[at];
    std::uint64_t n = std::min<std::uint64_t>(end - f.ip, slice);
    if (!proc_->pending_signals.empty()) n = 1;
    const bool out_of_budget = executed_ + n > limits_.max_instructions;
    if (out_of_budget)
      n = executed_ < limits_.max_instructions
              ? limits_.max_instructions - executed_
              : 0;
    // `whole`: the slice reaches the instruction that ends the run, which
    // then executes after the tracer has seen the run.
    const auto stop = static_cast<std::uint32_t>(f.ip + n);
    const bool whole = stop == end && (end != blk.size || !blk.falls_off);

    const Op* op = ops_.data() + op_at_[at];
    const Op* const last =
        ops_.data() + op_at_[blk.pos + stop] - (whole ? 1 : 0);
    try {
      for (; op != last; ++op) straight_line(*op, f.base);
    } catch (...) {
      charge(f, op->ip - f.ip + 1);  // the faulting instruction counts
      throw;
    }
    charge(f, n);
    if (out_of_budget) {
      ++executed_;
      fail(str::cat("instruction budget exhausted (",
                    limits_.max_instructions, ")"));
    }
    if (whole)
      boundary(*last);
    else
      f.ip = stop;
    if (!exited_) deliver_pending_signal();
    slice -= n;
  }
  finalize();
  return false;
}

}  // namespace pa::vm
