// PrivIR interpreter: executes a module's code as one SimOS process,
// dispatching Syscall instructions to the kernel and priv_* instructions to
// the process's privilege state. ChronoPriv observes execution through the
// Tracer interface.
//
// The interpreter links its module once, at construction: call targets are
// resolved to function indices, operands to register or constant slots, and
// every block is split into straight-line *runs*. A run ends at the first
// instruction that can change the privilege state, control flow or the
// pending-signal queue (syscall, priv_*, call, callind, ret, exit, br,
// condbr, unreachable), so everything before a run's last instruction
// executes under the privilege state in force when the run starts. That is
// what lets the tracer charge a whole run with one call (DESIGN.md
// decision 16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.h"
#include "os/kernel.h"

namespace pa::vm {

/// Execution observer. on_run fires once per executed run: `n` straight-line
/// instructions of `fn` starting at (`block`, `ip`), with `p` in the
/// privilege state in force before the run — the state all `n` execute
/// under. It fires before the effects of the run's last instruction, the
/// only one that can change that state. Instructions that are skipped (the
/// budget ran out) are not reported; an instruction that faults is.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void on_run(const os::Process& p, const ir::Function& fn, int block,
                      std::size_t ip, std::uint64_t n) = 0;
};

struct RunLimits {
  std::uint64_t max_instructions = 2'000'000'000;
};

class Interpreter {
 public:
  /// Links `module`, which must outlive the interpreter and stay unchanged.
  Interpreter(os::Kernel& kernel, const ir::Module& module, os::Pid pid);

  void set_tracer(Tracer* t) { tracer_ = t; }
  void set_limits(RunLimits limits) { limits_ = limits; }

  /// Run `entry` with integer/string arguments; returns the program's exit
  /// code (the value of Exit, the entry function's return value, or the
  /// kernel's 128+signo when the process was killed).
  /// Throws pa::Error on runtime faults (bad IR, executed unreachable,
  /// instruction budget exhausted).
  long run(const std::string& entry = "main",
           std::vector<ir::RtValue> args = {});

  // -- Stepping API (used by vm::Scheduler for multi-process runs) ----------
  /// Prepare to execute `entry`; the program runs via step().
  void start(const std::string& entry = "main",
             std::vector<ir::RtValue> args = {});
  /// Execute one instruction. Returns false once the program has finished
  /// (returned from the entry frame, executed exit, or been killed); the
  /// process is marked zombie at that point.
  bool step() { return execute(1); }
  bool finished() const {
    return stack_.empty() || exited_ || !proc_->alive();
  }
  /// As run() returns; 0 while the program is still running.
  long exit_code() const;

  std::uint64_t executed() const { return executed_; }

 private:
  /// An instruction operand after linking: a register of the current frame
  /// (>= 0) or constant `~slot` of consts_ (< 0).
  using Slot = std::int32_t;

  /// One linked instruction. `nop`s are not linked: they only count.
  struct Op {
    ir::Opcode code;
    int dest;
    std::uint32_t ip;           // offset in the source block
    Slot a = 0, b = 0;          // first two operands
    int target[2] = {0, 0};     // br/condbr successors
    int callee = -1;            // call: function index, -1 if unresolved
    std::uint32_t first_arg = 0, num_args = 0;  // operand slots in args_
    const ir::Instruction* inst;
  };
  /// A block's linked form: entry `pos + i` of op_at_ is the first op at or
  /// after instruction i (i in [0, size]); of run_end_, one past the last
  /// instruction of the run containing i.
  struct Block {
    std::uint32_t pos;
    std::uint32_t size;
    bool falls_off;  // the last instruction does not end a run
  };
  struct Function {
    const ir::Function* src;
    std::uint32_t first_block;
    std::uint32_t num_regs;
  };
  struct Frame {
    std::uint32_t fn;
    int block = 0;
    std::uint32_t ip = 0;
    std::size_t base;  // first register in regs_
    int dest_in_caller = ir::kNoReg;
  };

  void link();
  Slot link_operand(const ir::Operand& op);

  const ir::RtValue& value(std::size_t base, Slot s) const {
    return s >= 0 ? regs_[base + static_cast<std::size_t>(s)]
                  : consts_[static_cast<std::size_t>(~s)];
  }
  /// The one dispatch loop: executes at most `slice` instructions; returns
  /// false once the program has finished.
  bool execute(std::uint64_t slice);
  void straight_line(const Op& op, std::size_t base);
  void boundary(const Op& op);
  void charge(const Frame& f, std::uint64_t n);
  std::uint32_t function_index(const std::string& name) const;
  /// Push a frame for function `fn`; its arguments are set by the caller.
  std::size_t push_frame(std::uint32_t fn, std::size_t num_args,
                         int dest_in_caller);
  void deliver_pending_signal();
  void finalize();

  os::Kernel* kernel_;
  const ir::Module* module_;
  os::Pid pid_;
  os::Process* proc_ = nullptr;  // set by start(); map nodes never move
  Tracer* tracer_ = nullptr;
  RunLimits limits_;

  std::vector<Function> fns_;
  std::vector<Block> blocks_;
  std::vector<Op> ops_;
  std::vector<std::uint32_t> op_at_;
  std::vector<std::uint32_t> run_end_;
  std::vector<Slot> args_;
  std::vector<ir::RtValue> consts_;

  std::vector<Frame> stack_;
  std::vector<ir::RtValue> regs_;  // every frame's registers
  std::uint64_t executed_ = 0;
  bool exited_ = false;
  long exit_code_ = 0;
};

}  // namespace pa::vm
