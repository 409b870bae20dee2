#include "rosa/independence.h"

#include <algorithm>
#include <bit>

#include "rosa/checker.h"

namespace pa::rosa {
namespace {

/// Small dynamic bitset for resource footprints.
struct Bits {
  std::vector<std::uint64_t> w;

  explicit Bits(std::size_t nbits) : w((nbits + 63) / 64, 0) {}
  void set(std::size_t i) { w[i / 64] |= std::uint64_t{1} << (i % 64); }
  bool intersects(const Bits& o) const {
    for (std::size_t k = 0; k < w.size(); ++k)
      if (w[k] & o.w[k]) return true;
    return false;
  }
  void merge(const Bits& o) {
    for (std::size_t k = 0; k < w.size(); ++k) w[k] |= o.w[k];
  }
  bool any() const {
    for (std::uint64_t x : w)
      if (x) return true;
    return false;
  }
};

/// The abstract resource vocabulary one query's footprints range over.
/// Processes are never created during search, so the per-process bits are
/// static; files can be created (Creat), so one extra `created` bit stands
/// for every not-yet-existing file object, and wildcard file arguments
/// read it (their instantiation set depends on which files exist).
struct Atlas {
  const State& initial;
  std::size_t n_procs, n_files;

  explicit Atlas(const State& st)
      : initial(st), n_procs(st.procs.size()), n_files(st.files.size()) {}

  std::size_t bit_count() const { return 4 * n_procs + n_files + 4; }
  std::size_t creds(std::size_t pi) const { return 4 * pi; }
  std::size_t fds(std::size_t pi) const { return 4 * pi + 1; }
  std::size_t run(std::size_t pi) const { return 4 * pi + 2; }
  std::size_t socks(std::size_t pi) const { return 4 * pi + 3; }
  std::size_t meta(std::size_t fi) const { return 4 * n_procs + fi; }
  std::size_t created() const { return 4 * n_procs + n_files; }
  std::size_t dirs() const { return 4 * n_procs + n_files + 1; }
  std::size_t alloc() const { return 4 * n_procs + n_files + 2; }
  std::size_t ports() const { return 4 * n_procs + n_files + 3; }

  /// Index of proc object `id`, or npos when absent (such a message can
  /// never fire: processes are never created).
  std::size_t proc_index(int id) const {
    for (std::size_t i = 0; i < n_procs; ++i)
      if (initial.procs[i].id == id) return i;
    return static_cast<std::size_t>(-1);
  }

  /// Mark the file-metadata resource(s) a file argument denotes: one bit
  /// for a known concrete file, every file plus `created` for a wildcard,
  /// `created` alone for a concrete id that is not an initial file.
  void mark_file(Bits& b, int arg, bool wild_reads_existence) const {
    if (arg == kWild) {
      for (std::size_t fi = 0; fi < n_files; ++fi) b.set(meta(fi));
      b.set(created());
      (void)wild_reads_existence;
      return;
    }
    for (std::size_t fi = 0; fi < n_files; ++fi)
      if (initial.files[fi].id == arg) {
        b.set(meta(fi));
        return;
      }
    b.set(created());
  }
};

/// Conservative read/write footprints per message. `reads` must cover
/// everything that can affect the message's enabledness, its wildcard
/// instantiation set, or its effect; `writes` everything its transitions
/// can change. Object-id allocation (Creat/Socket) is a read-modify-write
/// of the global counter, so allocators never commute with each other.
struct Footprint {
  Bits reads, writes;
  bool dead = false;  // proc missing: the message can never fire

  explicit Footprint(std::size_t nbits) : reads(nbits), writes(nbits) {}
};

Footprint footprint(const Message& m, const Atlas& at) {
  Footprint fp(at.bit_count());
  const std::size_t p = at.proc_index(m.proc);
  if (p == static_cast<std::size_t>(-1)) {
    fp.dead = true;
    return fp;
  }
  Bits& r = fp.reads;
  Bits& w = fp.writes;
  r.set(at.run(p));  // every rule requires the calling process running
  switch (m.sys) {
    case Sys::Open:
      r.set(at.creds(p));
      r.set(at.fds(p));  // the no-op ("unchanged") guard
      r.set(at.dirs());
      at.mark_file(r, m.args[0], true);
      w.set(at.fds(p));
      break;
    case Sys::Chmod:
    case Sys::Chown:
      r.set(at.creds(p));
      r.set(at.dirs());
      at.mark_file(r, m.args[0], true);
      at.mark_file(w, m.args[0], false);
      break;
    case Sys::Fchmod:
    case Sys::Fchown:
      r.set(at.creds(p));
      r.set(at.fds(p));  // operates on an open descriptor
      at.mark_file(r, m.args[0], true);
      at.mark_file(w, m.args[0], false);
      break;
    case Sys::Unlink:
      r.set(at.creds(p));
      r.set(at.dirs());
      at.mark_file(r, m.args[0], true);
      w.set(at.dirs());
      break;
    case Sys::Rename:
      r.set(at.creds(p));
      r.set(at.dirs());
      at.mark_file(r, m.args[0], true);
      at.mark_file(r, m.args[1], true);
      w.set(at.dirs());
      break;
    case Sys::Creat:
      r.set(at.creds(p));
      r.set(at.dirs());
      r.set(at.alloc());
      w.set(at.dirs());
      w.set(at.alloc());
      w.set(at.created());
      break;
    case Sys::Link:
      r.set(at.creds(p));
      r.set(at.dirs());
      at.mark_file(r, m.args[0], true);
      w.set(at.dirs());
      break;
    case Sys::Setuid:
    case Sys::Seteuid:
    case Sys::Setresuid:
    case Sys::Setgid:
    case Sys::Setegid:
    case Sys::Setresgid:
      r.set(at.creds(p));
      w.set(at.creds(p));
      break;
    case Sys::Kill:
      r.set(at.creds(p));
      if (m.args[0] == kWild) {
        for (std::size_t t = 0; t < at.n_procs; ++t) {
          r.set(at.creds(t));  // can_kill consults the victim's uids
          r.set(at.run(t));
          w.set(at.run(t));
        }
      } else {
        const std::size_t t = at.proc_index(m.args[0]);
        if (t != static_cast<std::size_t>(-1)) {
          r.set(at.creds(t));
          r.set(at.run(t));
          w.set(at.run(t));
        }
      }
      break;
    case Sys::Socket:
      r.set(at.creds(p));
      r.set(at.alloc());
      w.set(at.socks(p));
      w.set(at.alloc());
      break;
    case Sys::Bind:
      r.set(at.creds(p));
      r.set(at.socks(p));
      r.set(at.ports());  // the port-in-use scan covers every socket
      w.set(at.socks(p));
      w.set(at.ports());
      break;
    case Sys::Connect:
      // Never yields a transition; empty footprint.
      break;
  }
  return fp;
}

}  // namespace

IndependenceTable IndependenceTable::build(const Query& query) {
  IndependenceTable t;
  const std::size_t n = query.messages.size();
  if (n == 0 || n > 64) return t;
  // Program-ordered attackers make firing order observable by construction.
  if (query.attacker == AttackerModel::CfiOrdered) return t;
  // Proper message masks disable POR: the reduction is measured inert on
  // the masked attack matrix (por_pruned = 0 across all of Table III: the
  // single-process attack scenarios' set*id messages couple everything —
  // see the header's footprint-coarseness note), and the goldens pin the
  // counters this refusal produces.
  const std::uint64_t full =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  if ((query.msg_mask & full) != full) return t;
  // An unknown goal touch set means every message must be assumed visible,
  // which rejects every candidate ample set — don't bother building.
  const GoalInfo& goal = query.goal.info();
  if (!goal.touch_known) return t;

  const Atlas at(query.initial);
  std::vector<Footprint> fps;
  fps.reserve(n);
  std::uint64_t dead = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fps.push_back(footprint(query.messages[i], at));
    if (fps.back().dead) dead |= std::uint64_t{1} << i;
  }

  Bits goal_reads(at.bit_count());
  for (int pid : goal.fd_procs) {
    const std::size_t pi = at.proc_index(pid);
    if (pi != static_cast<std::size_t>(-1)) goal_reads.set(at.fds(pi));
  }
  for (int pid : goal.run_procs) {
    const std::size_t pi = at.proc_index(pid);
    if (pi != static_cast<std::size_t>(-1)) goal_reads.set(at.run(pi));
  }
  for (int pid : goal.sock_procs) {
    const std::size_t pi = at.proc_index(pid);
    if (pi != static_cast<std::size_t>(-1)) goal_reads.set(at.socks(pi));
    goal_reads.set(at.ports());
  }

  t.dep_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    t.dep_[i] |= std::uint64_t{1} << i;
    if (fps[i].writes.intersects(goal_reads))
      t.visible_ |= std::uint64_t{1} << i;
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool conflict = fps[i].writes.intersects(fps[j].reads) ||
                            fps[i].writes.intersects(fps[j].writes) ||
                            fps[j].writes.intersects(fps[i].reads);
      if (conflict) {
        t.dep_[i] |= std::uint64_t{1} << j;
        t.dep_[j] |= std::uint64_t{1} << i;
      }
    }
  }
  t.dead_ = dead;
  t.enabled_ = true;
  return t;
}

void IndependenceTable::candidates(std::uint64_t unconsumed,
                                   std::vector<std::uint64_t>& out) const {
  out.clear();
  if (!enabled_) return;
  std::uint64_t seeds = unconsumed & ~visible_ & ~dead_;
  while (seeds) {
    const int i = std::countr_zero(seeds);
    seeds &= seeds - 1;
    // Dependence closure of {i} restricted to the unconsumed messages.
    std::uint64_t closure = std::uint64_t{1} << i;
    for (;;) {
      std::uint64_t grown = closure;
      std::uint64_t rest = unconsumed & ~closure;
      while (rest) {
        const int j = std::countr_zero(rest);
        rest &= rest - 1;
        if (dep_[static_cast<std::size_t>(j)] & closure)
          grown |= std::uint64_t{1} << j;
      }
      if (grown == closure) break;
      closure = grown;
    }
    if (closure & visible_) continue;   // C2: ample must be invisible
    if (closure == unconsumed) continue;  // no pruning; covered by fallback
    out.push_back(closure);
  }
  std::sort(out.begin(), out.end(), [](std::uint64_t a, std::uint64_t b) {
    const int pa = std::popcount(a), pb = std::popcount(b);
    return pa != pb ? pa < pb : a < b;
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

ReductionPlan make_reduction_plan(const Query& query,
                                  const SearchLimits& limits) {
  ReductionPlan plan;
  if (!limits.reduction) return plan;
  plan.symmetry = compute_symmetry(query);
  plan.table = IndependenceTable::build(query);
  return plan;
}

std::size_t expand_state(const State& cur, const Query& query,
                         const AccessChecker& checker,
                         const IndependenceTable* table,
                         std::uint64_t full_msg_mask, std::uint64_t fire_mask,
                         std::vector<ExpandedTransition>& out,
                         std::vector<Transition>& scratch) {
  out.clear();
  const std::uint64_t cur_msgs = cur.msgs_remaining();
  // Masked-out messages stay in msgs_remaining forever (shared canonical
  // representation across masks); they simply never fire.
  const std::uint64_t fire = cur_msgs & fire_mask;
  if (!fire) return 0;

  const auto expand_one = [&](std::size_t mi) {
    apply_message(cur, query.messages[mi], query.attacker, checker, scratch);
    for (Transition& tr : scratch) {
      tr.next.set_msgs_remaining(cur_msgs & ~(std::uint64_t{1} << mi));
      out.push_back(
          ExpandedTransition{static_cast<unsigned>(mi), std::move(tr)});
    }
    return !scratch.empty();
  };

  if (table && table->enabled()) {
    // CfiOrdered never reaches here (build() refuses it), so no per-message
    // program-order gate is needed on this path.
    std::vector<std::uint64_t> cands;
    table->candidates(cur_msgs, cands);
    std::uint64_t known_empty = 0;
    for (const std::uint64_t ample : cands) {
      bool produced = false;
      std::uint64_t todo = ample & ~known_empty;
      while (todo) {
        const int mi = std::countr_zero(todo);
        todo &= todo - 1;
        if (expand_one(static_cast<std::size_t>(mi)))
          produced = true;
        else
          known_empty |= std::uint64_t{1} << mi;
      }
      if (produced)
        return static_cast<std::size_t>(std::popcount(cur_msgs & ~ample));
    }
    // Every proper candidate was disabled: full expansion (messages already
    // known empty contribute nothing and are skipped).
    std::uint64_t todo = cur_msgs & ~known_empty;
    while (todo) {
      const int mi = std::countr_zero(todo);
      todo &= todo - 1;
      expand_one(static_cast<std::size_t>(mi));
    }
    return 0;
  }

  for (std::size_t mi = 0; mi < query.messages.size(); ++mi) {
    const std::uint64_t bit = std::uint64_t{1} << mi;
    if (!(fire & bit)) continue;
    // CFI-ordered attackers must issue syscalls in program order: message
    // i is usable only while every later message is still unconsumed
    // (skipping forward is allowed, going back is not).
    if (query.attacker == AttackerModel::CfiOrdered) {
      const std::uint64_t later_in_range = ~((bit << 1) - 1) & full_msg_mask;
      if ((cur_msgs & later_in_range) != later_in_range) continue;
    }
    expand_one(mi);
  }
  return 0;
}

}  // namespace pa::rosa
