#include "attacks/attacks.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "rosa/query.h"
#include "support/error.h"
#include "support/str.h"

namespace pa::attacks {
namespace {

using rosa::Message;
using rosa::Query;
using rosa::State;

// Attack-set bits for per-message ownership in the union message list:
// which of Table I's attacks may fire the message. This is §VII-A's
// relevance tailoring, expressed as a mask over one shared list instead of
// four separate tailored lists.
constexpr std::uint64_t kR = 1;  // ReadDevMem
constexpr std::uint64_t kW = 2;  // WriteDevMem
constexpr std::uint64_t kB = 4;  // BindPrivilegedPort
constexpr std::uint64_t kK = 8;  // KillServer

std::uint64_t attack_bit(AttackId attack) {
  switch (attack) {
    case AttackId::ReadDevMem: return kR;
    case AttackId::WriteDevMem: return kW;
    case AttackId::BindPrivilegedPort: return kB;
    case AttackId::KillServer: return kK;
  }
  PA_UNREACHABLE("attack id");
}

/// Append the union message list — every syscall any Table-I attack is
/// interested in, with open split into a read-mode and a write-mode message
/// so each /dev/mem attack selects its own access mode — and return
/// `attack`'s fireable mask over it. The list is byte-identical for all
/// four attacks of an epoch (same syscalls, same args, same privileges),
/// the mask being the only per-attack residue. File attacks own the file
/// and credential syscalls, the bind attack the socket syscalls, the kill
/// attack kill plus the setuid family (CAP_SETUID lets the attacker become
/// the victim's uid and pass the kill(2) permission check).
std::uint64_t add_messages(Query& q, const ScenarioInput& in,
                           AttackId attack) {
  const caps::CapSet privs = in.permitted;
  const std::uint64_t want = attack_bit(attack);
  std::uint64_t mask = 0;
  auto push = [&](rosa::Sys sys, std::vector<int> args,
                  std::uint64_t owners) {
    if (owners & want) mask |= std::uint64_t{1} << q.messages.size();
    Message m;
    m.sys = sys;
    m.proc = kVictimProc;
    m.privs = privs;
    m.args = std::move(args);
    q.messages.push_back(std::move(m));
  };
  for (const std::string& name : in.syscalls) {
    auto sys = rosa::parse_sys(name);
    if (!sys) continue;  // syscall exists but is outside ROSA's model
    switch (*sys) {
      case rosa::Sys::Open:
        push(*sys, {rosa::kWild, rosa::kAccRead}, kR);
        push(*sys, {rosa::kWild, rosa::kAccWrite}, kW);
        break;
      case rosa::Sys::Chmod:
      case rosa::Sys::Fchmod:
        push(*sys, {rosa::kWild, 0777}, kR | kW);
        break;
      case rosa::Sys::Chown:
      case rosa::Sys::Fchown:
        push(*sys, {rosa::kWild, rosa::kWild, rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Unlink:
        push(*sys, {rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Rename:
        push(*sys, {rosa::kWild, rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Creat:
        push(*sys, {rosa::kWild, 0666}, kR | kW);
        break;
      case rosa::Sys::Link:
        push(*sys, {rosa::kWild, rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Setuid:
      case rosa::Sys::Seteuid:
        push(*sys, {rosa::kWild}, kR | kW | kK);
        break;
      case rosa::Sys::Setresuid:
        push(*sys, {rosa::kWild, rosa::kWild, rosa::kWild}, kR | kW | kK);
        break;
      case rosa::Sys::Setgid:
      case rosa::Sys::Setegid:
        push(*sys, {rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Setresgid:
        push(*sys, {rosa::kWild, rosa::kWild, rosa::kWild}, kR | kW);
        break;
      case rosa::Sys::Kill:
        push(*sys, {kServerProc, 9}, kK);
        break;
      case rosa::Sys::Socket:
        push(*sys, {0}, kB);
        break;
      case rosa::Sys::Bind:
      case rosa::Sys::Connect:
        push(*sys, {rosa::kWild, rosa::kWild}, kB);
        break;
    }
  }
  return mask;
}

/// The union id pools: every value any of the four attacks' searches may
/// need for a wildcard argument (the server uid is always present now that
/// the server process is part of every attack's world).
void add_pools(State& st, const ScenarioInput& in) {
  std::set<int> users = {caps::kRootUid, kServerUid, in.creds.uid.real,
                         in.creds.uid.effective, in.creds.uid.saved};
  std::set<int> groups = {caps::kRootGid, kKmemGid, in.creds.gid.real,
                          in.creds.gid.effective, in.creds.gid.saved};
  for (int u : in.extra_users) users.insert(u);
  for (int g : in.extra_groups) groups.insert(g);
  st.set_users(std::vector<int>(users.begin(), users.end()));
  st.set_groups(std::vector<int>(groups.begin(), groups.end()));
}

}  // namespace

const std::vector<AttackInfo>& modeled_attacks() {
  static const std::vector<AttackInfo> attacks = {
      {AttackId::ReadDevMem, "read-devmem",
       "Read from /dev/mem to steal application data"},
      {AttackId::WriteDevMem, "write-devmem",
       "Write to /dev/mem to corrupt application data"},
      {AttackId::BindPrivilegedPort, "bind-privport",
       "Bind to a privileged port to masquerade as a server"},
      {AttackId::KillServer, "kill-server",
       "Send a SIGKILL signal to kill the sshd server"},
  };
  return attacks;
}

rosa::Query build_attack_query(AttackId attack, const ScenarioInput& in) {
  Query q;

  // One union world, built identically for all four attacks of an epoch:
  // the victim and the critical server both exist, and so do /dev/mem and
  // the /etc decoys, whichever attack is being asked about. Per-attack
  // tailoring lives entirely in q.goal and q.msg_mask.
  rosa::ProcObj victim;
  victim.id = kVictimProc;
  victim.uid = in.creds.uid;
  victim.gid = in.creds.gid;
  victim.supplementary = in.creds.supplementary;
  q.initial.procs.push_back(std::move(victim));

  rosa::ProcObj server;
  server.id = kServerProc;
  server.uid = caps::IdTriple{kServerUid, kServerUid, kServerUid};
  server.gid = caps::IdTriple{kServerUid, kServerUid, kServerUid};
  q.initial.procs.push_back(std::move(server));

  // /dev (root:root 0755) containing /dev/mem (root:kmem 0640).
  q.initial.dirs.push_back(rosa::DirObj{
      kDevDir, os::FileMeta{caps::kRootUid, caps::kRootGid, os::Mode(0755)},
      kDevMemFile});
  q.initial.files.push_back(rosa::FileObj{
      kDevMemFile, os::FileMeta{caps::kRootUid, kKmemGid, os::Mode(0640)}});
  // The /etc files every evaluated program touches; wildcard file arguments
  // range over these too, as in the paper's input files.
  q.initial.files.push_back(rosa::FileObj{
      kShadowFile, os::FileMeta{caps::kRootUid, 42, os::Mode(0640)}});
  q.initial.files.push_back(rosa::FileObj{
      kPasswdFile,
      os::FileMeta{caps::kRootUid, caps::kRootGid, os::Mode(0644)}});
  q.initial.dirs.push_back(rosa::DirObj{
      kEtcDir, os::FileMeta{caps::kRootUid, caps::kRootGid, os::Mode(0755)},
      kShadowFile});
  q.initial.dirs.push_back(rosa::DirObj{
      kEtcDir2, os::FileMeta{caps::kRootUid, caps::kRootGid, os::Mode(0755)},
      kPasswdFile});
  q.initial.set_name(kDevDir, "/dev");
  q.initial.set_name(kDevMemFile, "/dev/mem");
  q.initial.set_name(kShadowFile, "/etc/shadow");
  q.initial.set_name(kPasswdFile, "/etc/passwd");
  q.initial.set_name(kEtcDir, "/etc");
  q.initial.set_name(kEtcDir2, "/etc");

  switch (attack) {
    case AttackId::ReadDevMem:
      q.goal = rosa::goal_file_in_rdfset(kVictimProc, kDevMemFile);
      q.description = "victim opens /dev/mem for reading";
      break;
    case AttackId::WriteDevMem:
      q.goal = rosa::goal_file_in_wrfset(kVictimProc, kDevMemFile);
      q.description = "victim opens /dev/mem for writing";
      break;
    case AttackId::BindPrivilegedPort:
      q.goal = rosa::goal_privileged_port_bound(kVictimProc);
      q.description = "victim binds a socket to a privileged port";
      break;
    case AttackId::KillServer:
      q.goal = rosa::goal_proc_terminated(kServerProc);
      q.description = "critical server terminated by SIGKILL";
      break;
  }

  add_pools(q.initial, in);
  q.msg_mask = add_messages(q, in, attack);
  q.attacker = in.attacker;
  q.initial.normalize();
  return q;
}

}  // namespace pa::attacks
