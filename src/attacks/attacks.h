// The four privilege-escalation attacks of the paper's Table I, expressed as
// ROSA queries. All four queries of an epoch share ONE union world — the
// victim, the critical server, /dev/mem and the /etc decoys, and a single
// union message list; §VII-A's per-attack tailoring ("the subset of the
// program's syscalls relevant to it") is expressed through Query::msg_mask,
// which selects the attack's fireable messages out of the shared list. Each
// query is one independent search. Every message may use the epoch's
// entire permitted privilege set — the paper's strong attack model.
#pragma once

#include <string>
#include <vector>

#include "caps/priv_state.h"
#include "rosa/search.h"

namespace pa::attacks {

enum class AttackId {
  ReadDevMem = 1,         // open /dev/mem for reading: steal any data
  WriteDevMem = 2,        // open /dev/mem for writing: corrupt any data
  BindPrivilegedPort = 3, // masquerade as a trusted server
  KillServer = 4,         // SIGKILL a critical server owned by another user
};

struct AttackInfo {
  AttackId id;
  std::string name;
  std::string description;
};

/// Table I.
const std::vector<AttackInfo>& modeled_attacks();

// Fixed object ids used in attack scenarios.
inline constexpr int kVictimProc = 1;   // the analyzed (exploited) program
inline constexpr int kServerProc = 2;   // the critical server (attack 4)
inline constexpr int kDevMemFile = 3;   // /dev/mem
inline constexpr int kDevDir = 4;       // /dev
// Decoy objects: the wildcard file arguments of open/chown/chmod/unlink/
// rename range over every file object in the configuration, so the standard
// /etc files are included as in the paper's inputs.
inline constexpr int kShadowFile = 5;   // /etc/shadow
inline constexpr int kPasswdFile = 6;   // /etc/passwd
inline constexpr int kEtcDir = 7;       // /etc
inline constexpr int kEtcDir2 = 8;      // second /etc entry (for /etc/passwd)

// The world the attacks run in (Ubuntu-like): /dev/mem is root:kmem 0640 and
// the critical server runs as a dedicated daemon user.
inline constexpr int kServerUid = 109;
inline constexpr int kKmemGid = 15;

/// Everything PrivAnalyzer knows about one privilege epoch of a program.
struct ScenarioInput {
  caps::CapSet permitted;               // live privilege set
  caps::Credentials creds;              // uids/gids in force
  std::vector<std::string> syscalls;    // syscall names the program uses
  /// Additional uid/gid values the search may try for wildcard arguments
  /// (beyond those implied by the credentials and the scenario objects).
  std::vector<int> extra_users;
  std::vector<int> extra_groups;
  /// Attacker strength (§X): Full is the paper's model; CfiOrdered and
  /// FixedArgs model programs hardened with control-flow / data-flow
  /// integrity defenses.
  rosa::AttackerModel attacker = rosa::AttackerModel::Full;
};

/// Build the ROSA query asking "starting from this epoch, can the attacker
/// reach the attack's compromised state?"
rosa::Query build_attack_query(AttackId attack, const ScenarioInput& input);

}  // namespace pa::attacks
