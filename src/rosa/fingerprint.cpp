#include "rosa/fingerprint.h"

#include <array>

#include "rosa/checker.h"

namespace pa::rosa {
namespace {

/// Two independent 64-bit FNV-1a lanes (different offset bases, and the hi
/// lane finalizes each chunk with an xorshift-multiply avalanche) give a
/// 128-bit digest. Not cryptographic — the threat model is accidental
/// collision across a corpus of queries, where 2^-128 birthday odds are
/// beyond negligible.
class Hasher128 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      lo_ = (lo_ ^ p[i]) * kPrime;
      hi_ = (hi_ ^ p[i]) * kPrime;
      hi_ ^= hi_ >> 29;
      hi_ *= 0xbf58476d1ce4e5b9ull;
    }
  }
  void u64(std::uint64_t v) {
    std::array<unsigned char, 8> b;
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (i * 8));
    bytes(b.data(), b.size());
  }
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed so adjacent strings cannot alias ("ab","c" vs "a","bc").
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  Fingerprint digest() const { return Fingerprint{hi_, lo_}; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t lo_ = 14695981039346656037ull;
  std::uint64_t hi_ = 0x27d4eb2f165667c5ull;
};

}  // namespace

std::string Fingerprint::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (i * 4)) & 0xf];
    out[31 - i] = kDigits[(lo >> (i * 4)) & 0xf];
  }
  return out;
}

std::optional<Fingerprint> Fingerprint::from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Fingerprint f;
  for (int i = 0; i < 16; ++i) {
    const int h = nibble(hex[i]);
    const int l = nibble(hex[16 + i]);
    if (h < 0 || l < 0) return std::nullopt;
    f.hi = (f.hi << 4) | static_cast<std::uint64_t>(h);
    f.lo = (f.lo << 4) | static_cast<std::uint64_t>(l);
  }
  return f;
}

std::optional<Fingerprint> fingerprint_query(const Query& query,
                                             const SearchLimits& limits) {
  if (query.goal.cache_key().empty()) return std::nullopt;
  const AccessChecker& checker =
      query.checker ? *query.checker : linux_checker();
  if (checker.cache_key().empty()) return std::nullopt;
  if (limits.hash_override) return std::nullopt;

  Hasher128 h;
  h.str(kRosaModelVersion);
  h.u64(static_cast<std::uint64_t>(query.attacker));
  h.str(checker.cache_key());
  h.str(query.goal.cache_key());
  h.u64(limits.no_dedup ? 1 : 0);
  // Reduction changes the work counters a cached entry stores (never the
  // verdict), so reduced and unreduced runs must not share entries. The
  // salt is appended only when ON to keep unreduced fingerprints byte-
  // identical with pre-reduction builds' golden values.
  if (limits.reduction) h.str("reduction-v1");

  // canonical() covers every search-mutable field; the user/group pools are
  // deliberately excluded from it (immutable during one search) but DO
  // shape the search — wildcard set*id arguments range over them — so they
  // are mixed in explicitly here.
  h.str(query.initial.canonical());
  h.u64(query.initial.users().size());
  for (int u : query.initial.users()) h.i64(u);
  h.u64(query.initial.groups().size());
  for (int g : query.initial.groups()) h.i64(g);

  h.u64(query.messages.size());
  for (const Message& m : query.messages) {
    h.u64(static_cast<std::uint64_t>(m.sys));
    h.i64(m.proc);
    h.u64(m.args.size());
    for (int a : m.args) h.i64(a);
    h.u64(m.privs.raw());
  }
  // The message mask selects which messages may fire, so it is as
  // semantics-bearing as the message list itself. Salted only when proper
  // so full-mask fingerprints stay byte-identical with pre-mask builds.
  const std::uint64_t full_mask =
      query.messages.size() >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << query.messages.size()) -
                                        1;
  if ((query.msg_mask & full_mask) != full_mask) {
    h.str("mask-v1");
    h.u64(query.msg_mask & full_mask);
  }
  return h.digest();
}

}  // namespace pa::rosa
